"""Flat binary tensor container and model checkpointing.

Layout: magic b"DTNS", format version (u16), record count (u32), then per
record {name length u16, name bytes (utf-8), rank u8, one u32 extent per
axis, precision u8 (4 = single, 8 = double, 0x88 = signed 64-bit integer),
payload as little-endian scalars in C order}. All integers little-endian.
Round-trips are bitwise lossless for float32/float64/int64 tensors of any
rank the header can express. Version 2 added the int64 code; version 1
files (float codes only) still read.
"""

import struct

import numpy as np

from .errors import DomainError
from .models import BaseClassifier, Filter, FilterArch, FilterBank

MAGIC = b"DTNS"
VERSION = 2

_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8"), 0x88: np.dtype("<i8")}
_CODES_BY_VERSION = {1: (4, 8), 2: (4, 8, 0x88)}
_CKPT_VERSION = 1
_RES_BLOCK = 1     # the "arch" slot's code for the filter family
# The checkpoint's int64 __meta__ record, slot by slot in on-disk order.
_META_SLOTS = ("version", "arch", "hidden", "k_filters", "bank_seed",
               "image_c", "image_h", "image_w", "classes", "channels_0",
               "channels_1", "model_seed", "frozen", "data_seed",
               "n_per_class")


def _precision_of(arr):
    for code, dtype in _DTYPES.items():
        if arr.dtype == dtype:
            return code
    raise DomainError(
        f"container stores float32/float64/int64 only, got {arr.dtype}")


def write_tensors(path, tensors):
    """Write a name -> array mapping; record order follows iteration order."""
    parts = [MAGIC, struct.pack("<H", VERSION),
             struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        a = np.asarray(arr)
        prec = _precision_of(a)
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise DomainError(f"tensor name too long: {len(nb)} bytes")
        if a.ndim > 0xFF:
            raise DomainError(f"rank {a.ndim} does not fit the header")
        if any(e > 0xFFFFFFFF for e in a.shape):
            raise DomainError("extent does not fit u32")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(struct.pack("<B", prec))
        parts.append(np.ascontiguousarray(a, dtype=_DTYPES[prec]).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Cursor:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise DomainError("truncated container")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_tensors(path):
    """Read back a container written by write_tensors; preserves order."""
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(4) != MAGIC:
        raise DomainError("bad magic; not a DTNS container")
    (version,) = cur.unpack("<H")
    if version not in _CODES_BY_VERSION:
        raise DomainError(f"unsupported container version {version}")
    (count,) = cur.unpack("<I")
    out = {}
    for _ in range(count):
        (nlen,) = cur.unpack("<H")
        name = cur.take(nlen).decode("utf-8")
        (rank,) = cur.unpack("<B")
        extents = cur.unpack(f"<{rank}I")
        (prec,) = cur.unpack("<B")
        if prec not in _CODES_BY_VERSION[version]:
            raise DomainError(f"unknown precision code {prec}")
        n_items = 1
        for e in extents:
            n_items *= e
        raw = cur.take(n_items * _DTYPES[prec].itemsize)
        arr = np.frombuffer(raw, dtype=_DTYPES[prec]).reshape(extents)
        out[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if cur.pos != len(cur.buf):
        raise DomainError("trailing bytes after last record")
    return out


# ---------------------------------------------------------------------------
# Checkpoints: one tensor per parameter plus one int64 metadata record
# ---------------------------------------------------------------------------

def save_checkpoint(path, bank, model, data_seed=0, n_per_class=0):
    arch = bank.filters[0].arch
    meta = dict(
        version=_CKPT_VERSION, arch=_RES_BLOCK, hidden=arch.hidden,
        k_filters=bank.k, bank_seed=bank.seed, image_c=model.image_shape[0],
        image_h=model.image_shape[1], image_w=model.image_shape[2],
        classes=model.k_classes, channels_0=model.channels[0],
        channels_1=model.channels[1], model_seed=model.seed,
        frozen=int(model.frozen), data_seed=data_seed, n_per_class=n_per_class)
    try:
        meta = np.array([meta[k] for k in _META_SLOTS], dtype=np.int64)
    except OverflowError as exc:
        raise DomainError(f"checkpoint metadata outside int64: {exc}") from exc
    tensors = {"__meta__": meta}
    for k in sorted(model.params):
        tensors[f"base.{k}"] = model.params[k]
    for i, f in enumerate(bank.filters):
        if f.arch != arch:
            raise DomainError("checkpoint requires a homogeneous bank")
        for k in sorted(f.params):
            tensors[f"filter{i}.{k}"] = f.params[k]
    write_tensors(path, tensors)


def _meta(tensors):
    """The __meta__ record as {slot name: int}, checked for its length."""
    if "__meta__" not in tensors:
        raise DomainError("checkpoint is missing its metadata record")
    meta = tensors["__meta__"]
    if meta.ndim != 1 or len(meta) < len(_META_SLOTS):
        raise DomainError(f"checkpoint metadata has shape {meta.shape}; "
                          f"it needs {len(_META_SLOTS)} entries")
    return {k: int(v) for k, v in zip(_META_SLOTS, meta)}


def checkpoint_meta(path):
    """Dataset regeneration hints stored alongside the tensors."""
    meta = _meta(read_tensors(path))
    return {
        "classes": meta["classes"],
        "side": meta["image_h"],
        "channels": meta["image_c"],
        "data_seed": meta["data_seed"],
        "n_per_class": meta["n_per_class"],
    }


def load_checkpoint(path):
    """Returns (bank, model) rebuilt from a checkpoint file."""
    tensors = read_tensors(path)
    meta = _meta(tensors)
    if meta["version"] != _CKPT_VERSION:
        raise DomainError(f"unsupported checkpoint version {meta['version']}")
    if meta["arch"] != _RES_BLOCK:
        raise DomainError(f"unknown filter arch code {meta['arch']}; "
                          f"res_block is {_RES_BLOCK}")
    arch = FilterArch(hidden=meta["hidden"])
    k_filters = meta["k_filters"]
    image_shape = (meta["image_c"], meta["image_h"], meta["image_w"])

    base_params = {}
    filt_params = [dict() for _ in range(k_filters)]
    for name, arr in tensors.items():
        if name == "__meta__":
            continue
        group, key = name.split(".", 1)
        if group == "base":
            base_params[key] = arr
        elif group.startswith("filter"):
            idx = int(group[len("filter"):])
            if not 0 <= idx < k_filters:
                raise DomainError(f"filter index {idx} out of range")
            filt_params[idx][key] = arr
        else:
            raise DomainError(f"unrecognized record {name!r}")
    if any(not p for p in filt_params):
        raise DomainError("checkpoint is missing filter parameters")

    model = BaseClassifier(image_shape, meta["classes"], base_params,
                           seed=meta["model_seed"],
                           channels=(meta["channels_0"], meta["channels_1"]))
    if meta["frozen"] == 1:
        model.freeze()
    bank = FilterBank([Filter(arch, p) for p in filt_params],
                      seed=meta["bank_seed"])
    return bank, model
