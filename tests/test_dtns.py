"""Container format and checkpoint round-trips."""

import struct

import numpy as np
import pytest

from drift.dtns import (
    MAGIC, VERSION, checkpoint_meta, load_checkpoint, read_tensors,
    save_checkpoint, write_tensors,
)
from drift.errors import DomainError
from drift.models import build_base_model, build_filter_bank, param_checksum

RNG = np.random.default_rng(9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (7,), (3, 4), (2, 3, 4), (2, 2, 2, 2),
                                   (2, 1, 3, 1, 2)])
def test_round_trip_bitwise_all_ranks(tmp_path, dtype, shape):
    arr = RNG.standard_normal(shape).astype(dtype)
    path = tmp_path / "t.dtns"
    write_tensors(path, {"x": arr})
    back = read_tensors(path)["x"]
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_multiple_records_preserve_order_and_values(tmp_path):
    tensors = {
        "zeta": np.zeros((2, 2)),
        "alpha": RNG.standard_normal(5).astype(np.float32),
        "mid": np.array(3.25),
    }
    path = tmp_path / "t.dtns"
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert list(back) == ["zeta", "alpha", "mid"]
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])


def test_header_layout_is_as_documented(tmp_path):
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "t.dtns"
    write_tensors(path, {"ab": arr})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<H", raw[4:6])[0] == VERSION
    assert struct.unpack("<I", raw[6:10])[0] == 1
    assert struct.unpack("<H", raw[10:12])[0] == 2          # name length
    assert raw[12:14] == b"ab"
    assert raw[14] == 2                                     # rank
    assert struct.unpack("<II", raw[15:23]) == (2, 3)
    assert raw[23] == 8                                     # precision
    assert raw[24:] == arr.astype("<f8").tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dtns"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DomainError):
        read_tensors(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.dtns"
    write_tensors(path, {"x": np.ones(8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(DomainError):
        read_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.dtns"
    write_tensors(path, {"x": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x01")
    with pytest.raises(DomainError):
        read_tensors(path)


def test_unknown_precision_rejected(tmp_path):
    path = tmp_path / "t.dtns"
    with pytest.raises(DomainError):
        write_tensors(path, {"x": np.ones(2, dtype=np.int32)})


def test_int64_round_trips_exactly(tmp_path):
    arr = np.array([[2 ** 53 + 1, -(2 ** 62) - 3], [2 ** 63 - 1, 0]],
                   dtype=np.int64)
    path = tmp_path / "t.dtns"
    write_tensors(path, {"i": arr})
    raw = path.read_bytes()
    assert raw[4:6] == struct.pack("<H", 2)
    assert raw[22] == 0x88                                  # precision
    back = read_tensors(path)["i"]
    assert back.dtype == np.int64 and back.tobytes() == arr.tobytes()


def _as_version_1(path):
    """Rewrite a float-only container as the version-1 file it would have
    been: the record layout is the same, only the version field differs."""
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:])


def test_version_1_rejects_the_int64_code(tmp_path):
    path = tmp_path / "t.dtns"
    write_tensors(path, {"i": np.ones(2, dtype=np.int64)})
    _as_version_1(path)
    with pytest.raises(DomainError, match="precision code"):
        read_tensors(path)


def test_checkpoint_round_trip(tmp_path):
    model = build_base_model((3, 8, 8), 4, seed=2, channels=(4, 8)).freeze()
    bank = build_filter_bank("res_block", 3, seed=6)
    for f in bank.filters:
        for k in f.params:
            f.params[k] = f.params[k] + RNG.standard_normal(f.params[k].shape) * 0.01
    path = tmp_path / "ckpt.dtns"
    save_checkpoint(path, bank, model)
    bank2, model2 = load_checkpoint(path)

    assert model2.frozen and model2.frozen_checksum == model.frozen_checksum
    assert model2.image_shape == model.image_shape
    assert model2.k_classes == model.k_classes
    assert model2.channels == model.channels
    assert model2.seed == model.seed
    assert bank2.k == bank.k and bank2.seed == bank.seed
    assert [param_checksum(f.params) for f in bank2.filters] == \
        [param_checksum(f.params) for f in bank.filters]
    for f1, f2 in zip(bank.filters, bank2.filters):
        assert f2.arch.name == f1.arch.name and f2.arch.hidden == f1.arch.hidden

    x = RNG.uniform(0, 1, size=(5, 3, 8, 8))
    np.testing.assert_array_equal(model2.forward_np(x), model.forward_np(x))


def test_checkpoint_unfrozen_flag_round_trips(tmp_path):
    model = build_base_model((3, 8, 8), 3, seed=1, channels=(4, 8))
    bank = build_filter_bank("res_block", 2, seed=0)
    path = tmp_path / "ckpt.dtns"
    save_checkpoint(path, bank, model)
    _, model2 = load_checkpoint(path)
    assert not model2.frozen


def test_checkpoint_missing_meta_rejected(tmp_path):
    path = tmp_path / "x.dtns"
    write_tensors(path, {"base.fc_w": np.ones((2, 2))})
    with pytest.raises(DomainError):
        load_checkpoint(path)


def test_checkpoint_with_an_unknown_arch_code_is_a_domain_error(tmp_path):
    path, _, _ = _small_checkpoint(tmp_path, 6, 11)
    tensors = read_tensors(path)
    tensors["__meta__"][1] = 7
    write_tensors(path, tensors)
    with pytest.raises(DomainError, match="unknown filter arch code 7"):
        load_checkpoint(path)


def test_checkpoint_with_short_metadata_is_a_domain_error(tmp_path):
    path, _, _ = _small_checkpoint(tmp_path, 6, 11)
    tensors = read_tensors(path)
    tensors["__meta__"] = tensors["__meta__"][:14]
    write_tensors(path, tensors)
    for read in (load_checkpoint, checkpoint_meta):
        with pytest.raises(DomainError, match=r"shape \(14,\); it needs 15"):
            read(path)


def _small_checkpoint(tmp_path, bank_seed, data_seed):
    model = build_base_model((3, 8, 8), 4, seed=2, channels=(4, 8)).freeze()
    bank = build_filter_bank("res_block", 2, seed=bank_seed)
    path = tmp_path / "ckpt.dtns"
    save_checkpoint(path, bank, model, data_seed=data_seed, n_per_class=7)
    return path, bank, model


def test_checkpoint_metadata_is_exact_above_2_53(tmp_path):
    bank_seed, data_seed = 2 ** 53 + 1, 2 ** 55 + 7
    path, bank, _ = _small_checkpoint(tmp_path, bank_seed, data_seed)
    assert read_tensors(path)["__meta__"].dtype == np.int64
    bank2, _ = load_checkpoint(path)
    assert bank2.seed == bank_seed
    meta = checkpoint_meta(path)
    assert meta["data_seed"] == data_seed and meta["n_per_class"] == 7


@pytest.mark.parametrize("bank_seed, data_seed", [(2 ** 63, 0), (0, -2 ** 63 - 1)])
def test_checkpoint_metadata_outside_int64_is_a_domain_error(tmp_path, bank_seed,
                                                             data_seed):
    with pytest.raises(DomainError, match="outside int64"):
        _small_checkpoint(tmp_path, bank_seed, data_seed)
    assert not (tmp_path / "ckpt.dtns").exists()


def test_version_1_checkpoint_still_loads(tmp_path):
    path, bank, model = _small_checkpoint(tmp_path, 6, 11)
    tensors = read_tensors(path)
    tensors["__meta__"] = tensors["__meta__"].astype(np.float64)
    write_tensors(path, tensors)
    _as_version_1(path)
    bank2, model2 = load_checkpoint(path)
    assert bank2.seed == 6
    assert [param_checksum(f.params) for f in bank2.filters] == \
        [param_checksum(f.params) for f in bank.filters]
    assert model2.frozen and model2.frozen_checksum == model.frozen_checksum
    assert checkpoint_meta(path)["data_seed"] == 11
