"""Frozen base classifier and the bank of dimension-preserving filters.

The base model M is a small conv-relu-conv-relu-flatten-dense network that is
pretrained once and then frozen (its arrays are made read-only and a checksum
is pinned). Filters are res_blocks placed in front of M, f(x) = x +
conv(relu(conv(x))), the one filter family; each initializes to the exact
identity, so the ensemble starts at the base model's clean accuracy.

Each network is defined once (base_apply, filter_apply) and evaluated two
ways by the input's type: a Var records on its Tape (wherever gradients are
needed), an array runs tape-free (inference and attack inner loops). Both
call the same forward kernels, so their outputs are bitwise identical.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError
from .rng import rng_from
from .tape import Tape, Var, conv2d, cross_entropy_rows, dense, grad
from .tape import mean_all, relu, reshape
from .tape import _FORWARD

_np_conv = _FORWARD["conv2d"]


def np_conv2d(x, kernel, bias, padding):
    """Tape-free conv forward; same kernel as the taped op, so bitwise equal."""
    y = _np_conv([x, kernel], int(padding))
    return y + np.broadcast_to(bias[None, :, None, None], y.shape)


# (read-only weight, its C-contiguous transpose) from the last np_dense call
_frozen_wt = (None, None)


def np_dense(x, w, b):
    """Tape-free dense forward. A read-only w (a frozen base's weight) is
    taken as constant: its contiguous transpose is copied once, not per call."""
    global _frozen_wt
    if w.flags.writeable:
        wt = np.ascontiguousarray(w.T)
    else:
        src, wt = _frozen_wt
        if src is not w:
            wt = np.ascontiguousarray(w.T)
            _frozen_wt = (w, wt)
    return x @ wt + np.broadcast_to(b, (x.shape[0], b.shape[0]))


def _layers(x):
    """(conv, relu, reshape, dense) for x: taped ops on a Var, tape-free on an
    array. Looked up per call, so a rebound np_conv2d or np_dense is used."""
    if isinstance(x, Var):
        return conv2d, relu, reshape, dense
    return np_conv2d, lambda h: np.maximum(h, 0.0), np.ndarray.reshape, np_dense


def param_checksum(params):
    """Order-independent digest of a name->array mapping."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = params[name]
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def bind_params(tape, params):
    """Record each parameter as a leaf; returns name -> Var."""
    return {name: tape.leaf(params[name]) for name in sorted(params)}


# ---------------------------------------------------------------------------
# Base classifier
# ---------------------------------------------------------------------------

class BaseClassifier:
    """conv(3->c1) relu conv(c1->c2) relu flatten dense(K_classes)."""

    def __init__(self, image_shape, k_classes, params, seed, channels):
        self.image_shape = tuple(image_shape)
        self.k_classes = int(k_classes)
        self.params = params
        self.seed = int(seed)
        self.channels = tuple(channels)
        self.frozen = False
        self.frozen_checksum = None

    def checksum(self):
        return param_checksum(self.params)

    def freeze(self):
        for arr in self.params.values():
            arr.flags.writeable = False
        self.frozen = True
        self.frozen_checksum = self.checksum()
        return self

    def forward_np(self, x):
        return base_apply(self.params, x)


def base_apply(p, x):
    """Base forward on x [N,C,H,W]: taped when x is a Var (p holds bound
    Vars), tape-free when x is an array (p holds the arrays)."""
    conv, act, flatten, fc = _layers(x)
    h = act(conv(x, p["conv1_w"], p["conv1_b"], 1))
    h = act(conv(h, p["conv2_w"], p["conv2_b"], 1))
    flat = flatten(h, (h.shape[0], math.prod(h.shape[1:])))
    return fc(flat, p["fc_w"], p["fc_b"])


def build_base_model(image_shape, K_classes, seed, channels=(16, 32)):
    """Randomly initialized (unfrozen) classifier, deterministic per seed."""
    image_shape = tuple(int(s) for s in image_shape)
    if len(image_shape) != 3 or any(s < 1 for s in image_shape):
        raise DomainError(f"degenerate image shape {image_shape}")
    c, h, w = image_shape
    if K_classes < 2:
        raise DomainError("need at least 2 classes")
    c1, c2 = channels
    rng = rng_from(seed, 11)

    def he(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    params = {
        "conv1_w": he((c1, c, 3, 3), c * 9),
        "conv1_b": np.zeros(c1),
        "conv2_w": he((c2, c1, 3, 3), c1 * 9),
        "conv2_b": np.zeros(c2),
        "fc_w": he((K_classes, c2 * h * w), c2 * h * w),
        "fc_b": np.zeros(K_classes),
    }
    return BaseClassifier(image_shape, K_classes, params, seed, channels)


def pretrain_and_freeze(model, dataset, epochs, lr, batch_size=100):
    """Train by plain cross-entropy (Adam), then freeze.

    dataset is (X [N,C,H,W], y [N]). With epochs=0 the parameters are left
    untouched and the model is frozen as-is.
    """
    from .training import OptimizerState, optimizer_step, sanitize_gradients

    x_all, y_all = dataset
    x_all = np.asarray(x_all, dtype=np.float64)
    y_all = np.asarray(y_all, dtype=np.int64)
    n = x_all.shape[0]
    if n == 0:
        raise DomainError("empty pretraining dataset")

    rng = rng_from(model.seed, 101)
    state = OptimizerState.for_params(model.params)
    for _ in range(int(epochs)):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            tape = Tape()
            pv = bind_params(tape, model.params)
            logits = base_apply(pv, tape.leaf(x_all[idx]))
            loss = mean_all(cross_entropy_rows(logits, y_all[idx]))
            if not np.isfinite(loss.value):
                raise DivergenceError("non-finite pretraining loss")
            gs = grad(tape, loss, list(pv.values()))
            # non-finite gradient entries are zeroed, not raised on
            grads, _ = sanitize_gradients({k: g.value for k, g in zip(pv, gs)})
            optimizer_step(model.params, grads, state, lr, weight_decay=0.0)
    return model.freeze()


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

@dataclass
class FilterArch:
    """The res_block filter family and its hidden width."""
    name: str = "res_block"
    hidden: int = 16

    def __post_init__(self):
        if self.name != "res_block":
            raise DomainError(f"arch must be 'res_block', got {self.name!r}")
        if self.hidden < 1:
            raise DomainError(f"hidden must be at least 1, got {self.hidden}")


@dataclass
class Filter:
    arch: FilterArch
    params: dict = field(default_factory=dict)


def init_filter_identity(arch, seed, channels=3):
    """res_block filter that starts as the exact identity: its second conv
    is zero, so f(x) == x bitwise."""
    if not isinstance(arch, FilterArch):
        arch = FilterArch(arch)
    rng = rng_from(seed, 23)
    c, h = channels, arch.hidden
    a = 0.1 / np.sqrt(c * 9)
    return Filter(arch, {
        "w1": rng.uniform(-a, a, size=(h, c, 3, 3)),
        "b1": np.zeros(h),
        "w2": np.zeros((c, h, 3, 3)),
        "b2": np.zeros(c),
    })


def filter_apply(p, x):
    """Filter forward, taped on a Var x or tape-free on an array (as base_apply)."""
    conv, act, _, _ = _layers(x)
    h = act(conv(x, p["w1"], p["b1"], 1))
    return x + conv(h, p["w2"], p["b2"], 1)


def filter_forward(filt, x):
    """Apply one filter to a taped Var, binding its params fresh."""
    if not isinstance(x, Var):
        raise ShapeError("filter_forward expects a taped Var; use filter_forward_np for arrays")
    return filter_apply(bind_params(x.tape, filt.params), x)


def filter_forward_np(filt, x):
    return filter_apply(filt.params, x)


def filter_param_count(filt):
    return sum(a.size for a in filt.params.values())


@dataclass
class FilterBank:
    filters: list
    seed: int = 0

    @property
    def k(self):
        return len(self.filters)


def build_filter_bank(arch, K, seed, channels=3):
    """K identity-initialized filters with per-filter seed streams."""
    if K < 1:
        raise DomainError("bank needs at least one filter")
    if not isinstance(arch, FilterArch):
        arch = FilterArch(arch)
    filters = [init_filter_identity(arch, [seed, i], channels) for i in range(K)]
    return FilterBank(filters, seed=int(seed))


def sample_filter_index(k, seed):
    """One inference-time draw, uniform over the K trained filters."""
    return int(rng_from(seed).integers(0, k))


def route_rows(counts):
    """Route rows by filter: (i, rows) for every filter i that some row drew.

    counts is an [N, K] filter-draw count matrix; rows holds, in ascending
    order, the rows whose count for filter i is above zero.
    """
    for i in range(counts.shape[1]):
        rows = np.flatnonzero(counts[:, i])
        if rows.size:
            yield i, rows


def routed_forward(bank, model, x, counts):
    """Tape-free logits of each row through the one filter it drew, then M."""
    out = np.empty((x.shape[0], model.k_classes))
    for i, rows in route_rows(counts):
        out[rows] = model.forward_np(filter_forward_np(bank.filters[i], x[rows]))
    return out
