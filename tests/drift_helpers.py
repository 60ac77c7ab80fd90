"""Shared constructions: hand-solvable filters and linear pipelines.

ReLU layers are pinned into their linear region with large positive biases
that later layers subtract, so these filters and models compute exact linear
maps on [0,1] inputs while using the ordinary network code paths.
"""

import numpy as np

from drift.losses import DENOM_EPS, NORM_GUARD
from drift.models import BaseClassifier, Filter, FilterArch, FilterBank

BIG = 10.0  # bias pinning every ReLU into its linear region on [0,1] inputs


def cos_sq(a, b):
    """Scalar squared cosine of two same-shape arrays; 0 when either is
    numerically zero. The reference the taped cos_sq_rows and the consensus
    are held to."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    assert a.shape == b.shape
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < NORM_GUARD or nb < NORM_GUARD:
        return 0.0
    r = float(np.vdot(a, b)) / (na * nb + DENOM_EPS)
    return r * r


def delta_kernel(c_out, c_in):
    k = np.zeros((c_out, c_in, 3, 3))
    for c in range(min(c_out, c_in)):
        k[c, c, 1, 1] = 1.0
    return k


def affine_res_filter(a_kernel, hidden_gain=1.0):
    """res_block computing the exact linear map x + (A - I)x = A x on [0,1].

    a_kernel is the 3x3 conv kernel of A, shape [C, C, 3, 3]. The hidden
    conv computes (A - I)x + BIG (ReLU inactive), the second conv is a delta
    that subtracts BIG again.
    """
    c = a_kernel.shape[0]
    w1 = hidden_gain * (a_kernel - delta_kernel(c, c))
    params = {
        "w1": w1,
        "b1": np.full(c, BIG),
        "w2": delta_kernel(c, c) / hidden_gain,
        "b2": np.full(c, -BIG / hidden_gain),
    }
    return Filter(FilterArch("res_block", hidden=c), params)


def identity_filter(c=3):
    return affine_res_filter(delta_kernel(c, c))


def negation_filter(c=3):
    """f(x) == -x on [0,1] inputs."""
    return affine_res_filter(-delta_kernel(c, c))


def projection_filter(channels_kept, c=3):
    """f(x) keeps a channel subset and zeroes the rest (input gradient
    exactly zero there)."""
    k = np.zeros((c, c, 3, 3))
    for ch in channels_kept:
        k[ch, ch, 1, 1] = 1.0
    return affine_res_filter(k)


def linear_base_model(h, w, c=1):
    """Frozen base whose logits are x_flat + const, so grad(<logits, u>) = u."""
    d = c * h * w
    params = {
        "conv1_w": delta_kernel(c, c),
        "conv1_b": np.full(c, BIG),
        "conv2_w": delta_kernel(c, c),
        "conv2_b": np.full(c, BIG),
        "fc_w": np.eye(d),
        "fc_b": np.zeros(d),
    }
    m = BaseClassifier((c, h, w), d, params, seed=0, channels=(c, c))
    return m.freeze()


def linear_logit_model(h, w, fc_w, c=1):
    """Frozen base with logits = fc_w @ (x_flat + 2*BIG)."""
    d = c * h * w
    fc_w = np.asarray(fc_w, dtype=np.float64)
    params = {
        "conv1_w": delta_kernel(c, c),
        "conv1_b": np.full(c, BIG),
        "conv2_w": delta_kernel(c, c),
        "conv2_b": np.full(c, BIG),
        "fc_w": fc_w,
        "fc_b": np.zeros(fc_w.shape[0]),
    }
    m = BaseClassifier((c, h, w), fc_w.shape[0], params, seed=0, channels=(c, c))
    return m.freeze()


def micro_bank(n_filters=2, seed=0, hidden=4, c=3, jitter=0.05):
    """Small trained-looking bank: identity init plus random jitter."""
    from drift.models import init_filter_identity
    rng = np.random.default_rng(seed)
    filters = []
    for i in range(n_filters):
        f = init_filter_identity(FilterArch("res_block", hidden=hidden), [seed, i], c)
        for k in f.params:
            f.params[k] = f.params[k] + jitter * rng.standard_normal(f.params[k].shape)
        filters.append(f)
    return FilterBank(filters, seed=seed)
