"""The four training loss components and their weighted total.

Cross-entropy keeps the filtered pipelines accurate. The two separation
terms push squared cosines between probed VJPs toward zero: js_component
compares the filters' own Jacobians, lvjp_component compares full-pipeline
logit gradients (optionally against the unfiltered identity path).
adv_component is a worst-case-filter cross-entropy on points perturbed
against the base model alone.

Each component is a taped builder: given the bank's parameters bound on the
tape by the caller, it returns a Var, and parameter gradients flow, including
through the recorded backward passes that produce the VJPs.

The frozen base's own probe VJPs J_M(z)^T w have no filter-parameter
derivative: its ReLU masks enter the backward as constant leaves. So
lvjp_component computes them off the caller's tape, on a short-lived tape per
base input, and enters them there as constants; only the filters and their
backward passes are recorded on the caller's tape. At batch 50 with K=4 that
tape holds 140 MB after its gradient, against 385 MB with the base on it.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import DomainError, NonFiniteLoss
from .models import base_apply, bind_params, filter_apply
from .rng import rng_from
from .tape import (
    Tape, add, add_const, cross_entropy_rows, div, dot_rows, maximum,
    mean_all, mul, scale, sqrt, vjp,
)


@dataclass
class LossWeights:
    # Low CE weight: the pull toward the (perfect-accuracy) base behavior
    # sets the separation equilibrium, and the clean margin on the desk task
    # leaves plenty of room.
    alpha: float = 0.1
    beta_js: float = 1.0
    beta_lvjp: float = 1.0
    lambda_adv: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta_js", "beta_lvjp", "lambda_adv"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass
class ProbeConfig:
    p_v: int = 2
    p_w: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.p_v < 1 or self.p_w < 1:
            raise DomainError("probe counts must be at least 1")


@dataclass
class LossBreakdown:
    ce: float
    js: float
    lvjp: float
    adv: float
    total: float


NORM_GUARD = 1e-10    # below this, a VJP carries no usable direction
DENOM_EPS = 1e-12


def cos_sq_rows(a, b):
    """Taped per-sample squared cosine: [N, ...] x [N, ...] -> [N].

    The tiny sqrt offset keeps the backward pass finite at zero vectors;
    rows whose norm is below NORM_GUARD are forced to exactly 0 through a
    constant mask (no gradient flows through degenerate rows).
    """
    d = dot_rows(a, b)
    na = sqrt(add_const(dot_rows(a, a), 1e-300))
    nb = sqrt(add_const(dot_rows(b, b), 1e-300))
    r = div(d, add_const(mul(na, nb), DENOM_EPS))
    c = mul(r, r)
    ok = (na.value >= NORM_GUARD) & (nb.value >= NORM_GUARD)
    if not ok.all():
        c = mul(c, a.tape.leaf(ok.astype(np.float64)))
    return c


def draw_input_probes(p, shape, seed):
    """P unit-L2 Gaussian probes in input space, [P, *shape]."""
    rng = rng_from(seed, 41)
    v = rng.standard_normal((p,) + tuple(shape))
    flat = v.reshape(p, -1)
    return (flat / np.linalg.norm(flat, axis=1, keepdims=True)).reshape(v.shape)


def draw_logit_probes(p, k, seed):
    """P unit-L2 Gaussian probes in logit space, [P, k]."""
    rng = rng_from(seed, 43)
    w = rng.standard_normal((p, k))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _mean_of(terms):
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return scale(out, 1.0 / len(terms))


# ---------------------------------------------------------------------------
# Taped component builders
# ---------------------------------------------------------------------------

def bind_bank(tape, bank):
    return [bind_params(tape, f.params) for f in bank.filters]


def _filter_outputs(x_var, bank_pvars):
    return [filter_apply(pv, x_var) for pv in bank_pvars]


def _logits(tape, model, x_var, bank_pvars):
    """Binds the base once; returns [M(f_i(x)) for each filter]."""
    model_pvars = bind_params(tape, model.params)
    return [base_apply(model_pvars, filter_apply(pv, x_var))
            for pv in bank_pvars]


def _base_vjps(model, z, cots):
    """[J_M(z)^T c for c in cots] as arrays, from one base forward on a tape
    of its own that is dropped on return.

    The base is frozen and its ReLU masks enter the backward as constant
    leaves, so the derivative of these VJPs in z, and in anything upstream
    of it, is zero almost everywhere; a caller enters them as constants.
    """
    tape = Tape()
    z_var = tape.leaf(z)
    logits = base_apply(bind_params(tape, model.params), z_var)
    return [vjp(tape, logits, c, [z_var])[0].value for c in cots]


def _probed_cos_sq(tape, outs, x_var, cots, anchors=None):
    """Per probe, batch-mean cos^2 of the outputs' VJPs: every pair i<j and,
    given anchor VJPs, each output against the probe's anchor.

    cots[p][i] is output i's cotangent at probe p; anchors[p] is the anchor
    path's VJP at probe p, entered as a constant. Returns (pair terms, anchor
    terms) as lists of scalar Vars, recorded probe by probe, the outputs'
    VJPs in order, pair terms before anchor terms.
    """
    pair_terms, anchor_terms = [], []
    for p, cot_p in enumerate(cots):
        us = [vjp(tape, z, c, [x_var])[0] for z, c in zip(outs, cot_p)]
        pair_terms.extend(mean_all(cos_sq_rows(a, b))
                          for a, b in combinations(us, 2))
        if anchors is not None:
            u_anchor = tape.leaf(anchors[p])
            anchor_terms.extend(mean_all(cos_sq_rows(u, u_anchor)) for u in us)
    return pair_terms, anchor_terms


def _batched(probes, n):
    """Each probe repeated over a batch of n rows."""
    return [np.broadcast_to(p, (n,) + p.shape).copy() for p in probes]


def ce_component(tape, model, x_var, y, bank_pvars):
    """Mean over batch and filters of CE(M(f_i(x)), y)."""
    logits = _logits(tape, model, x_var, bank_pvars)
    return _mean_of([mean_all(cross_entropy_rows(z, y)) for z in logits])


def js_component(tape, bank, x_var, probes_v, bank_pvars):
    """Mean squared cosine between filter-Jacobian VJPs over pairs i<j.

    probes_v: [P, C, H, W] array, shared by every pair and sample. Returns
    None when the bank has fewer than two filters (nothing to compare).
    """
    if bank.k < 2:
        return None
    outs = _filter_outputs(x_var, bank_pvars)
    cots = [[c] * bank.k for c in _batched(probes_v, x_var.value.shape[0])]
    pair_terms, _ = _probed_cos_sq(tape, outs, x_var, cots)
    return _mean_of(pair_terms)


def lvjp_component(tape, model, x_var, probes_w, bank_pvars,
                   include_identity=True):
    """Mean squared cosine between logit-probed input gradients.

    Pairwise terms over filters i<j plus, when include_identity, terms
    against the unfiltered path M(x); the two groups get equal weight.
    Returns None when no group has any term.

    Only the filters are recorded on `tape`. The logit probes are pulled
    back through the frozen base off it (`_base_vjps`), and enter as the
    filter outputs' cotangents and, for M(x), as constant anchors.
    """
    cots = _batched(probes_w, x_var.value.shape[0])
    outs = _filter_outputs(x_var, bank_pvars)
    per_out = [_base_vjps(model, o.value, cots) for o in outs]
    anchors = _base_vjps(model, x_var.value, cots) if include_identity else None
    groups = [_mean_of(t) for t in _probed_cos_sq(
        tape, outs, x_var, list(zip(*per_out)), anchors) if t]
    return _mean_of(groups) if groups else None


def adv_component(tape, model, xadv_var, y, bank_pvars):
    """Mean over batch of the worst per-filter CE on perturbed inputs."""
    logits = _logits(tape, model, xadv_var, bank_pvars)
    return mean_all(reduce(maximum, [cross_entropy_rows(z, y) for z in logits]))


def total_loss(weights, ce, js=None, lvjp=None, adv=None):
    """Weighted sum; None components (skipped/warmup-inactive) count as 0."""
    parts = {"ce": ce, "js": js, "lvjp": lvjp, "adv": adv}
    for name, v in parts.items():
        if v is not None and not np.isfinite(v):
            raise NonFiniteLoss(f"{name} component is non-finite: {v}")
    ce_v = float(ce)
    js_v = float(js) if js is not None else 0.0
    lv_v = float(lvjp) if lvjp is not None else 0.0
    ad_v = float(adv) if adv is not None else 0.0
    total = (weights.alpha * ce_v + weights.beta_js * js_v
             + weights.beta_lvjp * lv_v + weights.lambda_adv * ad_v)
    return LossBreakdown(ce_v, js_v, lv_v, ad_v, total)
