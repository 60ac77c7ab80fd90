"""The four training loss components and their weighted total.

Cross-entropy keeps the filtered pipelines accurate. The two separation
terms push squared cosines between probed VJPs toward zero: loss_js compares
the filters' own Jacobians, loss_lvjp compares full-pipeline logit
gradients (optionally against the unfiltered identity path). loss_adv is a
worst-case-filter cross-entropy on points perturbed against the base model
alone.

Each component has a taped builder (given the bank's parameters bound on the
tape by the caller, it returns a Var; parameter gradients flow, including
through the recorded backward passes that produce the VJPs) and a plain float
wrapper with the public signature.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import BudgetError, DomainError, NonFiniteLoss, ShapeError
from .models import base_apply, bind_params, filter_apply
from .rng import rng_from
from .tape import (
    Tape, add, add_const, cross_entropy_rows, div, dot_rows, maximum,
    mean_all, mul, scale, sqrt, vjp,
)


@dataclass
class LossWeights:
    alpha: float = 1.0
    beta_js: float = 0.5
    beta_lvjp: float = 0.5
    lambda_adv: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta_js", "beta_lvjp", "lambda_adv"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass
class ProbeConfig:
    p_v: int = 5
    p_w: int = 5
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


def cos_sq(a, b):
    """Squared cosine of two arrays; 0 when either is numerically zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cos_sq: shapes {a.shape} and {b.shape} differ")
    na = np.linalg.norm(a.ravel())
    nb = np.linalg.norm(b.ravel())
    if na < NORM_GUARD or nb < NORM_GUARD:
        return 0.0
    r = float(np.vdot(a, b)) / (na * nb + DENOM_EPS)
    return r * r


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


def _logits(tape, bank, model, x_var, bank_pvars):
    """Binds the base once; returns (its Vars, [M(f_i(x)) for each filter])."""
    model_pvars = bind_params(tape, model.params)
    return model_pvars, [base_apply(model_pvars, filter_apply(f.arch, pv, x_var))
                         for f, pv in zip(bank.filters, bank_pvars)]


def _probed_cos_sq(tape, outs, x_var, probes, anchor=None):
    """Per probe, batch-mean cos^2 of the outputs' VJPs: every pair i<j and,
    given an anchor output, each output against the anchor.

    Returns (pair terms, anchor terms) as lists of scalar Vars. Per probe the
    VJPs are taken over the outputs in order, then the anchor's.
    """
    n = x_var.value.shape[0]
    pair_terms, anchor_terms = [], []
    for p in probes:
        cot = np.broadcast_to(p, (n,) + p.shape).copy()
        us = [vjp(tape, z, cot, [x_var])[0] for z in outs]
        pair_terms.extend(mean_all(cos_sq_rows(a, b))
                          for a, b in combinations(us, 2))
        if anchor is not None:
            u_anchor = vjp(tape, anchor, cot, [x_var])[0]
            anchor_terms.extend(mean_all(cos_sq_rows(u, u_anchor)) for u in us)
    return pair_terms, anchor_terms


def ce_component(tape, bank, model, x_var, y, bank_pvars):
    """Mean over batch and filters of CE(M(f_i(x)), y)."""
    _, logits = _logits(tape, bank, model, x_var, bank_pvars)
    return _mean_of([mean_all(cross_entropy_rows(z, y)) for z in logits])


def js_component(tape, bank, x_var, probes_v, bank_pvars):
    """Mean squared cosine between filter-Jacobian VJPs over pairs i<j.

    probes_v: [P, C, H, W] array, shared by every pair and sample. Returns
    None when the bank has fewer than two filters (nothing to compare).
    """
    if bank.k < 2:
        return None
    outs = [filter_apply(f.arch, pv, x_var)
            for f, pv in zip(bank.filters, bank_pvars)]
    pair_terms, _ = _probed_cos_sq(tape, outs, x_var, probes_v)
    return _mean_of(pair_terms)


def lvjp_component(tape, bank, model, x_var, probes_w, bank_pvars,
                   include_identity=True):
    """Mean squared cosine between logit-probed input gradients.

    Pairwise terms over filters i<j plus, when include_identity, terms
    against the unfiltered path M(x); the two groups get equal weight.
    Returns None when no group has any term.
    """
    model_pvars, logits = _logits(tape, bank, model, x_var, bank_pvars)
    anchor = base_apply(model_pvars, x_var) if include_identity else None
    groups = [_mean_of(t) for t in _probed_cos_sq(tape, logits, x_var,
                                                   probes_w, anchor) if t]
    return _mean_of(groups) if groups else None


def adv_component(tape, bank, model, xadv_var, y, bank_pvars):
    """Mean over batch of the worst per-filter CE on perturbed inputs."""
    _, logits = _logits(tape, bank, model, xadv_var, bank_pvars)
    return mean_all(reduce(maximum, [cross_entropy_rows(z, y) for z in logits]))


# ---------------------------------------------------------------------------
# Public float-valued ops
# ---------------------------------------------------------------------------

def loss_ce(bank, model, batch):
    x, y = batch
    if np.asarray(x).shape[0] == 0:
        raise DomainError("empty batch")
    tape = Tape()
    return float(ce_component(tape, bank, model, tape.leaf(x), y,
                              bind_bank(tape, bank)).value)


def loss_js(bank, x_batch, probes):
    """None signals 'skipped' (K < 2); callers treat that as 0 weight."""
    if bank.k < 2:
        return None
    x_batch = np.asarray(x_batch, dtype=np.float64)
    v = draw_input_probes(probes.p_v, x_batch.shape[1:], probes.seed)
    tape = Tape()
    out = js_component(tape, bank, tape.leaf(x_batch), v, bind_bank(tape, bank))
    return float(out.value)


def loss_lvjp(bank, model, x_batch, probes, include_identity=True):
    x_batch = np.asarray(x_batch, dtype=np.float64)
    w = draw_logit_probes(probes.p_w, model.k_classes, probes.seed)
    tape = Tape()
    out = lvjp_component(tape, bank, model, tape.leaf(x_batch), w,
                         bind_bank(tape, bank), include_identity)
    return None if out is None else float(out.value)


def loss_adv(bank, model, batch, delta_M, eps):
    x, y = batch
    x = np.asarray(x, dtype=np.float64)
    delta_M = np.asarray(delta_M, dtype=np.float64)
    if delta_M.shape != x.shape:
        raise ShapeError("delta_M must match the batch shape")
    if np.abs(delta_M).max() > eps + 1e-12:
        raise BudgetError(
            f"|delta|_inf = {np.abs(delta_M).max():.6g} exceeds eps = {eps:.6g}")
    xadv = np.clip(x + delta_M, 0.0, 1.0)
    tape = Tape()
    return float(adv_component(tape, bank, model, tape.leaf(xadv), y,
                               bind_bank(tape, bank)).value)


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
