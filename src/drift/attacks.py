"""White-box, black-box, and adaptive attacks on filtered pipelines.

All attacks take a batch [N,C,H,W] (an unbatched image raises ShapeError);
batch rows are independent (per-sample seed streams keyed by sample id, so
results do not depend on batching or scheduling). Perturbations start at
zero (no random restart), every iterate is projected onto the norm ball
intersected with the [0,1] pixel box, and non-finite oracle gradients are
zeroed rather than aborting.

Gradient oracles package the threat model: base-only (the defense ignored),
a single fixed filter, or the EoT mixture over sampled filters, optionally
with the backward pass through the filter replaced by identity (BPDA).
EoT draws are common random numbers: draw j of a sample at step t is keyed
(seed, sample id, t, j), so every call at the same point sees the same
filters. One function draws them (eot_draw_counts); the mixture is then
taken by multiplicity, taped here (_eot_loss_grad) or tape-free in
diagnostics (_eot_ce_rows).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, ShapeError
from .models import (
    base_apply, bind_params, filter_forward, filter_forward_np, route_rows,
    routed_forward, sample_filter_index,
)
from .rng import rng_from
from .tape import Tape, cross_entropy_rows, dot_rows, grad, sum_all

EOT_TAG = 53
SQUARE_TAG = 61


@dataclass
class AttackSpec:
    kind: str = "pgd"
    norm: str = "linf"
    epsilon: float = 8 / 255
    steps: int = 40
    step_size: float = None
    momentum_decay: float = 1.0
    eot_samples: int = 0      # 0 = non-adaptive (oracle chosen by caller)
    bpda_identity: bool = False
    query_budget: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("pgd", "mim", "square"):
            raise DomainError(f"unknown attack kind {self.kind!r}")
        if self.norm not in ("linf", "l2"):
            raise DomainError(f"unknown norm {self.norm!r}")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.steps < 1:
            raise DomainError("steps must be at least 1")
        if self.step_size is None:
            self.step_size = self.epsilon / 10
        if self.step_size <= 0:
            raise DomainError("step_size must be positive")
        if self.eot_samples < 0:
            raise DomainError("eot_samples must be nonnegative")
        if self.query_budget < 0:
            raise DomainError("query_budget must be nonnegative")
        if self.bpda_identity and self.eot_samples < 1:
            raise DomainError("bpda_identity needs eot_samples >= 1")
        if self.kind == "square" and self.eot_samples:
            raise DomainError("square scores one filter draw per query; "
                              "eot_samples must be 0")
        if self.kind in ("mim", "square") and self.norm != "linf":
            raise DomainError(f"{self.kind} is defined for the linf norm")


@dataclass
class GradientOracle:
    """Callable (x, y, step) -> (per-sample loss [N], grad [N,...])."""
    kind: str
    fn: object

    def __call__(self, x, y, step):
        return self.fn(x, y, step)


def _check_batch(x, y):
    """A float64 copy of the batch x [N,C,H,W] in [0,1]; y as int64 labels."""
    x = np.array(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"attacks expect a batch [N,C,H,W], got shape {x.shape}")
    if x.min() < -1e-12 or x.max() > 1 + 1e-12:
        raise DomainError("attack inputs must lie in [0,1]")
    return x, np.asarray(y, dtype=np.int64)


def _pipeline_loss_grad(model, filt, x, y, bpda=False, w=None):
    """Per-sample loss and input gradient through (optional filter) + base.

    The loss is CE, or given a logit probe w [classes], <logits, w>. With
    bpda the filter runs forward tape-free and its backward is taken as the
    identity.
    """
    if bpda and filt is not None:
        x, filt = filter_forward_np(filt, x), None
    tape = Tape()
    xv = tape.leaf(x)
    z = filter_forward(filt, xv) if filt is not None else xv
    logits = base_apply(bind_params(tape, model.params), z)
    if w is None:
        loss = cross_entropy_rows(logits, y)
    else:
        loss = dot_rows(logits, tape.leaf(np.broadcast_to(w, logits.value.shape)))
    (g,) = grad(tape, sum_all(loss), [xv])
    return loss.value.copy(), g.value


def base_oracle(model):
    """Threat model: attacker differentiates the undefended base model."""
    def fn(x, y, step):
        return _pipeline_loss_grad(model, None, x, y)
    return GradientOracle("base", fn)


def filter_oracle(bank, model, index):
    """Threat model: attacker knows and differentiates one fixed filter."""
    if not 0 <= index < bank.k:
        raise DomainError(f"filter index {index} out of range")
    filt = bank.filters[index]

    def fn(x, y, step):
        return _pipeline_loss_grad(model, filt, x, y)
    return GradientOracle(f"filter[{index}]", fn)


def draw_counts(k, keys):
    """[N, K] filter-draw counts: one sample_filter_index call per draw.

    keys[r] lists the seeds of row r's draws; counts[r, i] is how many of
    them picked filter i.
    """
    counts = np.zeros((len(keys), k), dtype=np.int64)
    for r, row_keys in enumerate(keys):
        for key in row_keys:
            counts[r, sample_filter_index(k, key)] += 1
    return counts


def eot_draw_counts(k, eot_samples, seed, sample_ids, step):
    """EoT draw counts; draw j of a row is keyed (seed, sample id, step, j).
    Rows that share a sample id share every key, so each distinct id is
    drawn once."""
    if eot_samples < 1:
        raise DomainError("need at least one EoT sample")
    ids, row_of = np.unique(np.asarray(sample_ids), return_inverse=True)
    return draw_counts(k, [[[seed, EOT_TAG, int(s), step, j]
                            for j in range(eot_samples)] for s in ids])[row_of]


def _eot_loss_grad(bank, model, x, y, counts, eot_samples, bpda):
    """sum_i (c_i/M) (L_i, grad L_i) from [N, K] draw counts c: one taped
    pass per drawn filter i, over the rows that drew it."""
    loss = np.zeros(x.shape[0])
    g = np.zeros_like(x)
    for i, rows in route_rows(counts):
        c = counts[rows, i]
        loss_i, g_i = _pipeline_loss_grad(model, bank.filters[i], x[rows],
                                          y[rows], bpda)
        loss[rows] += c * loss_i
        g[rows] += c.reshape(-1, *([1] * (x.ndim - 1))) * g_i
    return loss / eot_samples, g / eot_samples


def eot_oracle(bank, model, eot_samples, seed=0, sample_ids=None, bpda=False):
    """Adaptive threat model: EoT mixture gradient, optional BPDA backward.

    Loss and gradient are sum_i (c_i/M) (L_i, grad L_i) over the filters
    the M draws landed on, one taped pass per drawn filter. The draws are
    those of eot_loss_rows at the same (seed, sample id, step), so two calls
    at the same step return the same loss and gradient.
    """
    def fn(x, y, step):
        ids = np.arange(x.shape[0]) if sample_ids is None else sample_ids
        counts = eot_draw_counts(bank.k, eot_samples, seed, ids, step)
        return _eot_loss_grad(bank, model, x, y, counts, eot_samples, bpda)
    name = f"eot{eot_samples}" + ("+bpda" if bpda else "")
    return GradientOracle(name, fn)


# ---------------------------------------------------------------------------
# First-order attacks
# ---------------------------------------------------------------------------

def _project(delta, x0, spec):
    if spec.norm == "linf":
        delta = np.clip(delta, -spec.epsilon, spec.epsilon)
    else:
        flat = delta.reshape(delta.shape[0], -1)
        norms = np.linalg.norm(flat, axis=1)
        factor = np.minimum(1.0, spec.epsilon / np.maximum(norms, 1e-300))
        delta = delta * factor.reshape(-1, *([1] * (delta.ndim - 1)))
    # the box clip can only shrink coordinates, so the ball constraint holds
    return np.clip(x0 + delta, 0.0, 1.0) - x0


def _ascend(oracle, x, y, spec, direction):
    """Projected ascent from delta = 0, moving by direction(g) each step;
    returns (x_adv, delta). Non-finite gradient entries are zeroed."""
    x0, yb = _check_batch(x, y)
    delta = np.zeros_like(x0)
    for t in range(spec.steps):
        _, g = oracle(x0 + delta, yb, t)
        bad = ~np.isfinite(g)
        if bad.any():
            g = np.where(bad, 0.0, g)
        delta = _project(delta + direction(g), x0, spec)
    return x0 + delta, delta


def pgd(oracle, x, y, spec):
    """Projected gradient ascent on the oracle's loss; returns (x_adv, delta)."""
    def direction(g):
        if spec.norm == "linf":
            return spec.step_size * np.sign(g)
        flat = g.reshape(g.shape[0], -1)
        norms = np.maximum(np.linalg.norm(flat, axis=1), 1e-300)
        return spec.step_size * g / norms.reshape(-1, *([1] * (g.ndim - 1)))
    return _ascend(oracle, x, y, spec, direction)


def mim(oracle, x, y, spec):
    """Momentum iterative method; l_inf stepping and projection only."""
    m = 0.0  # the momentum; a scalar zero broadcasts like zeros_like(x)

    def direction(g):
        nonlocal m
        flat = np.abs(g).reshape(g.shape[0], -1)
        l1 = np.maximum(flat.sum(axis=1), 1e-300)
        m = spec.momentum_decay * m + g / l1.reshape(-1, *([1] * (g.ndim - 1)))
        return spec.step_size * np.sign(m)
    return _ascend(oracle, x, y, spec, direction)


# ---------------------------------------------------------------------------
# Square attack (black-box random search)
# ---------------------------------------------------------------------------

SQUARE_SIDE_FRACTIONS = (0.5, 0.25, 0.1, 0.05)
SQUARE_BREAKPOINTS = (0.0, 0.2, 0.5, 0.8)


def _square_side(q_frac, side):
    frac = SQUARE_SIDE_FRACTIONS[0]
    for f, bp in zip(SQUARE_SIDE_FRACTIONS, SQUARE_BREAKPOINTS):
        if q_frac >= bp:
            frac = f
    return max(1, int(round(frac * side)))


def square_attack(score_fn, x, y, spec, sample_ids=None):
    """Greedy random-square search against a (possibly stochastic) score.

    score_fn(x_rows, y_rows, row_seeds) returns the per-row margin
    (true-class logit minus best other); negative margin = misclassified.
    Accepts a proposal only when the margin strictly decreases. Returns
    (x_adv, success flags, queries_used).
    """
    x0, yb = _check_batch(x, y)
    n, c, h, w = x0.shape
    ids = np.arange(n) if sample_ids is None else np.asarray(sample_ids)
    if spec.query_budget < 1:
        return x0, np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)

    delta = np.zeros_like(x0)
    queries = np.ones(n, dtype=np.int64)
    margins = score_fn(x0, yb, [[spec.seed, SQUARE_TAG, int(s), 0] for s in ids])
    success = margins < 0
    active = ~success

    for q in range(1, spec.query_budget):
        if not active.any():
            break
        side = _square_side(q / spec.query_budget, min(h, w))
        rows = np.flatnonzero(active)
        props = np.empty((rows.size, c, h, w))
        for r, n_i in enumerate(rows):
            rng = rng_from(spec.seed, SQUARE_TAG, ids[n_i], q)
            top = int(rng.integers(0, h - side + 1))
            left = int(rng.integers(0, w - side + 1))
            signs = rng.integers(0, 2, size=c) * 2.0 - 1.0
            d = delta[n_i].copy()
            d[:, top:top + side, left:left + side] = (
                spec.epsilon * signs[:, None, None])
            props[r] = d
        x_prop = np.clip(x0[rows] + props, 0.0, 1.0)
        seeds = [[spec.seed, SQUARE_TAG, int(ids[i]), q] for i in rows]
        m_prop = score_fn(x_prop, yb[rows], seeds)
        queries[rows] += 1
        better = m_prop < margins[rows]
        take = rows[better]
        delta[take] = x_prop[better] - x0[take]
        margins[take] = m_prop[better]
        newly = margins < 0
        success |= newly
        active &= ~newly

    return np.clip(x0 + delta, 0.0, 1.0), success, queries


def ensemble_margin_score(bank, model):
    """Stochastic defended margin: one filter draw per row per query."""
    def score(x, y, row_seeds):
        counts = draw_counts(bank.k, [[s] for s in row_seeds])
        return _margins(routed_forward(bank, model, x, counts), y)
    return score


def _margins(logits, y):
    n = logits.shape[0]
    true = logits[np.arange(n), y]
    rest = logits.copy()
    rest[np.arange(n), y] = -np.inf
    return true - rest.max(axis=1)


def adaptive_attack(bank, model, x, y, spec):
    """EoT (optionally BPDA) gradient attack on the defended ensemble."""
    if spec.eot_samples < 1:
        raise DomainError("adaptive attack needs eot_samples >= 1")
    if spec.kind not in ("pgd", "mim"):
        raise DomainError("adaptive attack drives pgd or mim")
    oracle = eot_oracle(bank, model, spec.eot_samples, seed=spec.seed,
                        bpda=spec.bpda_identity)
    runner = pgd if spec.kind == "pgd" else mim
    return runner(oracle, x, y, spec)


def check_budget(delta, spec):
    """Raise unless delta satisfies the spec's ball constraint exactly."""
    d = delta if delta.ndim == 4 else delta[None]
    if spec.norm == "linf":
        worst = np.abs(d).max()
        if worst > spec.epsilon * (1 + 1e-9):
            raise BudgetError(f"linf budget violated: {worst} > {spec.epsilon}")
    else:
        norms = np.linalg.norm(d.reshape(d.shape[0], -1), axis=1)
        if norms.max() > spec.epsilon * (1 + 1e-9):
            raise BudgetError(f"l2 budget violated: {norms.max()} > {spec.epsilon}")
