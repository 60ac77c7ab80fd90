"""Consensus matrices, gradient-masking checks, landscapes, transfer tables.

Everything here is read-only over the models and pure given seeds: calling
any function twice with the same arguments returns identical reports.
"""

from dataclasses import dataclass

import numpy as np

from .attacks import (
    _eot_loss_grad, _pipeline_loss_grad, eot_draw_counts, filter_oracle, pgd,
)
from .data import as_xy
from .errors import DomainError
from .losses import (
    DENOM_EPS, NORM_GUARD, bind_bank, draw_input_probes, draw_logit_probes,
    js_component,
)
from .models import filter_forward_np, route_rows
from .rng import rng_from
from .tape import _FORWARD, Tape

DIRECTION_TAG = 47
CONSENSUS_BATCH = 100   # rows per taped pass; bounds tape memory
# the taped op's kernel, bound once as models binds its conv: the tape-free
# EoT loss runs the same arithmetic and is not counted as tape work
_np_logsumexp = _FORWARD["logsumexp_rows"]


def _row_norms(g):
    return np.sqrt(np.sum(g.reshape(g.shape[0], -1) ** 2, axis=1))


def _summary(values):
    """{median, p05, p95} of a 1-D sample."""
    return {
        "median": float(np.median(values)),
        "p05": float(np.percentile(values, 5)),
        "p95": float(np.percentile(values, 95)),
    }


# ---------------------------------------------------------------------------
# Consensus
# ---------------------------------------------------------------------------

@dataclass
class ConsensusReport:
    gamma: np.ndarray
    n_samples: int
    mode: str
    probes: int = 0
    probe_seed: int = 0
    n_zero_grad: int = 0

    def mean_off_diagonal(self):
        k = self.gamma.shape[0]
        if k < 2:
            raise DomainError("need at least two filters for off-diagonal mean")
        mask = ~np.eye(k, dtype=bool)
        return float(self.gamma[mask].mean())

    def to_dict(self):
        return {
            "gamma": self.gamma.tolist(),
            "n_samples": self.n_samples,
            "mode": self.mode,
            "probes": self.probes,
            "probe_seed": self.probe_seed,
            "n_zero_grad": self.n_zero_grad,
        }


def consensus(bank, model, dataset, mode="exact", probes=40, seed=0):
    """Mean pairwise squared-cosine alignment across filter pipelines.

    exact mode aligns full per-sample loss gradients; probed mode averages
    the logit-probe estimator over `probes` seeded probe directions. Each
    pipeline's gradients come from one taped pass per CONSENSUS_BATCH rows.
    Zero-gradient samples contribute 0 to their pairs and are counted.
    """
    x_all, y_all, _ = as_xy(dataset)
    if len(y_all) == 0:
        raise DomainError("consensus needs a nonempty dataset")
    if mode not in ("exact", "probed"):
        raise DomainError(f"unknown consensus mode {mode!r}")
    k = bank.k
    pair_sum = np.zeros((k, k))
    n_zero = 0
    # exact mode is one pass with no probe
    probe_ws = draw_logit_probes(probes, model.k_classes, [seed]) \
        if mode == "probed" else [None]

    for start in range(0, len(y_all), CONSENSUS_BATCH):
        xb = x_all[start:start + CONSENSUS_BATCH]
        yb = y_all[start:start + CONSENSUS_BATCH]
        for w in probe_ws:
            g = np.stack([_pipeline_loss_grad(model, f, xb, yb, w=w)[1]
                          for f in bank.filters]).reshape(k, len(yb), -1)
            norms = np.sqrt(np.sum(g ** 2, axis=2))             # [K, N]
            zero = (norms < NORM_GUARD).any(axis=0)
            n_zero += int(zero.sum())
            cos = np.einsum("ind,jnd->ijn", g, g) / (
                norms[:, None] * norms[None] + DENOM_EPS)
            pair_sum += (cos[:, :, ~zero] ** 2).sum(axis=2)

    upper = np.triu(pair_sum, 1) / (len(y_all) * len(probe_ws))
    return ConsensusReport(gamma=upper + upper.T + np.eye(k),
                           n_samples=len(y_all), mode=mode,
                           probes=probes if mode == "probed" else 0,
                           probe_seed=seed, n_zero_grad=n_zero)


# ---------------------------------------------------------------------------
# EoT loss surface helpers (shared by mismatch and landscapes)
# ---------------------------------------------------------------------------

def _eot_ce_rows(bank, model, x, y, counts, eot_k):
    """sum_i (c_i/M) CE_i per row from [N, K] draw counts c: one tape-free
    forward per drawn filter, over the rows that drew it."""
    losses = np.zeros(x.shape[0])
    for i, rows in route_rows(counts):
        z = model.forward_np(filter_forward_np(bank.filters[i], x[rows]))
        ce = _np_logsumexp([z], None) - z[np.arange(len(z)), y[rows]]
        losses[rows] += counts[rows, i] * ce
    return losses / eot_k


def eot_loss_rows(bank, model, x, y, eot_k, seed=0, step=0, sample_ids=None):
    """Per-row cross-entropy averaged over the EoT filter draws.

    Computed by multiplicity: sum_i (c_i/M) L_i, one tape-free forward per
    drawn filter. Draws are keyed exactly like the EoT oracle's, so the
    value is the function whose gradient eot_oracle returns.
    """
    ids = np.arange(x.shape[0]) if sample_ids is None else sample_ids
    counts = eot_draw_counts(bank.k, eot_k, seed, ids, step)
    return _eot_ce_rows(bank, model, x, y, counts, eot_k)


# ---------------------------------------------------------------------------
# Directional mismatch (finite differences vs analytic slope)
# ---------------------------------------------------------------------------

@dataclass
class MismatchStats:
    etas: tuple
    per_eta: dict          # eta -> {median, mean, p05, p95}
    grad_norms: dict       # {median, p05, p95}
    n_samples: int
    n_dirs: int
    eot_k: int

    def to_dict(self):
        return {
            "etas": list(self.etas),
            "per_eta": {repr(e): self.per_eta[e] for e in self.etas},
            "grad_norms": self.grad_norms,
            "n_samples": self.n_samples,
            "n_dirs": self.n_dirs,
            "eot_k": self.eot_k,
        }


def orthonormal_directions(n_dirs, shape, seed):
    """Gram-Schmidt over seeded Gaussian draws; rows are unit length."""
    d = int(np.prod(shape))
    if n_dirs > d:
        raise DomainError("more directions than dimensions")
    raw = rng_from(seed, DIRECTION_TAG).standard_normal((n_dirs, d))
    basis = []
    for v in raw:
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise DomainError("degenerate direction draw")
        basis.append(v / norm)
    return np.asarray(basis).reshape((n_dirs,) + tuple(shape))


def directional_mismatch(bank, model, dataset, etas=(1e-2, 1e-3, 1e-4),
                         n_dirs=10, eot_k=128, seed=0):
    """|v^T grad - centered finite difference| of the CRN EoT loss.

    Both sides of every difference share the same filter draws; mismatch
    beyond curvature scale indicates the analytic gradient lies about the
    surface the attacker actually sees.
    """
    x_all, y_all, ids = as_xy(dataset)
    dirs = orthonormal_directions(n_dirs, x_all.shape[1:], seed)
    deltas = {e: [] for e in etas}
    norms = []

    for r in range(len(y_all)):
        x = x_all[r:r + 1]
        y = y_all[r:r + 1]
        sid = ids[r:r + 1]
        counts = eot_draw_counts(bank.k, eot_k, seed, sid, 0)
        g = _eot_loss_grad(bank, model, x, y, counts, eot_k, False)[1][0]
        norms.append(float(np.linalg.norm(g)))
        # one batched loss evaluation for all (direction, eta, sign) points,
        # all under the sample's id, so its draws are made once
        pts = np.stack([x[0] + s * e * v for v in dirs for e in etas
                        for s in (1, -1)])
        losses = eot_loss_rows(bank, model, pts, np.full(len(pts), y[0]), eot_k,
                               seed=seed, sample_ids=np.full(len(pts), sid[0]))
        for v, pairs in zip(dirs, losses.reshape(n_dirs, len(etas), 2)):
            slope_true = float(np.vdot(v, g))
            for e, (up, down) in zip(etas, pairs):
                deltas[e].append(abs(slope_true - (up - down) / (2 * e)))

    per_eta = {e: dict(_summary(deltas[e]), mean=float(np.mean(deltas[e])))
               for e in etas}
    return MismatchStats(etas=tuple(etas), per_eta=per_eta,
                         grad_norms=_summary(norms), n_samples=len(y_all),
                         n_dirs=n_dirs, eot_k=eot_k)


def gradient_norm_stats(bank, model, dataset, eot_k=128, seed=0):
    """L2 norms of per-sample EoT input gradients: {median, p05, p95}."""
    x_all, y_all, ids = as_xy(dataset)
    if len(y_all) == 0:
        raise DomainError("gradient_norm_stats needs a nonempty dataset")
    counts = eot_draw_counts(bank.k, eot_k, seed, ids, 0)
    _, g = _eot_loss_grad(bank, model, x_all, y_all, counts, eot_k, False)
    return _summary(_row_norms(g))


# ---------------------------------------------------------------------------
# Loss landscape
# ---------------------------------------------------------------------------

@dataclass
class LandscapeGrid:
    grid: np.ndarray
    tau: float
    grid_n: int
    dir_seed: int
    eot_k: int

    def save_csv(self, path):
        # repr of builtin floats round-trips exactly
        with open(path, "w") as fh:
            fh.write("tau,grid_n,dir_seed,eot_k\n")
            fh.write(f"{float(self.tau)!r},{self.grid_n},"
                     f"{self.dir_seed},{self.eot_k}\n")
            for row in self.grid:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def make_eot_ce_loss(bank, model, y, sample_id, eot_k, seed=0):
    """Single-input scalar loss with its CRN EoT draws baked in: the
    sample's counts are drawn once, here, as eot_loss_rows draws them."""
    yv = np.asarray([int(y)])
    counts = eot_draw_counts(bank.k, eot_k, seed, [int(sample_id)], 0)

    def fn(x):
        return float(_eot_ce_rows(bank, model, x[None], yv, counts, eot_k)[0])
    return fn


def loss_landscape(loss_fn, x, tau, grid_n=41, dir_seed=0, eot_k=0):
    """Scalar loss over x + a*u + b*v for a,b in linspace(-tau, tau, grid_n).

    u, v are seeded orthonormal directions; the center cell is exactly
    loss_fn(x). loss_fn must be pure (CRN draws baked in, as in
    make_eot_ce_loss) so the grid is reproducible; eot_k is only recorded.
    """
    if grid_n % 2 != 1:
        raise DomainError("grid_n must be odd so the center sits on x")
    u, v = orthonormal_directions(2, x.shape, dir_seed)
    offsets = np.linspace(-tau, tau, grid_n)
    grid = np.empty((grid_n, grid_n))
    for a, da in enumerate(offsets):
        for b, db in enumerate(offsets):
            grid[a, b] = loss_fn(x + da * u + db * v)
    return LandscapeGrid(grid=grid, tau=float(tau), grid_n=grid_n,
                         dir_seed=dir_seed, eot_k=eot_k)


# ---------------------------------------------------------------------------
# Transferability
# ---------------------------------------------------------------------------

def transfer_matrix(bank, model, dataset, spec):
    """K x K robust accuracy (%): craft on pipeline i, evaluate pipeline j."""
    if spec.kind != "pgd":
        raise DomainError("transfer matrices are defined for pgd attacks")
    x_all, y_all, _ = as_xy(dataset)
    k = bank.k
    out = np.zeros((k, k))
    for i in range(k):
        x_adv, _ = pgd(filter_oracle(bank, model, i), x_all, y_all, spec)
        for j in range(k):
            z = model.forward_np(filter_forward_np(bank.filters[j], x_adv))
            acc = float(np.mean(z.argmax(axis=1) == y_all))
            out[i, j] = 100.0 * acc
    return out


# ---------------------------------------------------------------------------
# Probe-count variance study
# ---------------------------------------------------------------------------

def probe_variance_study(bank, x_batch, p_list=(2, 5, 10, 20, 40),
                         trials=200, seed=0, epsilon=0.25):
    """Mean/variance of the probed separation estimator per probe count.

    Also reports the Hoeffding bound 2*exp(-2*P*eps^2) next to the empirical
    rate of |estimate - reference| >= eps, where the reference pools every
    trial at every P (the probe-averaged consensus).
    """
    if trials < 30:
        raise DomainError("need at least 30 trials for stable variance")
    if bank.k < 2:
        raise DomainError("probed separation needs K >= 2")
    estimates = {p: [] for p in p_list}
    for p in p_list:
        for t in range(trials):
            tape = Tape()
            xv = tape.leaf(x_batch)
            probes = draw_input_probes(p, x_batch.shape[1:], [seed, p, t])
            val = js_component(tape, bank, xv, probes, bind_bank(tape, bank))
            estimates[p].append(float(val.value))
    reference = float(np.mean([v for p in p_list for v in estimates[p]]))
    rows = []
    for p in p_list:
        arr = np.asarray(estimates[p])
        exceed = float(np.mean(np.abs(arr - reference) >= epsilon))
        rows.append({
            "P": p,
            "mean": float(arr.mean()),
            "variance": float(arr.var(ddof=1)),
            "hoeffding_bound": float(2.0 * np.exp(-2.0 * p * epsilon ** 2)),
            "exceed_rate": exceed,
        })
    return rows
