"""Joint filter-bank training against the composite objective.

Per batch: cross-entropy always; the Jacobian-separation term after its
warmup (and only with K >= 2); the logit-VJP separation term after its
warmup; the worst-case-filter term on base-model PGD points after its
warmup. Component gradients are computed on separate tapes (bounds peak
memory), weighted, summed, sanitized, globally clipped, and applied with
AdamW. The base model is frozen throughout; only filter parameters move.
At batch 50 with K=4 the tapes hold ce 160, js 125, lvjp 140 and adv 160 MB
after their gradients; the lvjp term pulls its probes back through the base
on short-lived tapes of 50 MB each.
"""

import csv
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .attacks import AttackSpec, base_oracle, pgd
from .errors import DivergenceError, DomainError, NonFiniteLoss
from .losses import (
    LossBreakdown, LossWeights, ProbeConfig, adv_component, bind_bank,
    ce_component, draw_input_probes, draw_logit_probes, js_component,
    lvjp_component, total_loss,
)
from .rng import rng_from
from .tape import Tape, grad

EPOCH_TAG = 71

# Per epoch: its number, the means of each LossBreakdown field and of the
# pre-clip gradient norm over the epoch's finite batches, and the count of
# gradient entries sanitized.
LOG_FIELDS = ("epoch", *(f.name for f in fields(LossBreakdown)), "grad_norm",
              "n_sanitized")


@dataclass
class TrainConfig:
    epochs: int = 14
    batch_size: int = 50
    lr: float = 1e-3
    weight_decay: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    # Short adversarial tail: the worst-filter term re-aligns the bank fast
    # once active.
    w_js: int = 1
    w_lvjp: int = 1
    w_adv: int = 12
    pgd_epsilon: float = 4 / 255
    pgd_steps: int = 10
    pgd_step_size: float = None   # defaults to epsilon / steps
    probes: ProbeConfig = field(default_factory=ProbeConfig)
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise DomainError("bad epochs/batch_size")
        for w in (self.w_js, self.w_lvjp, self.w_adv):
            if self.epochs and w > self.epochs:
                raise DomainError("warmups must not exceed epochs")
        if self.pgd_steps < 1:
            raise DomainError(f"pgd_steps must be at least 1, got {self.pgd_steps}")
        if self.pgd_step_size is None:
            self.pgd_step_size = self.pgd_epsilon / self.pgd_steps
        if self.clip_norm <= 0:
            raise DomainError("clip_norm must be positive")


@dataclass
class OptimizerState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls({k: np.zeros_like(a) for k, a in params.items()},
                   {k: np.zeros_like(a) for k, a in params.items()})


def sanitize_gradients(grads):
    """Replace NaN/Inf entries with 0; returns (grads, replaced count)."""
    n = 0
    out = {}
    for k, g in grads.items():
        bad = ~np.isfinite(g)
        if bad.any():
            n += int(bad.sum())
            g = np.where(bad, 0.0, g)
        out[k] = g
    return out, n


def global_grad_norm(grads):
    return float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))


def clip_gradients(grads, max_norm):
    """Scale so the global L2 norm across all tensors is at most max_norm."""
    if max_norm <= 0:
        raise DomainError("max_norm must be positive")
    total = global_grad_norm(grads)
    if total <= max_norm:
        return grads
    factor = max_norm / total
    return {k: g * factor for k, g in grads.items()}


def optimizer_step(params, grads, state, lr, weight_decay,
                   betas=(0.9, 0.999), eps=1e-8):
    """AdamW: adaptive moments with bias correction, decoupled decay."""
    b1, b2 = betas
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DomainError(f"non-finite gradient for {k}; sanitize first")
        if g.shape != params[k].shape:
            raise DomainError(f"gradient shape mismatch for {k}")
    state.t += 1
    t = state.t
    for k in params:
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        mhat = state.m[k] / (1 - b1 ** t)
        vhat = state.v[k] / (1 - b2 ** t)
        params[k] = params[k] - lr * weight_decay * params[k] \
            - lr * mhat / (np.sqrt(vhat) + eps)
    return params, state


def _flat(per_filter):
    """One "i.name" key per entry of a list of per-filter dicts."""
    return {f"{i}.{k}": d[k] for i, d in enumerate(per_filter) for k in sorted(d)}


def _write_back(bank, flat):
    for key, arr in flat.items():
        i, k = key.split(".", 1)
        bank.filters[int(i)].params[k] = arr


def train_drift(model, bank, dataset, config):
    """Optimize the bank; returns (bank, per-epoch log rows).

    Log rows: dicts keyed by LOG_FIELDS. Fixed config.seed gives
    bitwise-identical logs and parameters across runs.
    """
    if not model.frozen:
        raise DomainError("base model must be frozen before filter training")
    x_all, y_all = dataset
    x_all = np.asarray(x_all, dtype=np.float64)
    y_all = np.asarray(y_all, dtype=np.int64)
    n = x_all.shape[0]
    if n == 0:
        raise DomainError("empty training dataset")
    base_sum = model.checksum()

    w = config.weights
    flat = _flat([f.params for f in bank.filters])
    state = OptimizerState.for_params(flat)
    inner_spec = AttackSpec(
        kind="pgd", norm="linf", epsilon=config.pgd_epsilon,
        steps=config.pgd_steps, step_size=config.pgd_step_size,
        seed=config.seed)
    oracle = base_oracle(model)
    log = []

    for epoch in range(1, config.epochs + 1):
        perm = rng_from(config.seed, EPOCH_TAG, epoch).permutation(n)
        use_js = epoch > config.w_js and bank.k >= 2 and w.beta_js > 0
        use_lvjp = epoch > config.w_lvjp and w.beta_lvjp > 0
        use_adv = epoch > config.w_adv and w.lambda_adv > 0

        sums = [0.0] * (len(LOG_FIELDS) - 2)
        n_sanitized = 0
        n_batches = 0
        n_bad_batches = 0

        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            xb, yb = x_all[idx], y_all[idx]
            comp_vals = {}
            acc = {k: np.zeros_like(a) for k, a in flat.items()}

            def run_component(build, weight, name):
                tape = Tape()
                pvars = bind_bank(tape, bank)
                out = build(tape, pvars)
                if out is None:
                    return
                comp_vals[name] = float(out.value)
                pflat = _flat(pvars)
                for k, g in zip(pflat, grad(tape, out, list(pflat.values()))):
                    acc[k] += weight * g.value

            run_component(
                lambda t, pv: ce_component(t, model, t.leaf(xb), yb, pv),
                w.alpha, "ce")
            if use_js:
                pv_seed = [config.probes.seed, epoch, b]
                probes_v = draw_input_probes(config.probes.p_v,
                                             xb.shape[1:], pv_seed)
                run_component(
                    lambda t, pv: js_component(t, bank, t.leaf(xb), probes_v, pv),
                    w.beta_js, "js")
            if use_lvjp:
                pw_seed = [config.probes.seed, epoch, b]
                probes_w = draw_logit_probes(config.probes.p_w,
                                             model.k_classes, pw_seed)
                run_component(
                    lambda t, pv: lvjp_component(t, model, t.leaf(xb),
                                                 probes_w, pv),
                    w.beta_lvjp, "lvjp")
            if use_adv:
                xadv, _ = pgd(oracle, xb, yb, inner_spec)
                run_component(
                    lambda t, pv: adv_component(t, model, t.leaf(xadv), yb,
                                                pv),
                    w.lambda_adv, "adv")

            try:
                breakdown = total_loss(w, **comp_vals)
            except NonFiniteLoss:
                n_bad_batches += 1
                n_batches += 1
                continue

            acc, n_rep = sanitize_gradients(acc)
            n_sanitized += n_rep
            pre_norm = global_grad_norm(acc)
            acc = clip_gradients(acc, config.clip_norm)
            flat, state = optimizer_step(flat, acc, state, config.lr,
                                         config.weight_decay)
            _write_back(bank, flat)

            sums = [s + v for s, v in zip(sums, (*astuple(breakdown), pre_norm))]
            n_batches += 1

        if n_batches and n_bad_batches == n_batches:
            raise DivergenceError(
                f"epoch {epoch}: every batch produced a non-finite total")
        n_ok = max(n_batches - n_bad_batches, 1)
        log.append(dict(zip(LOG_FIELDS, (epoch, *(s / n_ok for s in sums),
                                         n_sanitized))))

    if model.checksum() != base_sum:
        raise DivergenceError("frozen base model was mutated during training")
    return bank, log


def write_training_log(log, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in log:
            writer.writerow({k: row[k] for k in LOG_FIELDS})


def read_training_log(path):
    """Rows as train_drift returns them: the first and last fields are counts."""
    with open(path, newline="") as fh:
        rows = [[row[k] for k in LOG_FIELDS] for row in csv.DictReader(fh)]
    return [dict(zip(LOG_FIELDS, (int(r[0]), *map(float, r[1:-1]), int(r[-1]))))
            for r in rows]
