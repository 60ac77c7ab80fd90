"""The three benchmark workloads and the checks on their outputs.

Each workload is a sequence of equal-sized units. Unit `i` of seed `s`
takes its inputs from (s, i) alone: a seeded subset of the fixture's
train or eval split, attack/probe seeds derived from (s, i), and for train
a bank of its own. Unit 0 of
seed 0 is the golden unit: set-up runs it untimed as the warm-up, and its
quality outputs are compared with the values recorded in `golden.json`.

- train: one `train_drift` optimizer step (desk TrainConfig, every warmup
  at 0, so ce, js, lvjp and adv are all active) on a batch of 50 training
  samples, on a fresh K=4 res_block bank (off the identity) in front of
  the fixture's base;
  then `pretrain_and_freeze` of a fresh base: PRETRAIN_EPOCHS Adam steps
  on that batch.
- whitebox: EoT-5 PGD (`adaptive_attack`), then exact `consensus` and
  EoT-32 `gradient_norm_stats`, on eval samples against the fixture bank.
- blackbox: `stochastic_predict`, then the Square attack (q800) through
  `ensemble_margin_score`, on eval samples; then an EoT-128
  `loss_landscape` around one of them.
"""

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

# drift functions are called through their modules, so that the tracer's
# wrappers (bound on those modules) see the benchmark's own calls.
from drift import attacks, data, diagnostics, dtns, harness, models, training
from drift.errors import BudgetError
from drift.losses import ProbeConfig

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "desk_seed0.dtns"
FIXTURE_SHA256 = FIXTURE.with_suffix(".sha256")
GOLDEN = HERE / "golden.json"

WORKLOADS = ("train", "whitebox", "blackbox")

TRAIN_BATCH = 50          # desk batch size: one optimizer step per unit
PRETRAIN_EPOCHS = 16      # one Adam step each; lengthens a short stage
# 50 samples per attack unit: a quarter of the desk run's 200, and close to
# its per-layer profile (see README.md, "Unit size against the desk run").
WHITEBOX_SAMPLES = 50
WHITEBOX_PGD_STEPS = 10
WHITEBOX_GRADNORM_EOT = 32  # as harness._diagnostic_files calls it
BLACKBOX_SAMPLES = 50
LANDSCAPE_GRID = 21
LANDSCAPE_EOT = 128
LANDSCAPE_TAU = 3 / 255

# Seeds of the unit inputs, with (seed, TAG, unit index).
SUBSET_TAG = 1
SEED_TAG = 2
BANK_TAG = 3

# Scale of the seeded w2 of a train unit's bank; the desk-trained fixture
# bank's w2 has a standard deviation of 0.065-0.080 per filter.
BANK_W2_STD = 0.05

# Golden tolerance: continuous outputs relative, discrete ones one sample.
REL_TOL = 1e-6


def sub_seed(*parts):
    """A 32-bit integer seed that is a pure function of integer parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def subset(split, n, seed, index):
    """Chunk `index` of seeded permutations of the split, n samples each.

    Consecutive units walk through the whole split before any sample
    repeats, so every run sees nearly the same samples, in a seeded order.
    """
    per_pass = len(split) // n
    rng = np.random.default_rng([int(seed), SUBSET_TAG, int(index) // per_pass])
    chunk = int(index) % per_pass
    idx = np.sort(rng.permutation(len(split))[chunk * n:(chunk + 1) * n])
    return data.Split(split.x[idx], split.y[idx], split.ids[idx])


@dataclasses.dataclass
class Context:
    bank: object
    model: object
    train: data.Split
    eval: data.Split


def fixture_digest(path=FIXTURE):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digest():
    return FIXTURE_SHA256.read_text().split()[0]


def load_context():
    """Fixture (hash-checked), base and bank, and the desk dataset splits."""
    got = fixture_digest()
    if got != recorded_digest():
        raise RuntimeError(f"fixture {FIXTURE.name} sha256 {got} does not match "
                           f"{FIXTURE_SHA256.name}")
    bank, model = dtns.load_checkpoint(FIXTURE)
    meta = dtns.checkpoint_meta(FIXTURE)
    train, eval_ = data.generate_synthetic_dataset(
        meta["classes"], meta["side"], meta["n_per_class"], meta["data_seed"],
        channels=meta["channels"])
    return Context(bank, model, train, eval_)


@dataclasses.dataclass
class UnitResult:
    """One unit: stage seconds, work per stage, raw outputs, check results."""
    seconds: dict
    work: dict
    outputs: dict
    checks: list = dataclasses.field(default_factory=list)

    @property
    def total_s(self):
        return sum(self.seconds.values())

    def fingerprint(self):
        """sha256 over every raw output, for bitwise comparisons."""
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.outputs[key]).tobytes())
        return h.hexdigest()


class _Stages:
    """Times consecutive stages of one unit."""

    def __init__(self, tracer=None):
        self.seconds = {}
        self.tracer = tracer

    def run(self, name, fn, *args, **kwargs):
        span = self.tracer.open(f"bench.{name}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + \
                time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)


def _budget_checks(x_adv, x, spec, label):
    checks = []
    for r in range(x.shape[0]):
        try:
            attacks.check_budget(x_adv[r] - x[r], spec)
            ok = bool(x_adv[r].min() >= 0.0 and x_adv[r].max() <= 1.0)
        except BudgetError:
            ok = False
        checks.append((f"{label} example {r} within budget and box", ok))
    return checks


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def fresh_bank(seed, index, k=4, hidden=16):
    """A new res_block bank for unit `index` of `seed`, off the identity.

    res_block starts as the exact identity (w2 = 0). There js and lvjp sit
    at their maximum and their gradients vanish, so a seeded w2 of about the
    desk-trained bank's scale gives every loss term a gradient.
    """
    bank = models.build_filter_bank(models.FilterArch("res_block", hidden=hidden),
                                    k, seed=sub_seed(seed, SEED_TAG, index))
    rng = np.random.default_rng([int(seed), BANK_TAG, int(index)])
    for f in bank.filters:
        f.params["w2"] = rng.normal(0.0, BANK_W2_STD, f.params["w2"].shape)
    return bank


def train_config(seed):
    """Desk TrainConfig with every warmup at 0: all four terms from batch 1."""
    desk = harness.default_config().train
    return dataclasses.replace(
        desk, epochs=1, batch_size=TRAIN_BATCH, w_js=0, w_lvjp=0, w_adv=0,
        seed=seed, probes=ProbeConfig(p_v=desk.probes.p_v,
                                      p_w=desk.probes.p_w, seed=seed))


def pretrain_step(model, batch, seed):
    """Desk pretraining of a fresh base, one Adam step per epoch on one batch."""
    spec = harness.default_config().model
    base = models.build_base_model(model.image_shape, model.k_classes, seed=seed,
                                   channels=spec.channels)
    return models.pretrain_and_freeze(base, (batch.x, batch.y),
                                      epochs=PRETRAIN_EPOCHS,
                                      lr=spec.pretrain_lr,
                                      batch_size=len(batch))


def _flat_params(bank):
    return np.concatenate([a.ravel() for f in bank.filters
                           for _, a in sorted(f.params.items())])


def train_unit(ctx, bank, seed, index, n=TRAIN_BATCH, tracer=None):
    """One optimizer step on `bank`, which it updates in place."""
    batch = subset(ctx.train, n, seed, index)
    cfg = dataclasses.replace(train_config(sub_seed(seed, SEED_TAG, index)),
                              batch_size=n)
    before = _flat_params(bank)
    stages = _Stages(tracer)
    bank, log = stages.run("train", training.train_drift, ctx.model, bank,
                           (batch.x, batch.y), cfg)
    base = stages.run("pretrain", pretrain_step, ctx.model, batch, cfg.seed)
    row = log[-1]
    losses = np.array([row[k] for k in ("ce", "js", "lvjp", "adv", "total",
                                        "grad_norm")])
    step = _flat_params(bank) - before
    checks = [
        ("losses and gradient norm finite", bool(np.isfinite(losses).all())),
        ("bank parameters finite and moved",
         bool(np.isfinite(step).all() and np.any(step != 0))),
        ("base checksum unchanged", ctx.model.checksum() == ctx.model.frozen_checksum),
    ]
    return UnitResult(stages.seconds, {"train": n, "pretrain": n * PRETRAIN_EPOCHS},
                      {"losses": losses, "step": step,
                       "base": np.frombuffer(base.checksum().encode(), np.uint8)},
                      checks)


def train_quality(ctx, result):
    """The step's losses (taken before the update), its pre-clip gradient
    norm, and the update: its norm and its projection on a fixed direction."""
    ce, js, lvjp, adv, total, grad_norm = (float(v)
                                           for v in result.outputs["losses"])
    step = result.outputs["step"]
    direction = np.random.default_rng(0).standard_normal(step.shape)
    return {"total": total, "ce": ce, "js": js, "lvjp": lvjp, "adv": adv,
            "grad_norm": grad_norm, "step_norm": float(np.linalg.norm(step)),
            "step_dot": float(step @ direction)}


# ---------------------------------------------------------------------------
# whitebox
# ---------------------------------------------------------------------------

def eot_pgd_spec(seed):
    desk = next(a for a in harness.default_config().attacks if a.eot_samples)
    return dataclasses.replace(desk, steps=WHITEBOX_PGD_STEPS, seed=seed)


def whitebox_unit(ctx, seed, index, n=WHITEBOX_SAMPLES, tracer=None):
    s = subset(ctx.eval, n, seed, index)
    sd = sub_seed(seed, SEED_TAG, index)
    spec = eot_pgd_spec(sd)
    stages = _Stages(tracer)
    x_adv, _ = stages.run("eot_pgd", attacks.adaptive_attack, ctx.bank, ctx.model,
                          s.x, s.y, spec)
    report = stages.run("diag", diagnostics.consensus, ctx.bank, ctx.model, s,
                        mode="exact")
    stats = stages.run("diag", diagnostics.gradient_norm_stats, ctx.bank, ctx.model, s,
                       eot_k=WHITEBOX_GRADNORM_EOT, seed=sd)
    gn = np.array([stats["median"], stats["p05"], stats["p95"]])
    checks = _budget_checks(x_adv, s.x, spec, "EoT-PGD")
    checks += [("consensus finite", bool(np.isfinite(report.gamma).all())),
               ("gradient norms finite", bool(np.isfinite(gn).all()))]
    return UnitResult(stages.seconds, {"eot_pgd": n, "diag": n},
                      {"x_adv": x_adv, "gamma": report.gamma, "gradnorm": gn,
                       "ids": s.ids, "y": s.y, "seed": np.array([sd])}, checks)


def _accuracy(ctx, x, ids, y, seed):
    preds, _ = harness.stochastic_predict(ctx.bank, ctx.model, x, ids, seed)
    return 100.0 * float(np.mean(preds == y))


def whitebox_quality(ctx, result):
    o = result.outputs
    k = o["gamma"].shape[0]
    return {
        "eot_pgd_robust_accuracy": _accuracy(ctx, o["x_adv"], o["ids"], o["y"],
                                             int(o["seed"][0])),
        "gamma_mean_offdiag": float(o["gamma"][~np.eye(k, dtype=bool)].mean()),
        "gradnorm_median": float(o["gradnorm"][0]),
    }


# ---------------------------------------------------------------------------
# blackbox
# ---------------------------------------------------------------------------

def square_spec(seed):
    desk = next(a for a in harness.default_config().attacks if a.kind == "square")
    return dataclasses.replace(desk, seed=seed)


def blackbox_unit(ctx, seed, index, n=BLACKBOX_SAMPLES, grid=LANDSCAPE_GRID,
                  tracer=None):
    s = subset(ctx.eval, n, seed, index)
    sd = sub_seed(seed, SEED_TAG, index)
    spec = square_spec(sd)
    stages = _Stages(tracer)
    # the clean prediction is n more model queries, timed with Square's
    preds, _ = stages.run("square", harness.stochastic_predict, ctx.bank,
                          ctx.model, s.x, s.ids, sd)
    x_adv, _, queries = stages.run(
        "square", lambda: attacks.square_attack(
            attacks.ensemble_margin_score(ctx.bank, ctx.model), s.x, s.y, spec,
            sample_ids=s.ids))
    loss_fn = diagnostics.make_eot_ce_loss(ctx.bank, ctx.model, s.y[0],
                                           int(s.ids[0]), eot_k=LANDSCAPE_EOT,
                                           seed=sd)
    land = stages.run("landscape", diagnostics.loss_landscape, loss_fn, s.x[0],
                      tau=LANDSCAPE_TAU, grid_n=grid, dir_seed=sd,
                      eot_k=LANDSCAPE_EOT)
    checks = _budget_checks(x_adv, s.x, spec, "Square")
    checks += [
        ("queries within budget",
         bool(((queries >= 1) & (queries <= spec.query_budget)).all())),
        ("landscape finite", bool(np.isfinite(land.grid).all())),
    ]
    return UnitResult(
        stages.seconds,
        {"square": n + int(queries.sum()), "landscape": grid * grid},
        {"preds": preds, "x_adv": x_adv, "queries": queries,
         "landscape": land.grid, "ids": s.ids, "y": s.y,
         "seed": np.array([sd])},
        checks)


def blackbox_quality(ctx, result):
    o = result.outputs
    return {
        "clean_accuracy": 100.0 * float(np.mean(o["preds"] == o["y"])),
        "square_robust_accuracy": _accuracy(ctx, o["x_adv"], o["ids"], o["y"],
                                            int(o["seed"][0])),
        "square_queries": int(o["queries"].sum()),
    }


# ---------------------------------------------------------------------------
# Dispatch, golden values
# ---------------------------------------------------------------------------

# workload -> the stages behind the end-to-end metrics main_per_s, aux_per_s
MAIN_STAGE = {"train": "train", "whitebox": "eot_pgd", "blackbox": "square"}
AUX_STAGE = {"train": "pretrain", "whitebox": "diag", "blackbox": "landscape"}

# Each stage rate under its own name, per workload: (name, stage).
STAGE_RATES = {
    "train": [("train_samples_per_s", "train"),
              ("pretrain_samples_per_s", "pretrain")],
    "whitebox": [("eot_pgd_samples_per_s", "eot_pgd"),
                 ("diag_samples_per_s", "diag")],
    "blackbox": [("square_queries_per_s", "square"),
                 ("landscape_points_per_s", "landscape")],
}

QUALITY = {"train": train_quality, "whitebox": whitebox_quality,
           "blackbox": blackbox_quality}

# Discrete quality outputs and their tolerance: one sample's worth.
DISCRETE = {
    "eot_pgd_robust_accuracy": 100.0 / WHITEBOX_SAMPLES,
    "clean_accuracy": 100.0 / BLACKBOX_SAMPLES,
    "square_robust_accuracy": 100.0 / BLACKBOX_SAMPLES,
    "square_queries": square_spec(0).query_budget,
}


class Runner:
    """Runs units of one workload against one loaded context."""

    def __init__(self, workload, ctx, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.ctx = ctx
        self.seed = seed

    def unit(self, index, tracer=None, seed=None):
        seed = self.seed if seed is None else seed
        if self.workload == "train":
            # a bank of its own, built outside the timed stages
            return train_unit(self.ctx, fresh_bank(seed, index), seed, index,
                              tracer=tracer)
        if self.workload == "whitebox":
            return whitebox_unit(self.ctx, seed, index, tracer=tracer)
        return blackbox_unit(self.ctx, seed, index, tracer=tracer)

    def golden_unit(self, tracer=None):
        """Unit 0 of seed 0."""
        return self.unit(0, tracer=tracer, seed=0)

    def quality(self, result):
        return QUALITY[self.workload](self.ctx, result)


def load_golden(workload):
    with open(GOLDEN) as fh:
        return json.load(fh)[workload]


def golden_checks(quality, golden):
    """One check per recorded quality output, with its stated tolerance."""
    checks = []
    for key, want in golden.items():
        got = quality.get(key)
        if got is None:
            checks.append((f"golden {key} present", False))
            continue
        if key in DISCRETE:
            ok = abs(got - want) <= DISCRETE[key] + 1e-9
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
        checks.append((f"golden {key}: {got!r} vs recorded {want!r}", ok))
    return checks
