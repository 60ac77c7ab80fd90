"""Experiment orchestration: config, pipeline stages, evaluation, reports.

A run is: dataset -> pretrain/freeze base -> train the bank -> attacks ->
diagnostics, with a DTNS checkpoint, CSV/JSON reports, and a manifest that
can reproduce every numeric output exactly. All stages are deterministic
given the resolved config, so rerunning is idempotent (each stage's seconds
and minor page faults aside).
"""

import csv
import io
import json
import os
import resource
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    AttackSpec, _margins, adaptive_attack, base_oracle, draw_counts,
    ensemble_margin_score, mim, pgd, square_attack,
)
from .data import Split, as_xy, check_dataset_shape, generate_synthetic_dataset
from .diagnostics import (
    consensus, directional_mismatch, gradient_norm_stats, loss_landscape,
    make_eot_ce_loss, probe_variance_study, transfer_matrix,
)
from .dtns import save_checkpoint
from .errors import DomainError, StageError
from .models import (
    FilterArch, build_base_model, build_filter_bank, filter_forward_np,
    filter_param_count, pretrain_and_freeze, routed_forward,
)
from .training import LOG_FIELDS, TrainConfig, train_drift

INFERENCE_TAG = 83

ATTACK_CSV_FIELDS = ("sample_id", "kind", "epsilon", "steps", "eot_samples",
                     "success", "queries", "final_margin")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class DatasetSpec:
    classes: int = 10
    side: int = 16
    n_per_class: int = 40
    seed: int = 0

    def __post_init__(self):
        check_dataset_shape(self.classes, self.side, self.n_per_class)


@dataclass
class ModelSpec:
    channels: tuple = (16, 32)
    pretrain_epochs: int = 30
    pretrain_lr: float = 1e-3

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if len(self.channels) != 2 or min(self.channels) < 1:
            raise DomainError(f"channels must be two positive widths, "
                              f"got {self.channels}")


@dataclass
class BankSpec:
    k: int = 4
    hidden: int = 16

    def __post_init__(self):
        FilterArch(hidden=self.hidden)  # rejects a bad hidden
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")


@dataclass
class ExperimentConfig:
    experiment_id: str = "desk-default"
    seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    bank: BankSpec = field(default_factory=BankSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    attacks: list = field(default_factory=list)
    inference_seed: int = 0
    out_dir: str = "runs/default"


# The desk's attack suite: each names its kind and the fields that differ
# from AttackSpec's defaults.
DESK_ATTACKS = (
    {"kind": "pgd"},
    {"kind": "mim"},
    {"kind": "pgd", "epsilon": 6 / 255, "eot_samples": 5},
    {"kind": "square", "steps": 1, "query_budget": 800},
)


def _section(cls, d, path, seed):
    """cls built from the config object d found at key path `path`.

    Keys missing from d take the field defaults, except seeds (`seed`,
    `*_seed`), which take the master seed `seed` at any depth; a missing
    nested config object is built from {}. Every seed d gives must be an
    integer in [0, 2^63 - 1], the range checkpoints store. Unknown keys and
    invalid values raise DomainError naming their key path.
    """
    if not isinstance(d, dict):
        raise DomainError(f"config {path} must be an object")
    types = {f.name: f.type for f in fields(cls)}
    seeds = [key for key in types if key == "seed" or key.endswith("_seed")]
    for key, value in d.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            raise DomainError(f"unknown config key {where}")
        if key in seeds and (isinstance(value, bool) or not (
                isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 63)):
            raise DomainError(
                f"config {where} must be an integer in [0, 2^63 - 1], "
                f"got {value!r}")
    d = dict(dict.fromkeys(seeds, seed), **d)
    for key, kind in types.items():
        if is_dataclass(kind):
            d[key] = _section(kind, d.get(key, {}),
                              f"{path}.{key}" if path else key, seed)
    try:
        return cls(**d)
    except (DomainError, TypeError) as exc:
        raise DomainError(f"config {path}: {exc}") from exc


def config_from_dict(d):
    """Build a config from its JSON form; {} is the desk config.

    DRIFT_SEED, when set, overrides the master seed `seed`, and the master
    seed fills every seed left unset at any depth. Without an `attacks` key
    the run takes DESK_ATTACKS; `[]` runs none. Unknown keys and invalid
    values, at any depth, raise DomainError naming their key path.
    """
    if not isinstance(d, dict):
        raise DomainError("config must be a JSON object")
    d = dict(d)
    env_seed = os.environ.get("DRIFT_SEED")
    if env_seed is not None:
        if not (env_seed.strip().isdecimal() and int(env_seed) < 2 ** 63):
            raise DomainError(f"DRIFT_SEED must be an integer in [0, 2^63 - 1], "
                              f"got {env_seed!r}")
        d["seed"] = int(env_seed)
    seed = d.get("seed", 0)
    d["attacks"] = [_section(AttackSpec, a, f"attacks[{j}]", seed)
                    for j, a in enumerate(d.get("attacks", DESK_ATTACKS))]
    _check_unique_labels(d["attacks"])
    return _section(ExperimentConfig, d, "", seed)


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def default_config(out_dir="runs/default", seed=0):
    """The desk config (minutes of CPU, every stage exercised) at master
    seed `seed`, writing under out_dir."""
    return config_from_dict({"seed": seed, "out_dir": str(out_dir)})


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    experiment_id: str
    seed: int
    clean_accuracy: float
    robust_accuracy: dict
    consensus_mean_offdiag: float = None
    timings: dict = field(default_factory=dict)
    page_faults: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, v in dict(self.robust_accuracy, clean=self.clean_accuracy).items():
            if not 0.0 <= v <= 100.0:
                raise DomainError(f"accuracy {label}={v} outside [0, 100]")

    def to_dict(self, include_timings=True):
        d = asdict(self)
        if not include_timings:
            del d["timings"], d["page_faults"]
        return d


def attack_label(spec):
    label = f"{spec.kind}-{spec.norm}-eps{spec.epsilon:.6g}"
    if spec.kind == "square":
        return f"{label}-q{spec.query_budget}"
    if spec.eot_samples:
        label += f"-eot{spec.eot_samples}"
    if spec.bpda_identity:
        label += "-bpda"
    return label


def _check_unique_labels(attack_specs):
    """Results are filed per label, so a shared label would drop all but one."""
    labels = [attack_label(spec) for spec in attack_specs]
    for j, label in enumerate(labels):
        i = labels.index(label)
        if i < j:
            raise DomainError(f"config attacks[{i}] and attacks[{j}] share the label {label}")


def stochastic_predict(bank, model, x, sample_ids, seed):
    """One fresh filter draw per sample, keyed (seed, tag, sample id, 0);
    returns (predictions, logits)."""
    counts = draw_counts(bank.k, [[[seed, INFERENCE_TAG, int(s), 0]]
                                  for s in sample_ids])
    logits = routed_forward(bank, model, x, counts)
    return logits.argmax(axis=1), logits


def _craft(bank, model, x, y, spec, sample_ids):
    """Returns (x_adv, per-sample queries) under the declared threat model."""
    n = x.shape[0]
    if spec.kind == "square":
        x_adv, _, queries = square_attack(ensemble_margin_score(bank, model),
                                          x, y, spec, sample_ids=sample_ids)
        return x_adv, queries
    if spec.eot_samples >= 1:
        x_adv, _ = adaptive_attack(bank, model, x, y, spec)
    else:
        oracle = base_oracle(model)
        attack = mim if spec.kind == "mim" else pgd
        x_adv, _ = attack(oracle, x, y, spec)
    return x_adv, np.full(n, spec.steps, dtype=np.int64)


def evaluate_robust_accuracy(bank, model, eval_set, attack_specs,
                             inference_seed=0, experiment_id="adhoc",
                             csv_path=None):
    """Robust accuracy (%) of the stochastic ensemble per attack.

    The no-attack entry "none" always equals clean accuracy. Per-sample
    rows (id, kind, budget, success, queries, final margin) go to csv_path
    when given. Attacks that share a label raise DomainError.
    """
    _check_unique_labels(attack_specs)
    x, y, ids = as_xy(eval_set)

    preds, _ = stochastic_predict(bank, model, x, ids, inference_seed)
    clean = 100.0 * float(np.mean(preds == y))
    robust = {"none": clean}
    rows = []

    for spec in attack_specs:
        x_adv, queries = _craft(bank, model, x, y, spec, ids)
        preds_adv, logits_adv = stochastic_predict(bank, model, x_adv, ids,
                                                   inference_seed)
        correct = preds_adv == y
        robust[attack_label(spec)] = 100.0 * float(np.mean(correct))
        budget = (spec.kind, float(spec.epsilon), spec.steps, spec.eot_samples)
        rows += [(i, *budget, s, q, m) for i, s, q, m in zip(
            ids.tolist(), (~correct).astype(int).tolist(), queries.tolist(),
            _margins(logits_adv, y).tolist())]

    if csv_path is not None:
        _write_csv([ATTACK_CSV_FIELDS, *rows], csv_path)

    return MetricsRecord(experiment_id=experiment_id,
                         seed=inference_seed,
                         clean_accuracy=clean,
                         robust_accuracy=robust)


# ---------------------------------------------------------------------------
# Overhead measurement
# ---------------------------------------------------------------------------

def measure_overhead(bank, model, n_trials=200):
    """Median single-input forward times, their ratio, parameter bytes.

    Each trial times one base forward and one defended forward back to back,
    so a slow phase of the machine hits both medians alike. param_bytes is
    the per-filter footprint; bank_param_bytes the total.
    """
    if n_trials < 100:
        raise DomainError("need at least 100 trials for a stable median")
    c, h, w = model.image_shape
    x = np.random.default_rng(97).uniform(0.0, 1.0, size=(1, c, h, w))
    counter = {"i": 0}

    def base():
        model.forward_np(x)

    def defended():
        f = bank.filters[counter["i"] % bank.k]
        counter["i"] += 1
        model.forward_np(filter_forward_np(f, x))
    itemsize = next(iter(bank.filters[0].params.values())).itemsize
    pbytes = filter_param_count(bank.filters[0]) * itemsize
    total = sum(filter_param_count(f) for f in bank.filters) * itemsize
    ts = np.empty((n_trials, 2))
    for t in range(n_trials):
        for j, fn in enumerate((base, defended)):
            t0 = time.perf_counter()
            fn()
            ts[t, j] = time.perf_counter() - t0
    base_s, ens_s = (float(m) for m in np.median(ts, axis=0))
    return {
        "base_forward_s": base_s,
        "ensemble_forward_s": ens_s,
        "ratio": ens_s / base_s,
        "param_bytes": pbytes,
        "bank_param_bytes": total,
    }


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _json_default(obj):
    """asdict of a dataclass, tolist of an ndarray or a NumPy scalar."""
    if is_dataclass(obj):
        return asdict(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(obj, path):
    """The one JSON writer of run records. The text is encoded whole before
    the file opens, so an object it cannot encode leaves no file."""
    text = json.dumps(obj, sort_keys=True, indent=1, default=_json_default)
    Path(path).write_text(text)


def _write_csv(rows, path):
    """The one CSV writer of run records; floats go as repr, so they read
    back exactly. The text is built whole before the file opens, so a row
    it cannot encode leaves no file."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    Path(path).write_text(text.getvalue())


# diagnostic -> the file it writes; `drift diagnose --what` runs any of them
DIAGNOSTIC_FILES = {"consensus": "consensus_exact.json", "gradnorm": "gradnorm.json",
                    "mismatch": "mismatch.json", "transfer": "transfer.csv",
                    "probes": "probes.json", "landscape": "landscape.csv"}
# the diagnostics every run executes, in this order
RUN_DIAGNOSTICS = ("consensus", "gradnorm")


def run_diagnostic(what, bank, model, eval_split, out, seed=0):
    """One diagnostic at fixed parameters (a run passes its master seed);
    writes its file (DIAGNOSTIC_FILES) under the directory `out` and
    returns its result."""
    path = out / DIAGNOSTIC_FILES[what]
    if what == "consensus":
        result = consensus(bank, model, eval_split, mode="exact")
    elif what == "gradnorm":
        result = gradient_norm_stats(bank, model, eval_split, eot_k=32, seed=seed)
    elif what == "mismatch":
        sub = Split(eval_split.x[:16], eval_split.y[:16], eval_split.ids[:16])
        result = directional_mismatch(bank, model, sub, eot_k=128, seed=seed)
    elif what == "transfer":
        spec = AttackSpec(kind="pgd", norm="linf", epsilon=8 / 255, steps=10,
                          seed=seed)
        result = transfer_matrix(bank, model, eval_split, spec)
        _write_csv(result.tolist(), path)
    elif what == "probes":
        result = probe_variance_study(bank, eval_split.x[:4], trials=60,
                                      seed=seed)
    else:
        fn = make_eot_ce_loss(bank, model, eval_split.y[0],
                              sample_id=int(eval_split.ids[0]),
                              eot_k=128, seed=seed)
        result = loss_landscape(fn, eval_split.x[0], tau=3 / 255, grid_n=41,
                                dir_seed=seed, eot_k=128)
        _write_csv([("tau", "grid_n", "dir_seed", "eot_k"),
                    (result.tau, result.grid_n, result.dir_seed, result.eot_k),
                    *result.grid.tolist()], path)
    if path.suffix == ".json":
        _write_json(result, path)
    return result


def run_experiment(config):
    """Full pipeline; writes artifacts under config.out_dir.

    Any stage failure is re-raised as StageError with a partial manifest
    (status "failed:<stage>") already on disk.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings, page_faults = {}, {}
    done = []

    def manifest_dict(status):
        return {
            "experiment_id": config.experiment_id,
            "package_version": __version__,
            "status": status,
            "stages_completed": list(done),
            "config": config,
        }

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def stage(name, fn):
        t0, f0 = time.perf_counter(), minor_faults()
        try:
            result = fn()
        except Exception as exc:
            _write_json(dict(manifest_dict(f"failed:{name}"), partial=True),
                        out / "manifest.json")
            raise StageError(name, repr(exc)) from exc
        timings[name] = time.perf_counter() - t0
        page_faults[name] = minor_faults() - f0
        done.append(name)
        return result

    train_split, eval_split = stage("dataset", lambda: generate_synthetic_dataset(
        config.dataset.classes, config.dataset.side,
        config.dataset.n_per_class, config.dataset.seed))

    def _pretrain():
        model = build_base_model(train_split.x.shape[1:], config.dataset.classes,
                                 seed=config.seed,
                                 channels=config.model.channels)
        return pretrain_and_freeze(model, (train_split.x, train_split.y),
                                   epochs=config.model.pretrain_epochs,
                                   lr=config.model.pretrain_lr)
    model = stage("pretrain", _pretrain)

    def _train():
        bank = build_filter_bank(FilterArch(hidden=config.bank.hidden),
                                 config.bank.k, seed=config.seed,
                                 channels=train_split.x.shape[1])
        bank, log = train_drift(model, bank, (train_split.x, train_split.y),
                                config.train)
        _write_csv([LOG_FIELDS, *([row[k] for k in LOG_FIELDS] for row in log)],
                   out / "training_log.csv")
        save_checkpoint(out / "checkpoint.dtns", bank, model,
                        data_seed=config.dataset.seed,
                        n_per_class=config.dataset.n_per_class)
        return bank
    bank = stage("train", _train)

    metrics = stage("attacks", lambda: evaluate_robust_accuracy(
        bank, model, eval_split, config.attacks,
        inference_seed=config.inference_seed,
        experiment_id=config.experiment_id,
        csv_path=out / "attacks.csv"))

    results = stage("diagnostics", lambda: {
        what: run_diagnostic(what, bank, model, eval_split, out, seed=config.seed)
        for what in RUN_DIAGNOSTICS})

    if bank.k >= 2:
        metrics.consensus_mean_offdiag = results["consensus"].mean_off_diagonal()
    metrics.timings = timings
    metrics.page_faults = page_faults
    _write_json(metrics, out / "metrics.json")
    artifacts = {what: DIAGNOSTIC_FILES[what] for what in RUN_DIAGNOSTICS}
    _write_json(dict(manifest_dict("complete"), artifacts=artifacts),
                out / "manifest.json")
    return metrics


def rerun_from_manifest(manifest_path, out_dir=None):
    """Re-execute a finished run from its manifest; same numbers fall out."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = config_from_dict(manifest["config"])
    if out_dir is not None:
        config.out_dir = str(out_dir)
    return run_experiment(config)
