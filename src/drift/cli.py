"""Command-line surface: train, attack, diagnose, report.

`diagnose --what` runs one diagnostic, the EoT loss landscape among them,
at the parameters and seed of the run that wrote the checkpoint
(harness.run_diagnostic; the run's seed is the bank's). Every subcommand
that needs data rebuilds the eval split from metadata stored in the
checkpoint, so a .dtns file is self-contained. All outputs land next to
their inputs (checkpoint directory or --out).
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attacks import AttackSpec
from .data import generate_synthetic_dataset
from .dtns import checkpoint_meta, load_checkpoint
from .errors import DivergenceError, DomainError, StageError
from .harness import (
    DIAGNOSTIC_FILES, attack_label, evaluate_robust_accuracy, load_config,
    run_diagnostic, run_experiment,
)

_USER_ERRORS = (DomainError, StageError, DivergenceError, OSError,
                json.JSONDecodeError)


def _load_for_eval(ckpt_path):
    """Checkpoint plus the eval split it was trained against."""
    bank, model = load_checkpoint(ckpt_path)
    meta = checkpoint_meta(ckpt_path)
    if meta["n_per_class"] < 1:
        raise DomainError(
            "checkpoint carries no dataset metadata; re-save it through "
            "run_experiment or save_checkpoint(..., n_per_class=...)")
    _, eval_split = generate_synthetic_dataset(
        meta["classes"], meta["side"], meta["n_per_class"], meta["data_seed"])
    return bank, model, eval_split


def cmd_train(args):
    config = load_config(args.config)
    config.out_dir = str(args.out)
    metrics = run_experiment(config)
    print(f"clean accuracy: {metrics.clean_accuracy:.2f}%")
    for name, acc in sorted(metrics.robust_accuracy.items()):
        if name != "none":
            print(f"robust accuracy [{name}]: {acc:.2f}%")
    print(f"artifacts in {config.out_dir}")
    return 0


def cmd_attack(args):
    # the flags given; AttackSpec's defaults fill the rest
    spec = AttackSpec(**{f.name: getattr(args, f.name)
                         for f in fields(AttackSpec) if hasattr(args, f.name)})
    bank, model, eval_split = _load_for_eval(args.checkpoint)
    out = Path(args.checkpoint).parent / f"attack_{attack_label(spec)}.csv"
    metrics = evaluate_robust_accuracy(bank, model, eval_split, [spec],
                                       inference_seed=spec.seed,
                                       csv_path=out)
    label = attack_label(spec)
    print(f"clean accuracy: {metrics.clean_accuracy:.2f}%")
    print(f"robust accuracy [{label}]: {metrics.robust_accuracy[label]:.2f}%")
    print(f"wrote {out}")
    return 0


def cmd_diagnose(args):
    bank, model, eval_split = _load_for_eval(args.checkpoint)
    out_dir = Path(args.checkpoint).parent
    result = run_diagnostic(args.what, bank, model, eval_split, out_dir,
                            seed=bank.seed)
    if args.what == "consensus":
        print(f"mean off-diagonal consensus: {result.mean_off_diagonal():.6f}")
    elif args.what == "mismatch":
        for eta, row in sorted(result.per_eta.items()):
            print(f"eta={eta:g}: median mismatch {row['median']:.6f}")
    elif args.what == "transfer":
        off = result[~np.eye(bank.k, dtype=bool)].mean()
        diag = np.diag(result).mean()
        print(f"accuracy under transfer: diag {diag:.2f}%, off-diag {off:.2f}%")
    elif args.what == "probes":
        for row in result:
            print(f"P={row['P']}: variance {row['variance']:.3e}")
    elif args.what == "landscape":
        v = result.grid
        print(f"loss range over the plane: [{v.min():.6f}, {v.max():.6f}]")
    else:
        print(f"median EoT gradient norm: {result['median']:.6f}")
    print(f"wrote {out_dir / DIAGNOSTIC_FILES[args.what]}")
    return 0


def cmd_report(args):
    run = Path(args.dir)
    rows = []

    def row(key, value):
        rows.append((key, value))

    manifest_path = run / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        row("experiment", manifest.get("experiment_id", "?"))
        row("status", manifest.get("status", "?"))
    metrics_path = run / "metrics.json"
    if metrics_path.exists():
        with open(metrics_path) as fh:
            metrics = json.load(fh)
        row("seed", metrics["seed"])
        row("clean accuracy (%)", f"{metrics['clean_accuracy']:.2f}")
        for name, acc in sorted(metrics["robust_accuracy"].items()):
            if name != "none":
                row(f"robust (%) {name}", f"{acc:.2f}")
        gamma = metrics.get("consensus_mean_offdiag")
        if gamma is not None:
            row("mean off-diagonal consensus", f"{gamma:.6f}")
        for stage, secs in sorted(metrics.get("timings", {}).items()):
            row(f"time (s) {stage}", f"{secs:.2f}")
        for stage, faults in sorted(metrics.get("page_faults", {}).items()):
            row(f"page faults {stage}", faults)
    attacks_path = run / "attacks.csv"
    if attacks_path.exists():
        with open(attacks_path) as fh:
            n_rows = sum(1 for _ in fh) - 1
        row("attack rows", n_rows)
    extra = sorted(p.name for p in run.iterdir()
                   if p.suffix in (".json", ".csv")
                   and p.name not in ("metrics.json", "manifest.json",
                                      "attacks.csv"))
    if extra:
        row("other artifacts", ", ".join(extra))
    if not rows:
        raise DomainError(f"no run artifacts found under {run}")
    width = max(34, max(len(k) for k, _ in rows) + 2)
    print("\n".join(f"{k:<{width}}{v}" for k, v in rows))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drift",
        description="Train, attack, and diagnose filter-ensemble defenses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the full experiment pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("attack", help="evaluate one attack on a checkpoint",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attack", dest="kind", required=True,
                   choices=("pgd", "mim", "square"))
    p.add_argument("--norm", choices=("linf", "l2"))
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--eot", dest="eot_samples", type=int)
    p.add_argument("--bpda", dest="bpda_identity", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("diagnose", help="run one diagnostic on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--what", required=True, choices=tuple(DIAGNOSTIC_FILES))
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
