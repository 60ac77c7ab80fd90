"""One call runs the whole pipeline: data, pretraining, bank training,
the attack suite, diagnostics, and a manifest that reproduces it all.

This is the same entry point the CLI uses (`drift train --config ...`).
Scaled down here so it finishes in about a minute: a smaller task, bank and
schedule. Every key it leaves out, the loss weights among them, takes the
desk value; `{}` is the full desk-scale config, default_config().
"""

import json
from pathlib import Path

from drift.harness import config_from_dict, rerun_from_manifest, run_experiment

out = Path("demo_run")
config = config_from_dict({
    "experiment_id": "demo",
    "seed": 0,
    "dataset": {"classes": 4, "side": 8, "n_per_class": 16},
    "model": {"channels": [8, 16], "pretrain_epochs": 15},
    "bank": {"k": 3, "hidden": 8},
    "train": {
        "epochs": 6, "batch_size": 64,
        "w_js": 1, "w_lvjp": 1, "w_adv": 2,
        "pgd_epsilon": 4 / 255, "pgd_steps": 5,
        "probes": {"p_v": 2, "p_w": 2, "seed": 0},
    },
    "attacks": [
        {"kind": "pgd", "norm": "linf", "epsilon": 8 / 255, "steps": 20},
        {"kind": "pgd", "norm": "linf", "epsilon": 8 / 255, "steps": 20,
         "eot_samples": 5},
        {"kind": "square", "norm": "linf", "epsilon": 8 / 255, "steps": 1,
         "query_budget": 200},
    ],
    "out_dir": str(out),
})

metrics = run_experiment(config)
print(f"clean accuracy: {metrics.clean_accuracy:.1f}%")
for name, acc in sorted(metrics.robust_accuracy.items()):
    print(f"  {name:<38} {acc:5.1f}%")
print(f"mean off-diagonal consensus: {metrics.consensus_mean_offdiag:.4f}")
print(f"artifacts: {sorted(p.name for p in out.iterdir())}")

# The manifest pins the resolved config; rerunning reproduces every
# number bit for bit (timings aside).
again = rerun_from_manifest(out / "manifest.json", out / "rerun")
same = again.to_dict(include_timings=False) == metrics.to_dict(include_timings=False)
print(f"manifest rerun reproduces metrics exactly: {same}")

with open(out / "manifest.json") as fh:
    manifest = json.load(fh)
print(f"manifest status: {manifest['status']}, stages: {manifest['stages_completed']}")
