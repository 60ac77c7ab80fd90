"""Regenerate the benchmark's fixture checkpoint and its golden values.

    python3 perfbench/make_fixture.py [--golden-only] [--out-dir DIR]

Runs `run_experiment(default_config(seed=0))` once (about six minutes on
a 2-core CPU), copies its `checkpoint.dtns` to `perfbench/fixture/` and
writes the file's sha256 next to it. The benchmark checks that hash at
set-up, so a later change to training cannot silently change the inputs of
the `whitebox` and `blackbox` workloads.

Then it runs the golden unit of every workload (unit 0 of seed 0) and
records its quality outputs in `perfbench/golden.json`; each benchmark run
compares its own golden unit with them. `--golden-only` skips the desk run
and re-records the golden values against the committed fixture, for a
change that moves them on purpose. Commit what this script writes.
"""

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from drift.harness import default_config, run_experiment  # noqa: E402


def make_fixture(out_dir):
    metrics = run_experiment(default_config(str(out_dir), seed=0))
    shutil.copyfile(Path(out_dir) / "checkpoint.dtns", workloads.FIXTURE)
    digest = workloads.fixture_digest()
    workloads.FIXTURE_SHA256.write_text(f"{digest}  {workloads.FIXTURE.name}\n")
    print(json.dumps(metrics.to_dict(), sort_keys=True, indent=1))
    print(f"{workloads.FIXTURE.name}: {workloads.FIXTURE.stat().st_size} bytes, "
          f"sha256 {digest}")


def record_golden():
    ctx = workloads.load_context()
    golden = {}
    for name in workloads.WORKLOADS:
        runner = workloads.Runner(name, ctx, 0)
        golden[name] = runner.quality(runner.golden_unit())
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=1, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--golden-only", action="store_true",
                    help="keep the fixture; only re-record golden.json")
    ap.add_argument("--out-dir", default=None,
                    help="where the desk run writes its artifacts "
                         "(default: a temporary directory)")
    args = ap.parse_args(argv)
    if not args.golden_only:
        workloads.FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        if args.out_dir:
            make_fixture(args.out_dir)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                make_fixture(tmp)
    record_golden()


if __name__ == "__main__":
    main()
