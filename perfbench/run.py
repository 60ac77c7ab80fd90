"""drift benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {train,whitebox,blackbox} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; drift is imported from ./src. Set-up loads
the context SETUP_REPEATS times (fixture sha256 check, checkpoint load,
dataset generation), then runs the golden unit untimed as the warm-up.
`setup_s` is the import time plus the median load plus the warm-up unit.
Then units of the workload run until S seconds have passed.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones, as measured; with --trace 1 every drift function call
is traced (see tracing.py) and the metrics are the per-layer ones, per
timed unit. Every check on the outputs is counted in `attempted`/`failed`.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS threads are fixed before numpy loads. With two threads, GEMMs waited
# in 8 ms steps whenever the other core was busy (see perfbench/README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description="drift benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("train", "whitebox", "blackbox"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "drift" / "__init__.py").is_file():
        print(f"error: drift sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench  # noqa: E402  (imports numpy and drift)
    import_s = time.perf_counter() - T_START
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s, SETUP_REPEATS, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
