"""Importing drift keeps freed large buffers in the process (glibc only)."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import drift

THRESHOLD_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

# Ten cycles, each allocating and freeing five 8 MB arrays, after one
# warm-up cycle that faults the heap in. With glibc's defaults each cycle
# unmaps or trims its arrays and faults them in again (about 20k faults
# over the ten); with the thresholds drift sets, about none.
CYCLES = """
import resource
import numpy as np
import drift

def cycle():
    arrays = [np.ones(1 << 20) for _ in range(5)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
@pytest.mark.skipif(any(v in os.environ for v in THRESHOLD_VARS),
                    reason="the environment already sets a threshold")
def test_import_keeps_freed_buffers_mapped():
    src = str(Path(drift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CYCLES], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert int(out.stdout) < 1000
