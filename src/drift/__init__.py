"""Filter-ensemble defenses built on gradient disagreement.

A bank of small dimension-preserving filters sits in front of a frozen
classifier. Training pushes the filters' input gradients apart (low squared
cosine between pipelines) while keeping clean accuracy, so a perturbation
crafted against one pipeline transfers poorly to the others. The package
bundles the autodiff core, the models, the separation losses, the training
loop, a white/black-box attack suite, and the diagnostics used to check
that measured disagreement actually tracks reduced transfer.

Importing the package sets glibc's malloc thresholds once (see
`_keep_freed_memory`).
"""

import ctypes
import os

from .errors import (
    BudgetError, DivergenceError, DomainError, NonFiniteLoss, ShapeError,
    StageError, TapeError,
)

__all__ = [
    "BudgetError", "DivergenceError", "DomainError", "NonFiniteLoss",
    "ShapeError", "StageError", "TapeError",
]

__version__ = "0.1.0"

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep freed kernel buffers in the process instead of returning them.

    The conv kernels allocate buffers on every call: chunks of 0.6-3 MB in
    a forward conv (an im2col matrix, or a tap product with its padded
    input), a whole im2col matrix of up to 15 MB in a kernel gradient at
    batch 50. With glibc's defaults each freed buffer of
    128 kB or more is unmapped or trimmed off the heap, and the next call
    faults the same pages in again: about 84k minor faults per whitebox
    benchmark unit, a tenth of its time, when forward convs still built
    whole matrices of up to 28 MB. A 32 MiB mmap threshold keeps these
    buffers on the heap, and a 256 MiB trim threshold keeps the freed heap
    top mapped.

    Both are set or neither: setting either one turns off glibc's dynamic
    threshold, and one alone was slower than the defaults. A user who sets
    MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ keeps glibc's own
    reading of them. Without a `mallopt` symbol (not glibc) nothing is done.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or \
            "MALLOC_TRIM_THRESHOLD_" in os.environ or os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()
