"""Checkout paths, the pinned process environment and the environment record."""
from __future__ import annotations

import os
import platform
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# One BLAS/OpenMP thread in every workload process: at least 1 and at most
# nproc on any machine. The thread count changes both the time of the dense
# state-delay solve (7.6 s with 1 thread, 5.0 s with 2) and the deviation
# it reports, and one thread matches the single-threaded reference kernel.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold after large blocks are freed, so whether a
# later array lands in the heap or in a fresh mapping depends on allocation
# history: full_deep's peak RSS came out at either 143 or 163 MB between
# otherwise identical runs. A fixed threshold makes it repeat (142 MB).
# glibc reads it at process start, so it takes effect in the workers.
MALLOC_MMAP_THRESHOLD = 65536


def pin_environment() -> None:
    """Fix the BLAS thread count and the allocator policy for this process's children.

    Must run before numpy is imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)


def record() -> dict:
    """nproc, thread count, allocator threshold and the Python, numpy and BLAS versions."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
