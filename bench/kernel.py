"""Fixed reference kernel used to normalize every timing the benchmark reports.

A shared VM changes speed from one minute to the next (on a 2-vCPU
x86-64 VM a fixed pure-Python loop measured 61 ms in one 10-s block and
84 ms in another), so raw wall time does not repeat between runs of the
same code. The kernel below never calls stochctrl; it mixes the kinds
of work the program does (interpreted integer code, a numpy reduction
over a few MB, str -> list dict inserts, and float formatting and
parsing). Timing it immediately before and after an op and scaling the
op's wall time by ``R0 / mean(kernel walls)`` cancels most of the
machine's drift.
"""
from __future__ import annotations

import gc
import time

import numpy as np

# Nominal kernel wall time in seconds: normalized times read as seconds
# on a machine where the kernel takes this long. A 2-vCPU x86-64 VM with
# OpenBLAS pinned to one thread measures 30 to 50 ms across its fast and
# slow phases. Never change this without re-measuring every baseline.
R0 = 0.050

_ARRAY = np.arange(1 << 19, dtype=np.float64) * 1e-6  # 4 MB
# Preallocated, so the kernel's timing does not depend on whether the
# allocator must fault fresh pages in (a new process) or reuses its heap.
_SCRATCH = np.empty_like(_ARRAY)


def reference_kernel() -> float:
    """Run the kernel once and return its wall time in seconds.

    Interpreted code dominates, as it does in the CLI's ops: measured on
    a shared VM, slow phases stretch interpreted loops, dict inserts and
    float parsing by about as much as they stretch the ops, while an
    in-cache numpy reduction barely slows, so that part is kept small.
    """
    gc.collect()
    t0 = time.perf_counter()
    acc = 0
    for i in range(70_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    total = 0.0
    for _ in range(6):
        np.subtract(_ARRAY, 0.5, out=_SCRATCH)
        np.abs(_SCRATCH, out=_SCRATCH)
        total += float(_SCRATCH.sum())
    table = {}
    for i in range(30_000):
        table[str(i)] = [i, acc]
    text = ",".join([repr(i * 0.1234567891) for i in range(12_000)])
    total += sum(float(x) for x in text.split(","))
    wall = time.perf_counter() - t0
    if acc < 0 or total < 0 or len(table) != 30_000:  # keep the work observable
        raise RuntimeError("reference kernel produced an impossible result")
    return wall
