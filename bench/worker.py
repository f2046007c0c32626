"""One workload process: set-up, warm-up, then timed passes over the op list.

Started fresh by ``run.py`` for every sample, so ``ru_maxrss`` belongs to
this workload alone. Ops run in-process through ``stochctrl.cli.main``,
closed loop with one client: each op starts after the previous returns.
Prints one JSON object with the raw and normalized figures on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from env import ROOT, pin_environment

pin_environment()  # before numpy loads

sys.path.insert(0, os.path.join(ROOT, "src"))

import stochctrl.cli  # noqa: E402  (after the path and thread set-up)

if not os.path.abspath(stochctrl.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"stochctrl was imported from {stochctrl.cli.__file__}, not from this checkout")

import kernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Ops shorter than this share one kernel bracket with their neighbours.
BLOCK_S = 1.0
# Timed passes a run makes per 30 s of --seconds. A run makes a fixed
# number of passes rather than passing until a clock runs out: the ops it
# attempts, and those that fail, are then a function of the seed alone and
# repeat exactly between runs. On a 2-vCPU x86-64 VM a pass takes about
# 7, 8 and 16 s. full_deep gets the most passes because its 3-to-4-s
# N = 17 ops normalize worst (a 50-ms kernel before and after misses the
# speed changes inside them); certify_batch, the steadiest, gets fewest.
PASSES_PER_30S = {"full_deep": 5, "certify_batch": 2, "steer_mix": 2}


def pass_count(workload: str, seconds: float, tracing: bool) -> int:
    """Timed passes in a run: at least one, and one traced plus one untraced when tracing."""
    return max(2 if tracing else 1, round(PASSES_PER_30S[workload] * seconds / 30))


def parse_report(text: str) -> dict[str, str]:
    """The CLI's ``key: value`` report as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


class Outcomes:
    """Checks every op's output and keeps failures and health figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures the program did not report itself
        self.deviation: dict[int, float] = {}  # synthesize horizon -> terminal deviation
        self.gramian_min_sv: float | None = None

    def check(self, op: workloads.Op, rc, out: str, err: str, counted: bool = True) -> None:
        report = parse_report(out)
        if rc is not None and rc <= 1 and report.get("command") != op.command:
            self._problem(op, rc, f"report lacks 'command: {op.command}'")
            rc = None
        deviation = float(report["terminal_deviation"]) if "terminal_deviation" in report else None
        # A tolerance failure is one the program states in its own report:
        # synthesize exiting 0 or verify exiting 1 with deviation > tol.
        over_tol = (
            deviation is not None
            and deviation > workloads.STEER_TOL
            and (op.command, rc) in (("synthesize", 0), ("verify", 1))
        )
        if counted:
            self.attempted += 1
            if rc != op.expect or over_tol:
                self.failed += 1
        if rc != op.expect and not over_tol:
            self._problem(op, rc, err.strip().splitlines()[-1] if err.strip() else "no message")
        if counted and deviation is not None and op.command == "synthesize":
            self.deviation[op.N] = max(self.deviation.get(op.N, 0.0), deviation)
        sv = report.get("gramian_min_singular")
        if sv is None and op.command == "analyze" and rc == 0:
            sv = report.get(f"min_singular_{report.get('N_max')}")
        if counted and sv is not None:
            value = float(sv)
            self.gramian_min_sv = value if self.gramian_min_sv is None else min(self.gramian_min_sv, value)

    def _problem(self, op, rc, message) -> None:
        text = f"{op.command} {os.path.basename(op.instance)} N={op.N}: exit {rc}, expected {op.expect}: {message}"
        if len(self.problems) < 20:
            self.problems.append(text)

    def health(self) -> dict[str, float]:
        def worst(lo, hi):
            return max([v for N, v in self.deviation.items() if lo <= N <= hi], default=0.0)

        return {
            "health.terminal_dev_N10": worst(0, 10),
            "health.terminal_dev_N14": worst(11, 14),
            "health.terminal_dev_N17": worst(15, 17),
            "health.terminal_dev_max": max(self.deviation.values(), default=0.0),
            "health.gramian_min_sv": self.gramian_min_sv if self.gramian_min_sv is not None else 0.0,
        }


def run_op(op: workloads.Op):
    """Run one CLI invocation; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = stochctrl.cli.main(op.argv())  # looked up now, so a traced wrapper is used
    except Exception:  # an op that crashes counts as failed; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Bracketed:
    """Times ops in blocks bracketed by the reference kernel.

    Each op's normalized time is ``wall * R0 / mean(kernel before, kernel
    after)`` of its block; consecutive blocks share the kernel run
    between them.
    """

    def __init__(self, first_kernel: float):
        self.kernels = [first_kernel]
        self._block: list[dict] = []

    def add(self, record: dict) -> None:
        self._block.append(record)
        if sum(r["wall"] for r in self._block) >= BLOCK_S:
            self.close()

    def close(self) -> None:
        if not self._block:
            return
        after = kernel.reference_kernel()
        factor = kernel.R0 / statistics.fmean([self.kernels[-1], after])
        self.kernels.append(after)
        for record in self._block:
            record["factor"] = factor
            record["norm"] = record["wall"] * factor
        self._block = []


def run_pass(ops, outcomes: Outcomes, timer: Bracketed, tracer: spans.Tracer | None) -> list[dict]:
    records = []
    for op in ops:
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        rc, out, err = run_op(op)
        wall = time.perf_counter() - t0
        record = {"phase": op.phase, "wall": wall, "spans": (first, len(tracer.spans) if tracer else 0)}
        outcomes.check(op, rc, out, err)
        timer.add(record)
        records.append(record)
    timer.close()
    return records


def pass_summary(records) -> dict:
    out = {"wall": sum(r["wall"] for r in records), "norm": sum(r["norm"] for r in records)}
    for phase in ("solve", "check"):
        out[f"raw_{phase}"] = sum(r["wall"] for r in records if r["phase"] == phase)
        out[f"norm_{phase}"] = sum(r["norm"] for r in records if r["phase"] == phase)
    return out


def layer_figures(tracer: spans.Tracer, traced_passes, warm_spans, setup_spans, setup_factor) -> dict:
    """Per-layer self times and counts per traced pass.

    Times also take the warm-up's small share, so a layer that this
    workload's passes never call still shows its (small, measured) warm-up
    cost instead of a constant zero. Counts cover the passes only, so they
    repeat exactly. ``sampling.draw_s`` is instead the inclusive time of
    the sampling calls that generated the inputs, once per run.
    """
    times = dict.fromkeys(spans.LAYERS, 0.0)
    counts = dict.fromkeys(spans.COUNTS, 0.0)
    ops = [(r["spans"], r["factor"]) for records in traced_passes for r in records]
    for (first, last), factor in ops + [(warm_spans, setup_factor)]:
        for layer, seconds in tracer.self_times(first, last).items():
            times[layer] += seconds * factor
    for (first, last), _ in ops:
        for key, value in tracer.counts_in(first, last).items():
            counts[key] += value
    passes = len(traced_passes)
    out = {f"{layer}_s": seconds / passes for layer, seconds in times.items()}
    out.update({key: value / passes for key, value in counts.items()})
    out["sampling.draw_s"] = tracer.inclusive_time("sampling.draw", *setup_spans) * setup_factor
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true", help="tiny horizons (smoke mode)")
    parser.add_argument("--t0", type=float, required=True, help="perf_counter when the process was started")
    parser.add_argument("--pre-kernel", type=float, required=True, help="kernel wall just before the start")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir)
    try:
        result = measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(args) -> dict:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    outcomes = Outcomes()

    ops = workloads.build(args.workload, args.seed, args.workdir, small=args.small)
    setup_spans = len(tracer.spans) if tracer else 0
    # Warm-up: every workload's op list at tiny horizons, so lazy imports
    # and every code path the passes can reach are warm before timing.
    warm_dir = os.path.join(args.workdir, "warm")
    os.makedirs(warm_dir)
    warm_ops = [op for name in workloads.WORKLOADS for op in workloads.build(name, args.seed, warm_dir, small=True)]
    warm_first = len(tracer.spans) if tracer else 0
    for op in warm_ops:
        outcomes.check(op, *run_op(op), counted=False)
    warm_last = len(tracer.spans) if tracer else 0
    ready = time.perf_counter()
    post_kernel = kernel.reference_kernel()
    setup_wall = ready - args.t0
    setup_factor = kernel.R0 / statistics.fmean([args.pre_kernel, post_kernel])
    result = {
        "setup_wall": setup_wall,
        "setup_norm": setup_wall * setup_factor,
        "correct": not outcomes.problems,
        "problems": outcomes.problems,
    }
    if args.setup_only:
        return result
    if tracer:
        tracer.uninstall()

    timer = Bracketed(post_kernel)
    untraced, traced = [], []
    for index in range(pass_count(args.workload, args.seconds, tracer is not None)):
        tracing = tracer is not None and index % 2 == 1  # untraced first, then alternating
        if tracing:
            tracer.install()
        records = run_pass(ops, outcomes, timer, tracer if tracing else None)
        if tracing:
            tracer.uninstall()
        (traced if tracing else untraced).append(records)

    result.update(
        correct=not outcomes.problems,
        problems=outcomes.problems,
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        passes=[pass_summary(p) for p in untraced],
        kernels=timer.kernels,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        health=outcomes.health(),
    )
    if tracer:
        result["traced_passes"] = [pass_summary(p) for p in traced]
        result["layers"] = layer_figures(
            tracer, traced, (warm_first, warm_last), (0, setup_spans), setup_factor
        )
        if args.spans:
            tracer.write(args.spans)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
