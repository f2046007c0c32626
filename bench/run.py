"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload full_deep --seed 1 --seconds 30 --trace 0

Starts a fresh worker process per sample (see worker.py): four set-up-only
samples, then the measured one, so set-up time is a median of five and
peak memory belongs to the measured workload alone. Every time is in
reference-normalized seconds (kernel.py). Prints the metrics with their
units, the environment, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced and traced passes
alternately and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from env import BENCH, ROOT, pin_environment, record

pin_environment()  # before numpy loads, here and (through the environment) in workers

import kernel  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("full_deep", "certify_batch", "steer_mix")  # workloads.py needs stochctrl, so not imported here
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must exit within 180 s

END_TO_END = {"setup_s": "s", "solve_s": "s", "check_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in spans.LAYERS},
    **{name: "MB" if name.endswith("_mb") else "count" for name in spans.COUNTS},
    "health.terminal_dev_N10": "1",
    "health.terminal_dev_N14": "1",
    "health.terminal_dev_N17": "1",
    "health.terminal_dev_max": "1",
    "health.gramian_min_sv": "1",
    "ref_ms": "ms",
    "raw.setup_s": "s",
    "raw.solve_s": "s",
    "raw.check_s": "s",
    "trace.overhead_frac": "1",
}


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def spawn(args, index: int, setup_only: bool, deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    workdir = os.path.join(BENCH, "_work", f"{args.workload}-{os.getpid()}-{index}")
    pre_kernel = kernel.reference_kernel()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir]
    cmd += ["--trace", str(args.trace if not setup_only else 0), "--pre-kernel", repr(pre_kernel)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--small")
    if args.trace and not setup_only:
        cmd += ["--spans", os.path.join(BENCH, "_out", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    samples = [spawn(args, i, True, deadline) for i in range(SETUP_SAMPLES - 1)]
    run = spawn(args, SETUP_SAMPLES - 1, False, deadline)
    samples.append(run)
    passes = run["passes"]
    metrics = {
        "setup_s": statistics.median(s["setup_norm"] for s in samples),
        "solve_s": statistics.median(p["norm_solve"] for p in passes),
        "check_s": statistics.median(p["norm_check"] for p in passes),
        "peak_rss_mb": run["peak_rss_mb"],
        "ref_ms": statistics.median(run["kernels"]) * 1000,
        # Set-up samples of untraced workers only: tracing slows set-up.
        "raw.setup_s": statistics.median(s["setup_wall"] for s in samples if not args.trace or s is not run),
        "raw.solve_s": statistics.median(p["raw_solve"] for p in passes),
        "raw.check_s": statistics.median(p["raw_check"] for p in passes),
    }
    if args.trace:
        traced = statistics.median(p["norm"] for p in run["traced_passes"])
        metrics["trace.overhead_frac"] = traced / statistics.median(p["norm"] for p in passes) - 1
        metrics.update(run["layers"])
        metrics.update(run["health"])
    problems = [p for s in samples for p in s["problems"]]
    return {
        "correct": all(s["correct"] for s in samples),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "passes": len(passes),
        "traced_passes": len(run.get("traced_passes", [])),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sets the number of timed passes (worker.PASSES_PER_30S)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, for the benchmark's own test")
    parser.add_argument("--record", default=None, help="append the full result as one JSON line here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stochctrl", "cli.py")):
        return fail(f"no stochctrl sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    try:
        result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"run failed: {exc}")
    finally:
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.join(BENCH, "_work"))

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in wanted.items()}
    environment = record()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"passes {result['passes']} untraced, {result['traced_passes']} traced")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"ops {result['attempted']}  ops_failed {result['failed']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if args.record:
        full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        full.update(env=environment, **{k: result[k] for k in ("correct", "attempted", "failed")})
        full.update(metrics=metrics, diagnostics={k: result["metrics"][k] for k in PER_LAYER if k in result["metrics"]})
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(full) + "\n")
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
