#!/usr/bin/env python3
"""sturmkit benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload indist-deep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` ops run one at a time (closed loop, one client, no threads)
until they have been busy for ``--seconds`` seconds, and the last stdout line
is a JSON object with the end-to-end metrics.  With ``--trace 1`` the
workload's trace ops run once untraced and once traced, and the JSON holds
the per-layer metrics plus the tracing overhead; spans are written to
``bench/results/``.  Every op's answer is checked; see ``workloads``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency


def load_library() -> None:
    package = ROOT / "src" / "sturmkit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a sturmkit checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _plain(index: int, op):
    return op.run()


def run_ops(ops, seconds=None, call=_plain) -> tuple[list[float], int]:
    """Run ops one at a time, cycling until they have been busy `seconds`
    seconds, or once through when `seconds` is None.  Returns the latencies
    and the number of ops whose answer failed its check."""
    latencies: list[float] = []
    failed = busy = 0
    gc.collect()
    for index, op in enumerate(ops if seconds is None else itertools.cycle(ops)):
        err = answer = None
        t0 = perf_counter()
        try:
            answer = call(index, op)
        except Exception as exc:  # an op that raises is a failed op
            err = exc
        elapsed = perf_counter() - t0
        latencies.append(elapsed)
        busy += elapsed
        if not op.check(answer, err):
            failed += 1
        if seconds is not None and busy >= seconds:
            break
    return latencies, failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest latency with at least TAIL_BEYOND samples beyond it, and
    its percentile; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    k = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        k -= TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from process start to the first op, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        t1 = perf_counter()
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("error: set-up probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {err.strip()}")
        times.append(t1 - t0)
    return times


def end_to_end(ops, seconds: float, setup_times: list[float]) -> dict:
    latencies, failed = run_ops(ops, seconds)
    tail_s, tail_pct = tail(latencies)
    n = len(latencies)
    metrics = {
        "ops_per_s": (n / sum(latencies), "op/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"ops={n} failed={failed} fail_ratio={failed / n} "
          f"op_tail_ms=p{tail_pct:.2f} over {n} samples "
          f"setup_s samples={[round(t, 4) for t in setup_times]}")
    return {"attempted": n, "failed": failed, "metrics": metrics}


def traced(ops, workload: str, seed: int) -> dict:
    from layertrace import Tracer

    plain, plain_failed = run_ops(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced_lat, traced_failed = run_ops(
            ops, call=lambda index, op: tracer.run_op(index, op.kind, op.run))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.untraced_op_s"] = (sum(plain), "s")
    metrics["trace.traced_op_s"] = (sum(traced_lat), "s")
    metrics["trace.overhead_ratio"] = (sum(traced_lat) / sum(plain), "ratio")
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"ops={len(ops)} per pass; spans={len(tracer.spans)} "
          f"dropped={tracer.dropped} written to {spans.relative_to(ROOT)}")
    return {"attempted": 2 * len(ops), "failed": plain_failed + traced_failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        result = traced(build(args.seed).trace_ops(), args.workload, args.seed)
    else:
        setup_times = measure_setup(args.workload, args.seed)
        result = end_to_end(build(args.seed).ops, args.seconds, setup_times)
    doc = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
