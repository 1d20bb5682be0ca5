"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload clt-out --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``
there. The untraced run (``--trace 0``) runs whole rounds of the workload
until the timed operations add up to ``--seconds``, checks each operation's
output outside the timed interval, and prints the end-to-end metrics. The
traced run (``--trace 1``) runs each operation of round 0 untraced and then
traced, and prints the per-layer metrics with the tracing overhead (traced minus
untraced wall time); its spans go to ``.perfbench_out/``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # exits unless the current directory holds src/haltonclt
from spans import Tracer

SETUP_SAMPLES = 5
PROBE = Path(__file__).with_name("probe.py")

PER_LAYER_TIMES = {
    # span name -> metric; each is that span's self time
    "cli.clt": "cli.clt_s",
    "cli.run_clt": "cli.run_clt.self_s",
    "cli.write_series_csv": "cli.write_series_csv_s",
    "cli.histogram": "cli.histogram_s",
    "cli.read_series_csv": "cli.read_series_csv_s",
    "cli.emit_histogram": "cli.emit_histogram_s",
    **{f"cli.verify.{s}": f"cli.verify.{s}_s" for s in workloads.cli.VERIFY_SUITES},
    "discrepancy.series": "discrepancy.series_s",
    "discrepancy.fast": "discrepancy.fast_s",
    "discrepancy.naive": "discrepancy.naive_s",
    "odometer.jump": "odometer.jump_s",
    "spectral.cell_direct": "spectral.cell_direct_s",
    "spectral.cell_fourier": "spectral.cell_fourier_s",
    "temporal.moments": "temporal.moments_s",
    "temporal.normalize": "temporal.normalize.self_s",
    "temporal.condition": "temporal.condition_s",
    "bench.op": "bench.op.self_s",
}
PER_LAYER_CALLS = {"odometer.jump": "odometer.jump_calls",
                   "temporal.moments": "temporal.moments_calls"}
PER_LAYER_COUNTS = (
    "discrepancy.series_steps", "discrepancy.crt_frames",
    "kernel.count_residue_calls", "discrepancy.naive_points",
    "kernel.digit_reverse_calls", "spectral.frequencies", "rng.draws",
)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to its inputs being ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


class Tally:
    """Durations, steps and failures of the operations of one run."""

    def __init__(self):
        self.durations: list[float] = []
        self.steps = 0
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.durations)

    def run(self, op, span=workloads.no_span, operation=contextlib.nullcontext):
        """Time op.run, then check its result untimed; a failure never escapes."""
        t0 = time.perf_counter()
        try:
            with operation():
                result = op.run(span)
        except Exception:
            self.durations.append(time.perf_counter() - t0)
            self.failures.append(f"{op.kind} raised:\n{traceback.format_exc()}")
            return
        self.durations.append(time.perf_counter() - t0)
        self.steps += op.steps
        try:
            problem = op.check(result)
        except Exception:
            problem = f"check raised:\n{traceback.format_exc()}"
        if problem:
            self.failures.append(f"{op.kind}: {problem}")


def tail(durations: list[float]) -> tuple[int, float, int] | None:
    """(percentile, value, operations beyond it): the highest percentile with
    at least 10 operations beyond it, or None below 20 operations."""
    n = len(durations)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(durations)[rank - 1], n - rank


def untraced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    j = 0
    while tally.wall < seconds:
        for op in workloads.round_ops(workload, seed, j):
            tally.run(op)
        j += 1
    ops = len(tally.durations)
    metrics = {
        "steps_per_s": (tally.steps / tally.wall, "1/s"),
        "cases_per_s": (ops / tally.wall, "1/s"),
        "op_p50_s": (statistics.median(tally.durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload} seed {seed}: {j} rounds, {ops} operations, "
          f"{tally.wall:.3f} s timed")
    found = tail(tally.durations)
    if found:
        pct, value, beyond = found
        print(f"  op_tail_s      {value:.6g} s  (p{pct}, {beyond} operations beyond)")
    else:
        print(f"  op_tail_s      omitted: {ops} operations, fewer than 20")
    print(f"  error_rate     {len(tally.failures) / ops:.6g}  "
          f"({len(tally.failures)} of {ops} failed)")
    return tally, metrics


def traced(workload: str, seed: int) -> tuple[Tally, dict]:
    # each operation runs untraced, then traced, so that drifts in the host's
    # speed fall on both passes alike
    plain, tally, tracer = Tally(), Tally(), Tracer()
    twins = zip(workloads.round_ops(workload, seed, 0), workloads.round_ops(workload, seed, 0))
    for op, twin in twins:
        plain.run(op)
        tally.run(twin, tracer.span, tracer.operation)
    own = tracer.self_times()
    calls = tracer.span_counts()
    metrics = {m: (own.get(name, 0.0), "s") for name, m in PER_LAYER_TIMES.items()}
    metrics.update({m: (calls.get(name, 0), "count") for name, m in PER_LAYER_CALLS.items()})
    metrics.update({m: (tracer.counts[m], "count") for m in PER_LAYER_COUNTS})
    metrics["cli.csv_bytes"] = (tracer.counts["cli.csv_bytes"], "B")
    below_draws = tracer.counts["rng.below_draws"]
    metrics["rng.accept_ratio"] = (
        tracer.counts["rng.below_accepted"] / below_draws if below_draws else 0.0, "ratio"
    )
    metrics["trace.untraced_wall_s"] = (plain.wall, "s")
    metrics["trace.overhead_s"] = (tally.wall - plain.wall, "s")
    spans_path = workloads.OUT / f"trace-{workload}-{seed}.csv"
    tracer.write(spans_path)
    self_sum = sum(own.values())
    print(f"{workload} seed {seed}, round 0: untraced {plain.wall:.3f} s, "
          f"traced {tally.wall:.3f} s, overhead {tally.wall - plain.wall:+.3f} s")
    print(f"  self times add up to {self_sum:.3f} s; "
          f"{len(tracer.spans) // 6} spans written to {spans_path}")
    for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {value:10.4f} s  {calls.get(name, 0):8d} spans")
    # attempted and failed cover both passes
    plain.failures += tally.failures
    plain.durations += tally.durations
    return plain, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        tally, metrics = traced(args.workload, args.seed)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        tally, metrics = untraced(args.workload, args.seed, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.durations),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
