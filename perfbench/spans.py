"""Spans and counts recorded around calls into the library, from outside it.

``Tracer.operation()`` replaces the traced public functions in every haltonclt
module namespace that holds them, so calls the library makes to itself (such
as ``jump`` inside the naive counter) are seen too, and puts the originals
back when the operation ends, so output checks are never traced. Each span is
six integers kept in memory: operation id, span id, parent span id, name
index, start and end in nanoseconds. A layer's self time is its spans'
durations minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import haltonclt
from haltonclt import cli, discrepancy, kernel, odometer, rng, spectral, temporal

MODULES = (haltonclt, kernel, odometer, discrepancy, spectral, temporal, cli, rng)

ROOT_SPAN = "bench.op"

# (function, span name, weigh): weigh(args) -> (count name, amount), or None
SPANS = (
    (cli.run_clt, "cli.run_clt", None),
    (cli.write_series_csv, "cli.write_series_csv",
     lambda a: ("cli.csv_bytes", os.path.getsize(a[0]))),
    (cli.read_series_csv, "cli.read_series_csv", None),
    (cli.emit_histogram, "cli.emit_histogram", None),
    (discrepancy.discrepancy_series, "discrepancy.series",
     lambda a: ("discrepancy.series_steps", a[2])),
    (discrepancy.fast_two_sided_discrepancy, "discrepancy.fast", None),
    (discrepancy.two_sided_discrepancy_naive, "discrepancy.naive",
     lambda a: ("discrepancy.naive_points", 2 * a[2])),
    (odometer.jump, "odometer.jump", None),
    (spectral.cell_sum_direct, "spectral.cell_direct", None),
    (spectral.cell_sum_fourier, "spectral.cell_fourier",
     lambda a: ("spectral.frequencies", a[0].p_r - 1)),
    (temporal.temporal_moments, "temporal.moments", None),
    (temporal.normalize_and_test, "temporal.normalize", None),
    (temporal.condition_check, "temporal.condition", None),
)
# calls counted without a span: too frequent or too small to time one by one
COUNTED = (
    (discrepancy.crt_frame, "discrepancy.crt_frames"),
    (kernel.count_residue_in_range, "kernel.count_residue_calls"),
    (kernel.digit_reverse, "kernel.digit_reverse_calls"),
)


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._op = 0
        self._patches = []
        for fn, name, weigh in SPANS:
            self._patch_function(fn, self._span_wrapper(fn, name, weigh))
        for fn, name in COUNTED:
            self._patch_function(fn, self._count_wrapper(fn, name))
        draws = self._count_wrapper(rng.CounterRng.next_u64, "rng.draws")
        self._patches.append((rng.CounterRng, "next_u64", draws))
        self._patches.append((rng.CounterRng, "below", self._below_wrapper()))

    # -- installing -----------------------------------------------------------

    def _patch_function(self, fn, wrapper):
        for module in MODULES:
            for attr, value in vars(module).items():
                if value is fn:
                    self._patches.append((module, attr, wrapper))

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        try:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, fn, name, weigh):
        idx = self._name_index(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((self._op, sid, parent, idx, t0, t1))
            if weigh is not None:
                key, amount = weigh(args)
                self.counts[key] += amount
            return result

        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _below_wrapper(self):
        original, counts = rng.CounterRng.below, self.counts

        def below(gen, bound):
            before = gen.counter
            result = original(gen, bound)
            if gen.counter > before:
                counts["rng.below_draws"] += gen.counter - before
                counts["rng.below_accepted"] += 1
            return result

        return below

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        idx = self._name_index(name)
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.extend((self._op, sid, parent, idx, t0, t1))

    @contextlib.contextmanager
    def operation(self):
        """Trace one benchmark operation under a root span; its spans share its id."""
        self._op += 1
        with self.installed(), self.span(ROOT_SPAN):
            yield

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        ids, parents, names = rows[:, 1], rows[:, 2], rows[:, 3]
        duration = (rows[:, 5] - rows[:, 4]).astype(np.float64)
        covered = np.bincount(parents, weights=duration, minlength=self._next_id)
        own = duration - covered[ids]
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: float(per_name[i]) * 1e-9 for i, name in enumerate(self.names)}

    def span_counts(self) -> dict[str, int]:
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        per_name = np.bincount(rows[:, 3], minlength=len(self.names))
        return {name: int(per_name[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """All spans as CSV, one per line, times relative to the first span."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        t0 = int(rows[:, 4].min()) if len(rows) else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            names = self.names
            fh.writelines(
                f"{op},{sid},{parent},{names[idx]},{start - t0},{end - t0}\n"
                for op, sid, parent, idx, start, end in rows.tolist()
            )
