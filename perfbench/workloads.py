"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

Every workload is a sequence of rounds. Round j of workload w under benchmark
seed S draws its inputs from ``random.Random(f"{w}/{S}/{j}")``, so the same
seed always gives the same inputs and the library's own generator never
decides what the benchmark feeds it. A round is a list of ``Op``: ``run`` is
the timed call into the library, ``check`` inspects its output afterwards and
is never timed.

The library is imported from ``src/`` of the current directory, which must be
the root of a checkout; a haltonclt installed elsewhere is never used.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SRC = Path.cwd() / "src"
if not (SRC / "haltonclt" / "__init__.py").is_file():
    raise SystemExit(
        f"perfbench: no haltonclt sources under {SRC}; run from the repository root"
    )
sys.path.insert(0, str(SRC))

from haltonclt import cli, discrepancy, kernel, odometer, spectral  # noqa: E402

OUT = Path.cwd() / ".perfbench_out"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("clt-out", "clt-sweep", "oracle")

CLT_OUT_N = 2**20
HIST_BINS = 32
# (label, primes, corner, N) for the in-memory sweep
SWEEP = (
    ("s1", (2,), ("1/3",), 2**22),
    ("s2", (2, 3), ("1/5", "2/5"), 2**20),
    ("s3", (2, 3, 5), ("1/3", "2/5", "3/7"), 2**20),
)
# oracle shapes, as in acceptance criteria 1 and 2
ORACLE_BASES = ((2,), (2, 3), (3, 5))
PAIRS_PER_BASIS = 100
PAIR_MAX_L = 2048
PAIR_MAX_M = 12
FRAMES_PER_BASIS = 17
FRAME_MAX_MODULUS = 4096
FRAME_MAX_L = 10**4
FOURIER_TOLERANCE = 1e-9
# D(k) is checked against the naive counter at this many k < NAIVE_CHECK_K
NAIVE_CHECK_SAMPLES = 3
NAIVE_CHECK_K = 4096


def no_span(name: str):
    """Stand-in for ``Tracer.span`` when a run is not traced."""
    return contextlib.nullcontext()


@dataclass
class Op:
    """One timed operation and the check of what it produced."""

    kind: str
    steps: int  # orbit steps the operation covers: N of a clt run, 2L of a pair
    run: Callable  # run(span) -> result; span(name) opens a benchmark-level span
    check: Callable  # check(result) -> None, or a message saying what is wrong
    pin_key: str | None = None  # where golden.json keeps this output's digests


def round_ops(workload: str, seed: int, j: int) -> list[Op]:
    rnd = random.Random(f"{workload}/{seed}/{j}")
    if workload == "clt-out":
        return [_clt_out_op(rnd.getrandbits(64))]
    if workload == "clt-sweep":
        return [_sweep_op(spec, rnd.getrandbits(64)) for spec in SWEEP]
    if workload == "oracle":
        return _oracle_ops(rnd)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


# ---------------------------------------------------------------------------
# digests pinned at the seed commit


def record_digest(record: dict) -> str:
    """sha256 of the record minus ``timings``, serialized as ``run_clt`` writes it."""
    body = {k: v for k, v in record.items() if k != "timings"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(op: Op, result) -> dict:
    """The digests golden.json pins for the output of a clt-out or clt-sweep op."""
    if op.kind == "clt-out":
        record = json.loads((OUT / "clt-out" / "record.json").read_text())
        return {
            "record": record_digest(record),
            "series": file_digest(OUT / "clt-out" / "series.csv"),
        }
    return {"record": record_digest(result)}


def _differs_from_pinned(op: Op, result) -> bool:
    pinned = load_golden().get(op.kind, {}).get(op.pin_key)
    return pinned is not None and pinned != output_digests(op, result)


# ---------------------------------------------------------------------------
# clt-out: clt --out, then histogram, both through cli.main


def _clt_out_op(clt_seed: int) -> Op:
    argv = [
        "clt", "--primes", "2", "--y", "1/3", "--N", str(CLT_OUT_N),
        "--seed", str(clt_seed), "--out", str(OUT / "clt-out"),
    ]
    hist_argv = ["histogram", "--out", str(OUT / "clt-out"), "--bins", str(HIST_BINS)]

    def run(span):
        with contextlib.redirect_stdout(io.StringIO()):
            with span("cli.clt"):
                rc_clt = cli.main(argv)
            with span("cli.histogram"):
                rc_hist = cli.main(hist_argv)
        return rc_clt, rc_hist

    def check(result):
        if result != (0, 0):
            return f"exit codes clt={result[0]} histogram={result[1]}"
        if _differs_from_pinned(op, result):
            return "record.json (minus timings) or series.csv differs from golden.json"
        return _check_clt_out(OUT / "clt-out", clt_seed)

    op = Op("clt-out", CLT_OUT_N, run, check, pin_key=str(clt_seed))
    return op


def _check_clt_out(out_dir: Path, clt_seed: int) -> str | None:
    """Check record.json, series.csv and histogram.csv of one clt-out operation."""
    record = json.loads((out_dir / "record.json").read_text())
    series_path = out_dir / "series.csv"
    if record["config"]["N"] != CLT_OUT_N or record["config"]["seed"] != clt_seed:
        return f"record config {record['config']} does not echo the request"
    with open(series_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        head = list(itertools.islice(reader, NAIVE_CHECK_K))
        rows = 1 + len(head) + sum(1 for _ in reader)
    if header[:4] != ["k", "count", "discrepancy_num", "discrepancy_den"]:
        return f"series.csv header {header}"
    if rows != CLT_OUT_N + 1:
        return f"series.csv has {rows} lines, expected {CLT_OUT_N + 1}"
    volume = Fraction(1, 3)
    values = {}
    for row in head:
        k, count = int(row[0]), int(row[1])
        d = Fraction(int(row[2]), int(row[3]))
        if count - 2 * k * volume != d:
            return f"series.csv row {k}: count {count} disagrees with D = {d}"
        values[k] = d
    if sorted(values) != list(range(NAIVE_CHECK_K)):
        return "series.csv does not start with rows k = 0, 1, 2, ..."
    problem = _check_against_naive(record, values, clt_seed)
    if problem:
        return problem
    with open(out_dir / "histogram.csv", newline="") as fh:
        hist = list(csv.DictReader(fh))
    observed = sum(int(r["observed"]) for r in hist)
    if len(hist) != HIST_BINS or observed != CLT_OUT_N:
        return f"histogram has {len(hist)} bins observing {observed} of {CLT_OUT_N}"
    return None


def _run_point(record: dict):
    basis = kernel.PrimeBasis(tuple(record["config"]["primes"]))
    p = record["point"]
    point = odometer.DigitPoint(
        basis, tuple(p["depths"]), tuple(int(v) for v in p["values"]), p["guard"]
    )
    y = tuple(kernel.parse_rational(t) for t in record["config"]["y"])
    return point, discrepancy.BoxTarget.create(basis, y)


def _check_against_naive(record: dict, values: dict, clt_seed: int) -> str | None:
    """D(k) at a seeded sample of k must equal the naive window count at L = k."""
    point, box = _run_point(record)
    sample = random.Random(f"naive-check/{clt_seed}").sample(
        range(NAIVE_CHECK_K), NAIVE_CHECK_SAMPLES
    )
    for k in sample:
        naive = discrepancy.two_sided_discrepancy_naive(point, box, k)
        if values[k] != naive:
            return f"D({k}) = {values[k]} but the naive counter gives {naive}"
    return None


# ---------------------------------------------------------------------------
# clt-sweep: run_clt in memory on three dimensions


def _sweep_op(spec, clt_seed: int) -> Op:
    label, primes, corner, n = spec
    config = cli.ExperimentConfig(
        primes=primes,
        y=tuple(kernel.parse_rational(t) for t in corner),
        n=n,
        seed=clt_seed,
    )

    def run(span):
        return cli.run_clt(config)

    def check(record):
        if _differs_from_pinned(op, record):
            return f"{label} record (minus timings) differs from golden.json"
        return _check_sweep(record, label, n, clt_seed)

    op = Op("clt-sweep", n, run, check, pin_key=f"{label}:{clt_seed}")
    return op


def _check_sweep(record: dict, label: str, n: int, clt_seed: int) -> str | None:
    stats = record["stats"]
    if record["config"]["N"] != n or record["config"]["seed"] != clt_seed:
        return f"record config {record['config']} does not echo the request"
    if stats["N"] != n or not stats["H_ddot"] > 0 or not 0 <= stats["ks_distance"] <= 1:
        return f"{label} stats out of range: {stats}"
    # run_clt keeps its series in memory; rebuild the head of the series for the
    # run's own point and hold it to the naive counter
    point, box = _run_point(record)
    head = discrepancy.discrepancy_series(point, box, NAIVE_CHECK_K)
    values = {k: head.value(k) for k in range(NAIVE_CHECK_K)}
    return _check_against_naive(record, values, clt_seed)


# ---------------------------------------------------------------------------
# oracle: fast vs naive pairs, Fourier vs direct frames, the verify suites


def _guarded_point(rnd: random.Random, basis, L: int, min_depth: int):
    depths, values = [], []
    for p in basis.primes:
        d = min_depth
        while p**d < 4 * L:
            d += 1
        depths.append(d)
        values.append(L + rnd.randrange(p**d - 2 * L))
    return odometer.DigitPoint(basis, tuple(depths), tuple(values), guard=L)


def _stratified(rnd: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], one from each of n equal strata, in seeded order."""
    width = (hi - lo + 1) / n
    values = [lo + int((i + rnd.random()) * width) for i in range(n)]
    rnd.shuffle(values)
    return values


def _corner(basis, numerators):
    y = tuple(Fraction(k, 1000) for k in numerators)
    return discrepancy.BoxTarget.create(basis, y)


# The oracle's inputs have the ranges of acceptance criteria 1 and 2, but are
# drawn by stratified sampling rather than independently: the naive counter's
# cost grows with L and with the digit depth max(m, log_p 4L), and the Fourier
# loop's with P_r, so independent draws would make the work of a round, and
# with it every rate, depend on the seed by about 10%.
def _oracle_ops(rnd: random.Random) -> list[Op]:
    ops = []
    for primes in ORACLE_BASES:
        basis = kernel.PrimeBasis(primes)
        # L in strata of increasing size; m = 1 + 5i mod 12 gives every block
        # of 12 consecutive strata each depth once
        lengths = sorted(_stratified(rnd, PAIRS_PER_BASIS, 1, PAIR_MAX_L))
        corners = [_stratified(rnd, PAIRS_PER_BASIS, 1, 998) for _ in primes]
        for i, L in enumerate(lengths):
            m = 1 + 5 * i % PAIR_MAX_M
            x = _guarded_point(rnd, basis, L, m)
            box = _corner(basis, (c[i] for c in corners))
            ops.append(_pair_op(x, box, L, m))
    for primes in ORACLE_BASES:
        basis = kernel.PrimeBasis(primes)
        # a systematic sample of the admissible r ordered by P_r, at a seeded
        # offset: each r is as likely as under rejection sampling
        admissible = sorted(
            (r for r in itertools.product(range(1, 7), repeat=basis.s)
             if basis.modulus(r) <= FRAME_MAX_MODULUS),
            key=basis.modulus,
        )
        offset = rnd.random()
        corners = [_stratified(rnd, FRAMES_PER_BASIS, 1, 998) for _ in primes]
        for i in range(FRAMES_PER_BASIS):
            r = admissible[int((i + offset) * len(admissible) / FRAMES_PER_BASIS)]
            L = rnd.randint(1, FRAME_MAX_L)
            x = _guarded_point(rnd, basis, L, max(r))
            box = _corner(basis, (c[i] for c in corners))
            ops.append(_frame_op(basis, r, x, box, L))
    for suite in cli.VERIFY_SUITES:
        ops.append(_suite_op(suite, rnd.getrandbits(32)))
    return ops


def _pair_op(x, box, L: int, m: int) -> Op:
    def run(span):
        fast = discrepancy.fast_two_sided_discrepancy(x, box, L, m)
        naive = discrepancy.two_sided_discrepancy_naive(
            x, box, L, corner=box.truncated(m)
        )
        return fast, naive

    def check(result):
        fast, naive = result
        if fast != naive:
            return f"fast {fast} != naive {naive} (primes={x.basis.primes} L={L} m={m})"
        return None

    return Op("pair", 2 * L, run, check)


def _frame_op(basis, r, x, box, L: int) -> Op:
    def run(span):
        frame = discrepancy.crt_frame(basis, r, x, box)
        return (
            spectral.cell_sum_direct(frame, box, L),
            spectral.cell_sum_fourier(frame, box, L),
        )

    def check(result):
        direct, fourier = result
        gap = max(abs(fourier.real - float(direct)), abs(fourier.imag))
        if not gap <= FOURIER_TOLERANCE:
            return f"Fourier vs direct gap {gap:.3e} (primes={basis.primes} r={r} L={L})"
        return None

    return Op("frame", 0, run, check)


def _suite_op(suite: str, verify_seed: int) -> Op:
    argv = ["verify", suite, "--seed", str(verify_seed)]

    def run(span):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), span(f"cli.verify.{suite}"):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(result):
        rc, text = result
        if rc != 0 or "PASS" not in text:
            return f"verify {suite} --seed {verify_seed}: exit {rc}, {text.strip()!r}"
        return None

    return Op("suite", 0, run, check)
