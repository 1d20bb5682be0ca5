"""Command-line front end: config parsing, seeded sampling, experiment runs.

Configs are line-oriented ``key = value`` text with exact rational literals
("y = 1/3, 2/5"), so no decimal float ever feeds the exact arithmetic.  All
outputs are deterministic functions of (config, seed) except the timing
fields.

Exit codes: 0 pass, 1 verification failure, 2 precondition/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .discrepancy import (
    BoxTarget,
    DiscrepancySeries,
    crt_frame,
    discrepancy_series,
    fast_two_sided_discrepancy,
    two_sided_discrepancy_naive,
)
from .kernel import PrimeBasis, format_rational, parse_rational
from .odometer import (
    DigitPoint,
    GuardExhausted,
    forward_orbit_from_zero,
    halton,
    inverse_step,
    step,
)
from .rng import CounterRng
from .temporal import (
    ConditionReport,
    TemporalStats,
    condition_check,
    normal_cdf,
    normalize_and_test,
    temporal_moments,
    theorem_window,
)


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    primes: tuple[int, ...] = (2,)
    y: tuple[Fraction, ...] = (Fraction(1, 3),)
    n: int = 2**14
    seed: int = 0
    kappa1: Fraction = Fraction(2, 3)
    out: Path | None = None
    require_feasible: bool = False

    def __post_init__(self):
        self.basis = PrimeBasis(self.primes)
        if len(self.y) != self.basis.s:
            raise ConfigError("y dimension must match the prime basis")
        for v in self.y:
            if not 0 < v < 1:
                raise ConfigError(f"y coordinates must lie in (0,1), got {v}")
        if self.n < 2:
            raise ConfigError("N must be >= 2")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not 0 < self.kappa1 <= 1:
            raise ConfigError("kappa1 must lie in (0,1]")
        if self.require_feasible:
            box = BoxTarget.create(self.basis, self.y)
            if not condition_check(box, self.kappa1).feasible:
                corner = ", ".join(format_rational(v) for v in self.y)
                raise ConfigError(
                    f"the digit condition fails for y = {corner} at "
                    f"kappa1 = {format_rational(self.kappa1)} (kappa2 = 0)"
                )


def parse_config_file(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ConfigError(f"not a boolean: {text!r}; use true/false, yes/no or 1/0")


# config file key -> (ExperimentConfig field, parser of the value text)
CONFIG_KEYS = {
    "primes": ("primes", lambda t: tuple(int(v) for v in t.split(","))),
    "y": ("y", lambda t: tuple(parse_rational(v) for v in t.split(","))),
    "N": ("n", int),
    "seed": ("seed", int),
    "kappa1": ("kappa1", parse_rational),
    "out": ("out", Path),
    "require_feasible": ("require_feasible", _parse_bool),
}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    entries: dict[str, str] = {}
    if getattr(args, "config", None):
        entries = parse_config_file(Path(args.config))
    # flags override the file
    for key in ("primes", "y", "N", "seed", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            entries[key] = str(flag)
    kwargs = {}
    for key, text in entries.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: {', '.join(CONFIG_KEYS)}"
            )
        if not text.strip():
            raise ConfigError(f"empty value for config key {key!r}")
        field, parse = CONFIG_KEYS[key]
        kwargs[field] = parse(text)
    return ExperimentConfig(**kwargs)


def sample_point(config: ExperimentConfig) -> DigitPoint:
    """Seed-deterministic initial point with an N-step guard window.

    `DigitPoint.sample` with guard N, drawn from the counter-based generator
    seeded with the config's seed; every |k| <= N jump is carry-free.
    """
    return DigitPoint.sample(config.basis, config.n, CounterRng(config.seed))


def random_multi_index(
    rng: CounterRng, basis: PrimeBasis, top: int, cap: int
) -> tuple[int, ...]:
    """r uniform on [1, top]^s conditioned on P_r <= cap, by rejection."""
    while True:
        r = tuple(1 + rng.below(top) for _ in basis.primes)
        if basis.modulus(r) <= cap:
            return r


def random_frequency(rng: CounterRng, p_r: int) -> int:
    """m uniform on the nonzero part of the symmetric residue window of P_r."""
    m = 0
    while m == 0:
        m = rng.below(p_r) - (p_r - 1) // 2
    return m


def _rational_field(x: Fraction) -> dict:
    return {"exact": format_rational(x), "float": float(x)}


def _stats_dict(stats: TemporalStats) -> dict:
    renamed = {"n": "N", "h_dot": "H_dot", "h_ddot": "H_ddot"}
    return {renamed.get(k, k): v for k, v in asdict(stats).items()}


def _condition_dict(report: ConditionReport) -> dict:
    return {
        "kappa1": _rational_field(report.kappa1),
        "densities": [_rational_field(d) for d in report.densities],
        "kappa2": _rational_field(report.kappa2),
        "kappa3": report.kappa3,
        "feasible": report.feasible,
    }


def run_clt(config: ExperimentConfig) -> dict:
    """Full pipeline; returns the RunRecord and writes CSV/JSON if out is set.

    The digit condition is checked first, so a corner whose period is too
    long to walk fails before the series is built.  The exact moments and
    series.csv read one value table, which is dropped before the float
    statistics run.  series.csv is written before record.json, so the
    record's timings include the CSV write.
    """
    t0 = time.perf_counter()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    box = BoxTarget.create(config.basis, config.y)
    condition = condition_check(box, config.kappa1)
    t_condition = time.perf_counter()
    point = sample_point(config)
    series = discrepancy_series(point, box, config.n)
    t_series = time.perf_counter()
    table = series.value_table()
    h_dot, h_ddot = temporal_moments(series, table)
    t_moments = time.perf_counter()
    csv_seconds = 0.0
    if config.out is not None:
        config.out.mkdir(parents=True, exist_ok=True)
        t_csv = time.perf_counter()
        write_series_csv(config.out / "series.csv", series, table[0])
        csv_seconds = time.perf_counter() - t_csv
    # the float statistics do not read the table, N long if all_distinct
    del table
    t_stats = time.perf_counter()
    if h_ddot > 0:
        stats = normalize_and_test(series, h_ddot, h_dot, s=config.basis.s)
    else:
        # identically-zero discrepancy (e.g. dyadic y = 1/2); no CLT statistics
        stats = TemporalStats(
            n=series.n, h_dot=float(h_dot), h_ddot=0.0, ks_distance=float("nan"),
            mean=0.0, variance=0.0, skewness=float("nan"),
            excess_kurtosis=float("nan"), scaled_rms=0.0,
        )
    t_normalize = time.perf_counter()
    if condition.feasible:
        lower, upper, kappa3 = theorem_window(
            config.basis, float(config.kappa1), float(condition.kappa2)
        )
        window = {
            "applicable": True,
            "lower": lower,
            "upper": upper,
            "kappa3": kappa3,
            "scaled_rms": stats.scaled_rms,
            "in_window": lower <= stats.scaled_rms <= upper,
        }
    else:
        window = {"applicable": False}

    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "config": {
            "primes": list(config.primes),
            "y": [format_rational(v) for v in config.y],
            "N": config.n,
            "seed": config.seed,
            "kappa1": format_rational(config.kappa1),
        },
        "point": {
            "values": [str(v) for v in point.values],
            "depths": list(point.depths),
            "guard": point.guard,
        },
        "stats": _stats_dict(stats),
        "condition": _condition_dict(condition),
        "window": window,
        "timings": {
            "condition_seconds": t_condition - t0,
            "series_seconds": t_series - t_condition,
            "moments_seconds": t_moments - t_series,
            "normalize_seconds": t_normalize - t_stats,
            "csv_seconds": csv_seconds,
            # ru_maxrss (KiB on Linux) is this run's own peak if it rose in it
            "peak_rss_mb": rss1 / 1024,
            "peak_rss_is_own": rss1 > rss0,
            "total_seconds": time.perf_counter() - t0,
        },
        "version": __version__,
    }
    if config.out is not None:
        with _create_output(config.out / "record.json") as fh:
            fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _create_output(path: Path, binary: bool = False):
    """Open a new file at `path` for writing, after unlinking what was there
    (a symlink, not its target).  Opening an existing file with "w" makes
    ext4 write its old contents back first, seconds over a big series.csv;
    an unlinked file's dirty pages are dropped.  Every CLI output opens here.
    """
    path.unlink(missing_ok=True)
    return open(path, "xb") if binary else open(path, "x", newline="")


# rows formatted and written at a time by write_series_csv
CSV_BLOCK_ROWS = 2**16


def write_series_csv(path: Path, series, values=None) -> None:
    """One row per k: the count and D(k) as a reduced fraction and a float.

    The last three columns depend only on d = D(k) * den, so they are
    formatted once per value of the series' value table (`values`, when the
    caller holds the table already): the reduced fraction is d/g over den/g
    for g = gcd(d, den), and d / den of Python ints is the correctly rounded
    float of D(k) (an int64 or float64 division is not).  Each block of
    CSV_BLOCK_ROWS rows is assembled as one NUL-padded byte matrix: the k and
    count digits, two commas and the row's tail looked up by `value_index`;
    dropping the NULs leaves the bytes csv.writer would write for the block.
    """
    den = series.volume.denominator
    if values is None:
        values, _ = series.value_table()
    index = series.value_index(values)
    # NUL-padded to the longest tail
    tails = np.array([_value_columns(d, den) for d in values.tolist()], dtype="S")
    tail_width = tails.dtype.itemsize
    with _create_output(path, binary=True) as fh:
        fh.write(b"k,count,discrepancy_num,discrepancy_den,discrepancy_float\r\n")
        for lo in range(0, series.n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, series.n)
            comma = np.full((hi - lo, 1), ord(","), dtype=np.uint8)
            rows = np.concatenate([
                _ascii_digits(np.arange(lo, hi)),
                comma,
                _ascii_digits(series.counts[lo:hi]),
                comma,
                tails[index[lo:hi]].view(np.uint8).reshape(hi - lo, tail_width),
            ], axis=1)
            fh.write(rows[rows != 0].tobytes())


def _value_columns(d: int, den: int) -> bytes:
    """The num, den and float columns of D = d / den, with the row's end."""
    g = gcd(d, den)
    return f"{d // g},{den // g},{d / den!r}\r\n".encode()


def _ascii_digits(v: np.ndarray) -> np.ndarray:
    """The decimal digits of nonnegative integers v, one row each, as ASCII.

    Rows are as wide as the largest value; each row's leading zeros are NUL
    bytes, and 0 is the single digit "0".  The digits are taken one divmod
    pass per position, in uint32 when every value fits.
    """
    top = int(v.max(initial=0))
    if top < 2**32:
        v = v.astype(np.uint32)
    out = np.empty((len(v), len(str(top))), dtype=np.uint8)
    v, digit = np.divmod(v, 10)
    out[:, -1] = digit + ord("0")
    for j in range(out.shape[1] - 2, -1, -1):
        # v holds the digits left of column j + 1; where it is 0, column j pads
        nonzero = v > 0
        v, digit = np.divmod(v, 10)
        out[:, j] = (digit + ord("0")) * nonzero
    return out


def read_series_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def emit_histogram(
    samples: np.ndarray, bins: int, weights: np.ndarray | None = None
) -> list[tuple]:
    """Equal-width bins over [-4,4]; out-of-range samples clip into end bins.

    Sample i counts weights[i] times (once without weights), so n is the sum
    of the weights.  Rows: (bin_left, bin_right, observed, expected), expected
    from the normal CDF so its column total is n * (Phi(4) - Phi(-4)).
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples) if weights is None else int(np.sum(weights))
    if n == 0:
        raise ValueError("no samples")
    edges = np.linspace(-4.0, 4.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, samples, side="right") - 1, 0, bins - 1)
    observed = np.bincount(idx, weights=weights, minlength=bins)
    expected = n * (normal_cdf(edges[1:]) - normal_cdf(edges[:-1]))
    return [
        (float(edges[i]), float(edges[i + 1]), int(observed[i]), float(expected[i]))
        for i in range(bins)
    ]


def series_from_record(record: dict) -> tuple[DiscrepancySeries, tuple]:
    """The discrepancy series of a clt run, rebuilt from its record.json alone,
    with its value table.

    The recorded point, corner and N give the series again.  Its exact
    moments must reproduce the recorded H_dot and H_ddot bit for bit, which
    ties the series to the run the record describes.  A missing entry, a
    point whose guard is below N, or a mismatch raises ValueError.
    """
    try:
        config, point, stats = record["config"], record["point"], record["stats"]
        recorded = (stats["H_dot"], stats["H_ddot"])
        basis = PrimeBasis(tuple(config["primes"]))
        box = BoxTarget.create(basis, [parse_rational(t) for t in config["y"]])
        x = DigitPoint(
            basis,
            tuple(point["depths"]),
            tuple(int(v) for v in point["values"]),
            point["guard"],
        )
        series = discrepancy_series(x, box, config["N"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record.json: {type(exc).__name__} {exc}") from None
    except GuardExhausted as exc:
        raise ValueError(f"record.json: {exc}") from None
    table = series.value_table()
    h_dot, h_ddot = temporal_moments(series, table)
    if (float(h_dot), h_ddot) != recorded:
        raise ValueError(
            f"record.json: its point gives H_dot = {float(h_dot)!r}, "
            f"H_ddot = {h_ddot!r}, not the recorded {recorded[0]!r}, {recorded[1]!r}"
        )
    return series, table


# ---------------------------------------------------------------------------
# verification suites


def _verify_fast_vs_naive(rng: CounterRng, report: list) -> bool:
    ok = True
    for primes in ((2,), (2, 3), (3, 5)):
        basis = PrimeBasis(primes)
        for _ in range(20):
            depth_m = 1 + rng.below(6)
            L = 1 + rng.below(256)
            x = DigitPoint.sample(basis, L, rng, [depth_m] * basis.s)
            y = tuple(
                Fraction(1 + rng.below(98), 100) for _ in primes
            )
            box = BoxTarget.create(basis, y)
            fast = fast_two_sided_discrepancy(x, box, L, depth_m)
            naive = two_sided_discrepancy_naive(
                x, box, L, corner=box.truncated(depth_m)
            )
            case_ok = fast == naive
            ok &= case_ok
            report.append(
                f"fast-vs-naive primes={primes} L={L} m={depth_m} "
                f"fast={fast} naive={naive} {'ok' if case_ok else 'FAIL'}"
            )
    return ok


def _random_frame(rng: CounterRng, basis: PrimeBasis, cap: int):
    r = random_multi_index(rng, basis, 6, cap)
    L = 1 + rng.below(512)
    x = DigitPoint.sample(basis, L, rng, r)
    y = tuple(Fraction(1 + rng.below(98), 100) for _ in basis.primes)
    box = BoxTarget.create(basis, y)
    return crt_frame(basis, r, x, box), box, L


def _verify_fourier_cells(rng: CounterRng, report: list) -> bool:
    ok = True
    for primes in ((2,), (2, 3), (3, 5)):
        basis = PrimeBasis(primes)
        for _ in range(10):
            frame, box, L = _random_frame(rng, basis, 4096)
            direct = float(spectral.cell_sum_direct(frame, box, L))
            fourier = spectral.cell_sum_fourier(frame, box, L)
            err = abs(fourier.real - direct) + abs(fourier.imag)
            case_ok = err <= 1e-9
            ok &= case_ok
            report.append(
                f"fourier-cells primes={primes} r={frame.r} L={L} err={err:.3e} "
                f"{'ok' if case_ok else 'FAIL'}"
            )
    return ok


def _verify_orthogonality(rng: CounterRng, report: list) -> bool:
    ok = True
    for primes in ((2,), (3,), (2, 3)):
        basis = PrimeBasis(primes)
        box = BoxTarget.create(
            basis, tuple(Fraction(1, 3) if p != 3 else Fraction(2, 5) for p in primes)
        )
        for mu in (2, 3, 4):
            for _ in range(8):
                r_list = [random_multi_index(rng, basis, 4, 256) for _ in range(mu)]
                m_list = [random_frequency(rng, basis.modulus(r)) for r in r_list]
                expect = spectral.character_expectation_bruteforce(
                    basis, r_list, m_list, box
                )
                delta = spectral.orthogonality_delta(basis, r_list, m_list)
                err = abs(expect - delta)
                case_ok = err <= 1e-10
                ok &= case_ok
                report.append(
                    f"orthogonality primes={primes} mu={mu} err={err:.3e} "
                    f"{'ok' if case_ok else 'FAIL'}"
                )
    return ok


def _verify_halton(report: list) -> bool:
    basis = PrimeBasis((2, 3, 5))
    ok = True
    for k, point in enumerate(forward_orbit_from_zero(basis, 10**4)):
        if point != halton(k, basis):
            ok = False
            report.append(f"halton k={k} FAIL")
    report.append(f"halton identity k<10^4 {'ok' if ok else 'FAIL'}")
    return ok


def _verify_roundtrip(rng: CounterRng, report: list) -> bool:
    basis = PrimeBasis((2, 3, 5))
    ok = True
    for _ in range(2000):
        guard = 2
        depths, values = [], []
        for p in basis.primes:
            d = 1 + rng.below(8)
            while p**d < 2 * guard + 1:
                d += 1
            depths.append(d)
            values.append(guard + rng.below(p**d - 2 * guard))
        x = DigitPoint(basis, tuple(depths), tuple(values), guard=guard)
        if inverse_step(step(x)).values != x.values:
            ok = False
        if step(inverse_step(x)).values != x.values:
            ok = False
    report.append(f"roundtrip 2000 points {'ok' if ok else 'FAIL'}")
    return ok


VERIFY_SUITES = ("fourier-cells", "orthogonality", "fast-vs-naive", "halton", "roundtrip")


def run_verify(suite: str, seed: int = 1, out: Path | None = None) -> int:
    """Run one named verification suite; 0 on pass, 1 on failure, 2 on bad name."""
    if suite not in VERIFY_SUITES:
        print(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}", file=sys.stderr)
        return 2
    rng = CounterRng(seed)
    report: list[str] = []
    if suite == "fast-vs-naive":
        ok = _verify_fast_vs_naive(rng, report)
    elif suite == "fourier-cells":
        ok = _verify_fourier_cells(rng, report)
    elif suite == "orthogonality":
        ok = _verify_orthogonality(rng, report)
    elif suite == "halton":
        ok = _verify_halton(report)
    else:
        ok = _verify_roundtrip(rng, report)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with _create_output(out / f"verify_{suite}.txt") as fh:
            fh.write("\n".join(report) + "\n")
    print(f"{suite}: {'PASS' if ok else 'FAIL'} ({len(report)} cases)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argparse front end


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to key=value config file")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.add_argument("--N", type=int, default=None, help="time horizon")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--primes", default=None, help="comma-separated prime basis")
    p.add_argument("--y", default=None, help="comma-separated rational corner")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="haltonclt",
        description="Odometer orbits, exact local discrepancy, temporal-CLT checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("clt", "discrepancy", "condition"):
        sp = sub.add_parser(name)
        _add_common(sp)

    sp = sub.add_parser("halton")
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--primes", default="2,3")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("histogram")
    sp.add_argument("--out", required=True, help="directory of a previous clt run")
    sp.add_argument("--bins", type=int, default=32)

    sp = sub.add_parser("verify")
    sp.add_argument("suite", choices=VERIFY_SUITES)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            out = Path(args.out) if args.out else None
            return run_verify(args.suite, seed=args.seed, out=out)

        if args.command == "halton":
            if args.N < 0:
                raise ValueError(f"N must be >= 0, got {args.N}")
            basis = PrimeBasis(tuple(int(t) for t in args.primes.split(",")))
            rows = [
                [k] + [format_rational(c) for c in halton(k, basis)]
                for k in range(args.N)
            ]
            if args.out:
                outdir = Path(args.out)
                outdir.mkdir(parents=True, exist_ok=True)
                with _create_output(outdir / "halton.csv") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["k"] + [f"phi_{p}" for p in basis.primes])
                    writer.writerows(rows)
            else:
                for row in rows:
                    print("\t".join(str(c) for c in row))
            return 0

        if args.command == "histogram":
            # checked before the series is rebuilt; emit_histogram checks too
            if args.bins < 2:
                raise ValueError("need at least 2 bins")
            if not args.out.strip():
                raise ConfigError("empty value for --out")
            outdir = Path(args.out)
            record = json.loads((outdir / "record.json").read_text())
            series, table = series_from_record(record)
            h_ddot = record["stats"]["H_ddot"]
            if not h_ddot > 0:
                raise ValueError(
                    f"H_ddot = {h_ddot}: the series is identically zero, "
                    "so D / H_ddot has no histogram"
                )
            # d / den of Python ints is the float series.csv holds for D = d / den
            den = series.volume.denominator
            values, weights = table
            samples = np.array([d / den for d in values.tolist()]) / h_ddot
            hist = emit_histogram(samples, args.bins, weights=weights)
            with _create_output(outdir / "histogram.csv") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_left", "bin_right", "observed", "expected"])
                writer.writerows(hist)
            print(f"wrote {outdir / 'histogram.csv'}")
            return 0

        config = build_config(args)

        if args.command == "condition":
            box = BoxTarget.create(config.basis, config.y)
            report = condition_check(box, config.kappa1)
            print(json.dumps(_condition_dict(report), indent=2))
            return 0 if report.feasible else 1

        if args.command == "discrepancy":
            point = sample_point(config)
            box = BoxTarget.create(config.basis, config.y)
            series = discrepancy_series(point, box, config.n)
            if config.out is not None:
                config.out.mkdir(parents=True, exist_ok=True)
                write_series_csv(config.out / "series.csv", series)
                print(f"wrote {config.out / 'series.csv'}")
            else:
                print(f"D(N-1) = {series.value(config.n - 1)}")
            return 0

        # clt
        record = run_clt(config)
        printable = {k: v for k, v in record.items() if k != "timings"}
        print(json.dumps(printable, indent=2, sort_keys=True))
        return 0

    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
