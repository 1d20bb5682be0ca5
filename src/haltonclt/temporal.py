"""Temporal statistics of the discrepancy series and the digit-condition check.

The time window k = 0 .. N-1 is the sampling ensemble.  The temporal mean
H_dot and mean square H_ddot^2 are exact Python-int sums over the series'
value table (`DiscrepancySeries.value_table`), the few hundred distinct
scaled values d = D(k) * den with their weights, converted to floating point
once.  The sample moments of z = D / H_ddot and its KS distance are taken
from the float series (`float_values`), whose rounding the pinned records
depend on.  z takes few distinct floats (118-166 in 1-D at N = 2^20-2^22,
about 3 500 in 3-D), though more than the table has, since each float is
rounded per k.  So the skewness and kurtosis powers are evaluated once per
distinct float of z and gathered back in series order, and KS reads the
normal CDF at the ends of runs of the distinct values only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2, pi, sqrt

import numpy as np

from .discrepancy import BoxTarget, DiscrepancySeries
from .kernel import PrimeBasis, _is_prime

# Normal CDF via the Abramowitz-Stegun 26.2.17 polynomial in
# t = 1/(1 + 0.2316419 x); absolute error below 7.5e-8.  Implemented here
# (rather than taken from a library) so every port reproduces identical
# acceptance numbers from the same coefficient table.
_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)

# Longest base-p period of a corner coordinate that `condition_check` walks;
# the walk takes about 0.3 us per digit, so the cap costs a few seconds.
MAX_PERIOD = 10**7


def normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _AS_P * ax)
    poly = t * (
        _AS_B[0]
        + t * (_AS_B[1] + t * (_AS_B[2] + t * (_AS_B[3] + t * _AS_B[4])))
    )
    pdf = np.exp(-0.5 * ax * ax) / sqrt(2.0 * pi)
    upper = 1.0 - pdf * poly
    out = np.where(x >= 0, upper, 1.0 - upper)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TemporalStats:
    """Summary of one discrepancy series against the Gaussian limit."""

    n: int
    h_dot: float
    h_ddot: float
    ks_distance: float
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    scaled_rms: float


@dataclass(frozen=True)
class ConditionReport:
    """The digit-condition constants for one corner at a chosen kappa1."""

    kappa1: Fraction
    densities: tuple[Fraction, ...]
    kappa2: Fraction
    kappa3: float
    feasible: bool


def exact_moments(
    series: DiscrepancySeries, table: tuple | None = None
) -> tuple[Fraction, Fraction]:
    """(mean of D(k), mean of D(k)^2), both exact.

    Summed in Python ints over the distinct scaled values d = D(k) * den,
    each weighted by how many k take it: the (values, weights) of the
    series' `value_table()`, or `table` when the caller holds it already.
    """
    den = series.volume.denominator
    values, weights = series.value_table() if table is None else table
    pairs = list(zip(values.tolist(), weights.tolist()))
    s1 = sum(d * w for d, w in pairs)
    s2 = sum(d * d * w for d, w in pairs)
    return Fraction(s1, series.n * den), Fraction(s2, series.n * den * den)


def temporal_moments(
    series: DiscrepancySeries, table: tuple | None = None
) -> tuple[Fraction, float]:
    """H_dot (exact) and H_ddot (float square root of the exact mean square).

    `table` is the series' `value_table()`, when the caller holds it already.
    """
    if series.n < 1:
        raise ValueError("empty series")
    mean, mean_sq = exact_moments(series, table)
    return mean, sqrt(mean_sq)


def ks_normal(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the empirical CDF to the standard normal.

    Over sorted z it is the largest hi_i = (i+1)/n - cdf(z_i) or lo_i =
    cdf(z_i) - i/n.  Runs of z break where neighbours differ by >= 0.25/n or
    cross 0, where `normal_cdf` switches branch with a jump of 1.05e-9.  In a
    run cdf's slope <= 0.4 raises it by < 0.1/n a step, so hi rises and lo
    falls by > 0.9/n: cdf is needed only at run ends (hi) and starts (lo).
    Equal values never straddle a break, so the runs are read off the
    distinct values of z and their counts (`_ks_distinct`).
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.size == 0:
        raise ValueError("no samples")
    return _ks_distinct(*np.unique(z, return_counts=True))


def _ks_distinct(u: np.ndarray, counts: np.ndarray) -> float:
    """`ks_normal` of the samples taking the sorted distinct values u, u[i]
    counts[i] times: in the sorted samples the last copy of u[i] sits at
    cumsum(counts)[i] - 1 and its first at cumsum(counts)[i] - counts[i].
    """
    above = np.cumsum(counts)
    n = int(above[-1])
    cut = np.flatnonzero((np.diff(u) >= 0.25 / n) | np.diff(u < 0))
    first, last = np.r_[0, cut + 1], np.r_[cut, len(u) - 1]
    hi = above[last] / n - normal_cdf(u[last])
    lo = normal_cdf(u[first]) - (above[first] - counts[first]) / n
    return float(max(hi.max(), lo.max()))


def normalize_and_test(
    series: DiscrepancySeries, h_ddot: float, h_dot: Fraction, s: int = 1
) -> TemporalStats:
    """Normalize D(k) by the temporal RMS and compare to the standard normal.

    `h_dot` and `h_ddot` are the series' `temporal_moments`, taken by the caller.
    z = D / H_ddot takes few distinct floats, so each power is taken once per
    distinct float and gathered back in series order: the mean then sums the
    same terms in the same order as over z itself.
    """
    if h_ddot <= 0:
        raise ValueError("degenerate normalizer")
    z = series.float_values() / h_ddot
    mean = float(z.mean())
    var = float(z.var())
    sd = sqrt(var) if var > 0 else 1.0
    u, counts = np.unique(z, return_counts=True)
    at = np.searchsorted(u, z)
    del z  # N floats; each gathered power is another N
    skew = float(((u - mean) ** 3)[at].mean()) / sd**3
    kurt = float(((u - mean) ** 4)[at].mean()) / sd**4 - 3.0
    return TemporalStats(
        n=series.n,
        h_dot=float(h_dot),
        h_ddot=h_ddot,
        ks_distance=_ks_distinct(u, counts),
        mean=mean,
        variance=var,
        skewness=skew,
        excess_kurtosis=kurt,
        scaled_rms=scaled_rms(h_ddot, series.n, s),
    )


def scaled_rms(h_ddot: float, n: int, s: int) -> float:
    """H_ddot / (log2 N)^(s/2), the quantity the variance window bounds."""
    return h_ddot / log2(n) ** (s / 2)


def condition_check(box: BoxTarget, kappa1: Fraction) -> ConditionReport:
    """Exact per-period density of digit positions passing the tail condition.

    A position j qualifies when the j-th digit of y_i is >= 1 and the exact
    fractional part of y_i * p_i**j is <= 1 - kappa1.  A rational's base-p_i
    digits are eventually periodic, so the liminf density equals the density
    over one period past the preperiod.  A period longer than MAX_PERIOD
    digits raises ValueError.
    """
    kappa1 = Fraction(kappa1)
    if not 0 < kappa1 <= 1:
        raise ValueError("kappa1 must lie in (0, 1]")
    densities = tuple(
        _period_density(y, p, kappa1) for y, p in zip(box.y, box.basis.primes)
    )
    kappa2 = min(densities)
    return ConditionReport(
        kappa1=kappa1,
        densities=densities,
        kappa2=kappa2,
        kappa3=kappa3(box.basis, kappa1, kappa2),
        feasible=kappa2 > 0,
    )


def theorem_prime(box: BoxTarget) -> int | None:
    """p_{s+1} when the corner meets the theorem's hypothesis, else None.

    The hypothesis: every y_i is p_{s+1}-rational, so each denominator is a
    power q^e (e >= 1) of one prime q shared by all coordinates, and q is
    not in the basis.  q is the e-th root of the least denominator for the
    largest e that has an exact one, and it is tested for primality last: a
    root at or past `kernel.MILLER_RABIN_LIMIT` that passes the other tests
    raises ValueError, as in `PrimeBasis`.
    """
    dens = [y.denominator for y in box.y]
    least = min(dens)
    q = next(
        r for e in range(least.bit_length(), 0, -1)
        if (r := _iroot(least, e)) ** e == least
    )
    if q in box.basis.primes:
        return None
    for d in dens:
        while d % q == 0:
            d //= q
        if d != 1:
            return None
    return q if _is_prime(q) else None


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        t = ((e - 1) * r + n // r ** (e - 1)) // e
        if t >= r:
            return r
        r = t


def _period_density(y: Fraction, p: int, kappa1: Fraction) -> Fraction:
    """Density of qualifying positions over one base-p period of y.

    Long division on remainders: r_j = num * p**j mod den is den times the
    fractional part of y * p**j, and (d_j, r_j) = divmod(r_{j-1} * p, den)
    gives digit j alongside it.  The preperiod is a = v_p(den), so the walk
    starts at r_a and stops when r_a comes back, holding no digits.  Position
    j qualifies when d_j >= 1 and r_j / den <= 1 - kappa1, tested in integers.
    """
    num, den = y.numerator, y.denominator
    a, rest = 0, den
    while rest % p == 0:
        a, rest = a + 1, rest // p
    start = num * p**a % den
    k_num, k_den = kappa1.numerator, kappa1.denominator
    slack = (k_den - k_num) * den
    r, hits = start, 0
    for b in range(1, MAX_PERIOD + 1):
        d, r = divmod(r * p, den)
        if d >= 1 and r * k_den <= slack:
            hits += 1
        if r == start:
            return Fraction(hits, b)
    raise ValueError(
        f"the base-{p} period of y = {y} exceeds {MAX_PERIOD} digits"
    )


def kappa3(basis: PrimeBasis, kappa1: float, kappa2: float) -> float:
    """kappa3 = pi^-2 p0^(-6-s) 2^-s kappa1^(2s) kappa2^s, in floating point."""
    s = basis.s
    return (
        pi**-2 * float(basis.p0) ** (-6 - s) * 2.0**-s * float(kappa1) ** (2 * s)
        * float(kappa2) ** s
    )


def theorem_window(
    basis: PrimeBasis, kappa1: float, kappa2: float
) -> tuple[float, float, float]:
    """(lower, upper, kappa3) bounding H_ddot / (log2 N)^(s/2) asymptotically."""
    kappa1, kappa2 = float(kappa1), float(kappa2)
    if not (0 < kappa1 <= 1 and 0 < kappa2 <= 1):
        raise ValueError("kappa constants must lie in (0, 1]")
    s = basis.s
    p0 = float(basis.p0)
    lower = (1 / pi) * p0 ** (-4 - s / 2) * 2 ** (-s / 2) * kappa1**s * kappa2 ** (s / 2)
    upper = 7 * p0 ** (1 + s / 2)
    return lower, upper, kappa3(basis, kappa1, kappa2)


def variance_growth_fit(points: list[tuple[int, float]]) -> float:
    """Least-squares exponent of H_ddot against log2 N (expected about s/2).

    `points` are (N, H_ddot) pairs at increasing horizons; the fit is of
    log H_ddot on log log2 N.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 horizons")
    ns = [n for n, _ in points]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("horizons must be strictly increasing")
    xs = np.log([log2(n) for n, _ in points])
    ys = np.log([h for _, h in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
