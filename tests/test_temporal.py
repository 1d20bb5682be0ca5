from dataclasses import fields
from fractions import Fraction as F
from math import erfc, fsum, gcd, log2, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from haltonclt import temporal
from haltonclt.cli import ExperimentConfig, main, sample_point
from haltonclt.discrepancy import BoxTarget, DiscrepancySeries, discrepancy_series
from haltonclt.kernel import MILLER_RABIN_LIMIT, PrimeBasis
from haltonclt.temporal import (
    TemporalStats,
    condition_check,
    exact_moments,
    ks_normal,
    normal_cdf,
    normalize_and_test,
    scaled_rms,
    temporal_moments,
    theorem_prime,
    theorem_window,
    variance_growth_fit,
)

B2 = PrimeBasis((2,))


def test_normal_cdf_accuracy():
    xs = np.linspace(-8, 8, 4001)
    exact = np.array([0.5 * erfc(-x / sqrt(2)) for x in xs])
    assert np.abs(normal_cdf(xs) - exact).max() <= 1e-7
    assert abs(normal_cdf(0.0) - 0.5) <= 1e-7


def test_temporal_moments_examples():
    zero = DiscrepancySeries(4, (0, 0, 0, 0), F(0))
    assert temporal_moments(zero) == (0, 0)

    # series with values (0, 1/3): counts (0,1), volume 1/3
    s = DiscrepancySeries(2, (0, 1), F(1, 3))
    h_dot, h_ddot = temporal_moments(s)
    assert h_dot == F(1, 6)
    assert abs(h_ddot - sqrt(1 / 18)) < 1e-15

    # E f([theta N]) over k: f(k) = k with N = 4 has mean 1.5
    linear = DiscrepancySeries(4, (0, 1, 2, 3), F(0))
    h_dot, _ = temporal_moments(linear)
    assert h_dot == F(3, 2)


def test_temporal_moments_rejects_empty():
    with pytest.raises(ValueError):
        temporal_moments(DiscrepancySeries(0, (), F(0)))


def test_exact_moments_match_float_accumulation():
    rng = np.random.default_rng(3)
    counts = tuple(int(c) for c in rng.integers(0, 60, size=512).cumsum())
    s = DiscrepancySeries(512, counts, F(2, 15))
    mean, mean_sq = exact_moments(s)
    vals = [float(s.value(k)) for k in range(512)]
    assert abs(float(mean) - fsum(vals) / 512) <= 1e-9 * max(1, abs(float(mean)))
    float_sq = fsum(v * v for v in vals) / 512
    assert abs(float(mean_sq) - float_sq) <= 1e-9 * max(1, float_sq)


def test_h_dot_bounded_by_h_ddot():
    rng = np.random.default_rng(5)
    for _ in range(10):
        counts = tuple(int(c) for c in rng.integers(0, 4, size=64).cumsum())
        s = DiscrepancySeries(64, counts, F(1, 3))
        h_dot, h_ddot = temporal_moments(s)
        assert abs(float(h_dot)) <= h_ddot + 1e-12


def test_ks_point_mass_at_zero():
    assert ks_normal(np.zeros(100)) == pytest.approx(0.5)


def test_ks_on_normal_quantile_grid():
    n = 2000
    from scipy.stats import norm

    grid = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_normal(grid) <= 1 / n + 1e-3


def test_ks_scale_invariance_of_normalization():
    rng = np.random.default_rng(11)
    counts = tuple(int(c) for c in rng.integers(0, 3, size=256).cumsum())
    s = DiscrepancySeries(256, counts, F(1, 3))
    _, h_ddot = temporal_moments(s)
    z = s.float_values() / h_ddot
    assert ks_normal(z) == ks_normal((s.float_values() * 3.7) / (h_ddot * 3.7))


def reference_ks(samples):
    """The KS distance with the normal CDF at every sorted sample."""
    z = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(z)
    cdf = normal_cdf(z)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def ks_samples():
    rng = np.random.default_rng(17)
    yield "normals", rng.standard_normal(50_000)
    yield "normals-small", rng.standard_normal(300)
    yield "ties", rng.integers(-7, 8, size=20_000) / 2.3
    # clustered like float_values(): shared values spread by about 1e-9
    centres = rng.integers(-40, 41, size=20_000) / 13
    yield "clusters", centres + 1e-9 * rng.standard_normal(centres.size)
    yield "around-zero", rng.uniform(-1e-9, 1e-9, size=1000)
    yield "n=1-zero", np.array([0.0])
    yield "n=1-negative", np.array([-0.7])
    yield "n=2-tie", np.array([1.2, 1.2])
    yield "n=2-straddling", np.array([-0.3, 0.4])
    yield "n=2-tiny", np.array([-1e-300, 1e-300])


KS_CASES = dict(ks_samples())


@pytest.mark.parametrize("label", list(KS_CASES))
def test_ks_matches_full_sort(label):
    z = KS_CASES[label]
    assert ks_normal(z) == reference_ks(z)


# the five configs that tests/test_golden.py pins: (primes, y, N, seed)
GOLDEN_CONFIGS = [
    ((2,), (F(1, 3),), 4096, 42),
    ((2, 3), (F(1, 5), F(2, 5)), 4096, 7),
    ((2, 3, 5), (F(1, 3), F(2, 5), F(3, 7)), 2048, 3),
    ((2,), (F((2**70 + 1) // 3, 2**70 + 1),), 256, 1),
    ((2,), (F(1, 2),), 64, 1),
]


@pytest.mark.parametrize("primes,y,n,seed", GOLDEN_CONFIGS)
def test_ks_matches_full_sort_on_golden_series(primes, y, n, seed):
    cfg = ExperimentConfig(primes=primes, y=y, n=n, seed=seed)
    series = discrepancy_series(sample_point(cfg), BoxTarget.create(cfg.basis, y), n)
    _, h_ddot = temporal_moments(series)
    # y = 1/2 gives the zero series: KS of the point mass at 0
    z = series.float_values() / (h_ddot if h_ddot > 0 else 1.0)
    assert ks_normal(z) == reference_ks(z)


def reference_normalize(series, h_ddot, h_dot, s):
    """normalize_and_test with every power taken over the full float series."""
    z = series.float_values() / h_ddot
    mean = float(z.mean())
    var = float(z.var())
    sd = sqrt(var) if var > 0 else 1.0
    skew = float(((z - mean) ** 3).mean()) / sd**3
    kurt = float(((z - mean) ** 4).mean()) / sd**4 - 3.0
    return TemporalStats(
        n=series.n,
        h_dot=float(h_dot),
        h_ddot=h_ddot,
        ks_distance=reference_ks(z),
        mean=mean,
        variance=var,
        skewness=skew,
        excess_kurtosis=kurt,
        scaled_rms=scaled_rms(h_ddot, series.n, s),
    )


BIG = 2**70 + 1

# (primes, y) of the orbits drawn below: the golden 1-D, 2-D and 3-D
# corners, one whose values are all distinct (den = 3^14 > 2(N - 1)) and
# one whose scaled values are Python ints (den = 2^70 + 1)
STATS_CORNERS = [
    ((2,), (F(1, 3),)),
    ((2, 3), (F(1, 5), F(2, 5))),
    ((2, 3, 5), (F(1, 3), F(2, 5), F(3, 7))),
    ((2,), (F(1, 3**14),)),
    ((2,), (F(BIG // 3, BIG),)),
]


@st.composite
def stats_cases(draw):
    """(series, s): a seeded orbit at a corner above, or counts built from
    drawn flags in {0, 1, 2} over a small denominator, so values tie in
    blocks and cross 0."""
    n = draw(st.integers(2, 3000))
    if draw(st.booleans()):
        primes, y = draw(st.sampled_from(STATS_CORNERS))
        seed = draw(st.integers(0, 2**32))
        cfg = ExperimentConfig(primes=primes, y=y, n=n, seed=seed)
        box = BoxTarget.create(cfg.basis, y)
        return discrepancy_series(sample_point(cfg), box, n), len(primes)
    flags = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n - 1, max_size=n - 1))
    den = draw(st.integers(2, 12))
    volume = F(draw(st.integers(1, den - 1)), den)
    counts = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))
    return DiscrepancySeries(n, counts, volume), 1


@given(stats_cases())
@example((DiscrepancySeries(2, (0, 1), F(1, 3)), 1))
@example((DiscrepancySeries(3, (0, 1, 1), F(1, 3)), 1))  # 0, 1/3, -1/3
@example((DiscrepancySeries(6, (0, 1, 2, 3, 3, 3), F(1, 2)), 1))  # ties at 0
@settings(max_examples=150, deadline=None)
def test_normalize_matches_per_sample_powers(case):
    series, s = case
    h_dot, h_ddot = temporal_moments(series)
    assume(h_ddot > 0)
    got = normalize_and_test(series, h_ddot, h_dot, s)
    want = reference_normalize(series, h_ddot, h_dot, s)
    for field in fields(TemporalStats):
        name = field.name
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def test_normalized_second_moment_is_one():
    rng = np.random.default_rng(13)
    counts = tuple(int(c) for c in rng.integers(0, 3, size=256).cumsum())
    s = DiscrepancySeries(256, counts, F(1, 3))
    h_dot, h_ddot = temporal_moments(s)
    stats = normalize_and_test(s, h_ddot, h_dot, s=1)
    z = s.float_values() / h_ddot
    assert np.mean(z**2) == pytest.approx(1.0, abs=1e-9)
    assert stats.variance + stats.mean**2 == pytest.approx(1.0, abs=1e-9)


def test_normalize_rejects_degenerate():
    s = DiscrepancySeries(2, (0, 0), F(0))
    with pytest.raises(ValueError):
        normalize_and_test(s, 0.0, F(0))


def test_condition_check_one_third():
    box = BoxTarget.create(B2, (F(1, 3),))
    report = condition_check(box, F(2, 3))
    assert report.densities == (F(1, 2),)
    assert report.kappa2 == F(1, 2)
    assert report.feasible


def test_condition_check_dyadic_infeasible():
    box = BoxTarget.create(B2, (F(1, 2),))
    report = condition_check(box, F(1, 100))
    assert report.kappa2 == 0
    assert not report.feasible


def test_condition_check_coprime_rational_feasible_on_grid():
    # q-rational y with gcd(q, p) = 1 admits some kappa1 with kappa2 > 0
    for y, p in ((F(1, 5), 2), (F(2, 5), 3), (F(3, 7), 2)):
        box = BoxTarget.create(PrimeBasis((p,)), (y,))
        assert any(
            condition_check(box, F(g, 20)).feasible for g in range(1, 21)
        )


def test_condition_density_stable_under_doubled_window():
    # scanning two periods gives the same exact density as one; 1/5 in
    # base 2 is purely periodic with period ord_5(2) = 4
    box = BoxTarget.create(B2, (F(1, 5),))
    kappa1 = F(2, 3)
    y, p, b = box.y[0], 2, 4
    hits = 0
    for j in range(1, 2 * b + 1):
        if box.digit(0, j) >= 1:
            tail = F(y.numerator * p**j % y.denominator, y.denominator)
            if tail <= 1 - kappa1:
                hits += 1
    assert F(hits, 2 * b) == condition_check(box, kappa1).densities[0]


def long_division_density(y, p, kappa1):
    """Density over the cycle of stored digits and remainders, found by a dict."""
    seen, digits, rem = {}, [], y.numerator
    while rem not in seen:
        seen[rem] = len(digits)
        d, rem = divmod(rem * p, y.denominator)
        digits.append((d, F(rem, y.denominator)))
    cycle = digits[seen[rem]:]
    hits = sum(1 for d, tail in cycle if d >= 1 and tail <= 1 - kappa1)
    return F(hits, len(cycle))


def test_condition_check_matches_long_division():
    for p in (2, 3, 5):
        basis = PrimeBasis((p,))
        for den in range(2, 101):
            for num in range(1, den):
                if gcd(num, den) != 1:
                    continue
                y = F(num, den)
                box = BoxTarget.create(basis, (y,))
                for kappa1 in (F(1, 7), F(2, 3), F(1)):
                    assert condition_check(box, kappa1).densities == (
                        long_division_density(y, p, kappa1),
                    ), (y, p, kappa1)


def test_condition_check_period_cap(monkeypatch, capsys):
    # 1/11 has base-2 period 10 and 1/13 period 12
    monkeypatch.setattr(temporal, "MAX_PERIOD", 10)
    assert condition_check(BoxTarget.create(B2, (F(1, 11),)), F(2, 3)).feasible
    with pytest.raises(ValueError, match="period"):
        condition_check(BoxTarget.create(B2, (F(1, 13),)), F(2, 3))
    assert main(["condition", "--primes", "2", "--y", "1/13"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_theorem_prime_on_golden_corners():
    # 2^70 + 1 is divisible by 2^14 + 1 = 5 * 29 * 113; 1/2 has 2 in the basis
    got = [
        theorem_prime(BoxTarget.create(PrimeBasis(primes), y))
        for primes, y, _, _ in GOLDEN_CONFIGS
    ]
    assert got == [3, 5, None, None, None]


HYPOTHESIS_PRIMES = (2, 3, 5, 7, 11, 13, 8191, 2**61 - 1)


@st.composite
def prime_power_corners(draw):
    """(basis primes, y, q): every y_i has denominator q^e_i, q not in the basis."""
    q = draw(st.sampled_from(HYPOTHESIS_PRIMES))
    others = [p for p in HYPOTHESIS_PRIMES[:6] if p != q]
    primes = draw(
        st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True)
    )
    y = []
    for _ in primes:
        den = q ** draw(st.integers(1, 4 if q < 100 else 2))
        y.append(F(draw(st.integers(1, den - 1)), den))
    return tuple(primes), y, q


@given(prime_power_corners())
@settings(max_examples=200, deadline=None)
def test_theorem_prime_reads_prime_powers(case):
    primes, y, q = case
    assert theorem_prime(BoxTarget.create(PrimeBasis(primes), y)) == q


@given(prime_power_corners(), st.data())
@settings(max_examples=200, deadline=None)
def test_theorem_prime_rejects_products(case, data):
    primes, y, q = case
    i = data.draw(st.integers(0, len(y) - 1))
    r = data.draw(st.sampled_from([p for p in HYPOTHESIS_PRIMES[:6] if p != q]))
    # q^a * r^e, with (q*r)^e among them; the numerator cancels neither prime
    den = y[i].denominator * r ** data.draw(st.integers(1, 2))
    # past the primality limit a 1-D product cannot be told from a prime
    assume(len(y) > 1 or den < MILLER_RABIN_LIMIT)
    num = data.draw(st.integers(1, den - 1).filter(lambda v: v % q and v % r))
    y[i] = F(num, den)
    assert theorem_prime(BoxTarget.create(PrimeBasis(primes), y)) is None


def test_theorem_prime_past_the_primality_limit():
    q = 2**61 - 1
    assert theorem_prime(BoxTarget.create(B2, (F(1, q**2),))) == q
    with pytest.raises(ValueError, match="too large"):
        theorem_prime(BoxTarget.create(B2, (F(1, 3 * q**2),)))


@given(prime_power_corners(), st.data())
@settings(max_examples=100, deadline=None)
def test_theorem_prime_rejects_a_basis_holding_q(case, data):
    primes, y, q = case
    i = data.draw(st.integers(0, len(primes) - 1))
    with_q = primes[:i] + (q,) + primes[i + 1:]
    assert theorem_prime(BoxTarget.create(PrimeBasis(with_q), y)) is None


def test_theorem_window_worked_example():
    lower, upper, kappa3 = theorem_window(B2, 2 / 3, 1 / 2)
    assert lower == pytest.approx(4.6891e-3, rel=1e-3)
    assert upper == pytest.approx(19.7990, rel=1e-4)
    assert kappa3 == pytest.approx(8.795e-5, rel=1e-3)


def test_theorem_window_unit_kappas():
    from math import pi

    basis = PrimeBasis((2, 3))
    lower, upper, _ = theorem_window(basis, 1, 1)
    assert lower == pytest.approx((1 / pi) * 6 ** (-5.0) * 2 ** (-1.0))
    # upper ignores the kappa constants
    assert upper == theorem_window(basis, 0.1, 0.2)[1] == 7 * 6**2


def test_theorem_window_ordering():
    for primes in ((2,), (2, 3), (3, 5, 7)):
        basis = PrimeBasis(primes)
        for k1, k2 in ((1, 1), (0.5, 0.25), (0.01, 0.9)):
            lower, upper, _ = theorem_window(basis, k1, k2)
            assert lower < upper


def test_variance_growth_fit_recovers_generator():
    s = 2
    pts = [(n, log2(n) ** (s / 2)) for n in (2**10, 2**14, 2**18, 2**22)]
    assert variance_growth_fit(pts) == pytest.approx(s / 2, abs=1e-12)
    flat = [(n, 3.0) for n in (2**10, 2**14, 2**18)]
    assert variance_growth_fit(flat) == pytest.approx(0.0, abs=1e-12)


def test_variance_growth_fit_preconditions():
    with pytest.raises(ValueError):
        variance_growth_fit([(2, 1.0), (4, 1.0)])
    with pytest.raises(ValueError):
        variance_growth_fit([(8, 1.0), (4, 1.0), (16, 1.0)])
