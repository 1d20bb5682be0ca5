from fractions import Fraction as F
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haltonclt.discrepancy import (
    BoxTarget,
    DiscrepancySeries,
    _membership_flags,
    _reversed,
    crt_frame,
    discrepancy_series,
    fast_two_sided_discrepancy,
    two_sided_discrepancy_naive,
    v_ryb,
)
from haltonclt.kernel import PrimeBasis, digit_reverse, truncate
from haltonclt.odometer import DigitPoint, GuardExhausted, jump
from haltonclt.rng import CounterRng
from haltonclt.temporal import exact_moments

B2 = PrimeBasis((2,))


def random_case(rng, primes, max_l=2048, max_depth=12):
    basis = PrimeBasis(primes)
    m = 1 + rng.below(max_depth)
    L = 1 + rng.below(max_l)
    x = DigitPoint.sample(basis, L, rng, [m] * basis.s)
    y = tuple(F(1 + rng.below(998), 1000) for _ in primes)
    return x, BoxTarget.create(basis, y), L, m


def in_box(z, y):
    """Half-open membership: z_i < y_i for every coordinate, exactly."""
    return all(zi < yi for zi, yi in zip(z, y))


def reference_naive(x, box, L, corner=None):
    """The window count point by point, each coordinate a Fraction."""
    target = tuple(corner) if corner is not None else box.y
    count = 0
    for k in range(-L, L):
        if in_box(jump(x, k).coordinates(), target):
            count += 1
    return count - 2 * L * prod(target, start=F(1))


def test_in_box_examples():
    assert in_box((F(1, 4),), (F(1, 3),))
    assert not in_box((F(1, 3),), (F(1, 3),))  # half-open boundary
    assert not in_box((F(1, 4), F(1, 2)), (F(1, 3), F(1, 3)))


def test_box_target_validation():
    with pytest.raises(ValueError):
        BoxTarget.create(B2, (F(0),))
    with pytest.raises(ValueError):
        BoxTarget.create(B2, (F(1),))
    box = BoxTarget.create(PrimeBasis((2, 3)), (F(1, 3), F(2, 5)))
    assert box.volume == F(2, 15)
    assert [box.digit(0, j) for j in range(1, 5)] == [0, 1, 0, 1]
    assert [box.digit(1, j) for j in range(1, 5)] == [1, 0, 1, 2]


def test_naive_examples():
    x = DigitPoint(B2, (4,), (10,), guard=2)  # 5/16
    box_half = BoxTarget.create(B2, (F(1, 2),))
    box_third = BoxTarget.create(B2, (F(1, 3),))
    assert two_sided_discrepancy_naive(x, box_half, 0) == 0
    assert two_sided_discrepancy_naive(x, box_half, 1) == 0
    assert two_sided_discrepancy_naive(x, box_third, 1) == F(1, 3)


def test_naive_guard_violation():
    x = DigitPoint(B2, (4,), (10,), guard=2)
    with pytest.raises(GuardExhausted):
        two_sided_discrepancy_naive(x, BoxTarget.create(B2, (F(1, 2),)), 3)


def test_series_examples():
    x = DigitPoint(B2, (6,), (26,), guard=16)
    box = BoxTarget.create(B2, (F(1, 3),))
    series = discrepancy_series(x, box, 16)
    assert series.value(0) == 0
    for k in range(16):
        assert series.value(k) == two_sided_discrepancy_naive(x, box, k)


def test_series_spot_checks_random():
    rng = CounterRng(5)
    basis = PrimeBasis((2, 3))
    x = DigitPoint(basis, (12, 8), (1024, 3000), guard=1000)
    box = BoxTarget.create(basis, (F(3, 7), F(2, 5)))
    series = discrepancy_series(x, box, 1000)
    for _ in range(20):
        k = rng.below(1000)
        assert series.value(k) == two_sided_discrepancy_naive(x, box, k)


def test_series_increments_bounded():
    basis = PrimeBasis((2, 3))
    x = DigitPoint(basis, (12, 8), (1024, 3000), guard=512)
    box = BoxTarget.create(basis, (F(3, 7), F(2, 5)))
    series = discrepancy_series(x, box, 512)
    vol = box.volume
    for k in range(511):
        delta = series.value(k + 1) - series.value(k) + 2 * vol
        assert 0 <= delta <= 2


def test_crt_frame_degenerate_s1():
    x = DigitPoint(B2, (6,), (26,), guard=2)
    box = BoxTarget.create(B2, (F(1, 3),))
    frame = crt_frame(B2, (4,), x, box)
    assert frame.m_inv == (1,)
    assert frame.p_r == 16
    assert frame.v_rx == 26 % 16


def test_crt_frame_worked_example():
    basis = PrimeBasis((2, 3))
    # x with V_{1,2}=3, V_{2,2}=5
    x = DigitPoint(basis, (3, 3), (3, 5), guard=2)
    box = BoxTarget.create(basis, (F(1, 3), F(2, 5)))
    frame = crt_frame(basis, (2, 2), x, box)
    assert frame.m_inv == (1, 7)
    assert frame.v_rx == 23  # 1*9*3 + 7*4*5 = 167 = 23 mod 36


def test_joint_congruence_brute_force():
    # Beg-10 equivalence over one full period of the modulus
    basis = PrimeBasis((2, 3))
    x = DigitPoint(basis, (7, 5), (64, 121), guard=36)
    box = BoxTarget.create(basis, (F(1, 3), F(2, 5)))
    r = (2, 2)
    frame = crt_frame(basis, r, x, box)
    y_trunc = tuple(
        truncate(box.y[i], p, r[i]) for i, p in enumerate(basis.primes)
    )
    for k in range(36):
        point = jump(x, k)
        prefix_match = all(
            truncate(point.coordinate(i), p, r[i]) == y_trunc[i]
            for i, p in enumerate(basis.primes)
        )
        congruence = k % frame.p_r == (frame.v_ry - frame.v_rx) % frame.p_r
        assert prefix_match == congruence


def test_fast_equals_naive_on_truncated_corner():
    rng = CounterRng(99)
    for primes in ((2,), (2, 3), (3, 5)):
        for _ in range(12):
            x, box, L, m = random_case(rng, primes, max_l=256, max_depth=8)
            fast = fast_two_sided_discrepancy(x, box, L, m)
            naive = two_sided_discrepancy_naive(
                x, box, L, corner=box.truncated(m)
            )
            assert fast == naive


def test_fast_empty_truncated_box_is_zero():
    # y = 1/5 has binary digits .0011..., so depth-2 truncation is empty
    x = DigitPoint(B2, (6,), (26,), guard=8)
    box = BoxTarget.create(B2, (F(1, 5),))
    assert fast_two_sided_discrepancy(x, box, 8, 2) == 0


def test_truncation_bound():
    rng = CounterRng(17)
    for primes in ((2,), (2, 3)):
        s = len(primes)
        for _ in range(25):
            x, box, L, _ = random_case(rng, primes, max_l=128, max_depth=1)
            n_depth = L.bit_length()  # floor(log2(2L)) >= floor(log2 L)+1
            m = 1
            while min(primes) ** m <= 2 * L:
                m += 1
            if any(m > d for d in x.depths):
                continue
            fast = fast_two_sided_discrepancy(x, box, L, m)
            naive = two_sided_discrepancy_naive(x, box, L)
            assert abs(fast - naive) <= s


def test_fast_precondition_errors():
    x = DigitPoint(B2, (4,), (10,), guard=2)
    box = BoxTarget.create(B2, (F(1, 3),))
    with pytest.raises(GuardExhausted):
        fast_two_sided_discrepancy(x, box, 3, 2)
    with pytest.raises(ValueError):
        fast_two_sided_discrepancy(x, box, 2, 5)  # depth beyond stored digits


def test_bigint_fallback_matches_numpy_path():
    # a denominator near 2^70 still compares in int64 through the threshold
    # ceil(num * p^D / den), which is at most p^D
    basis = PrimeBasis((2,))
    big = 2**70 + 1
    y_small = (F(1, 3),)
    y_big = (F(big // 3, big),)
    x = DigitPoint(basis, (8,), (100,), guard=32)
    box_small = BoxTarget.create(basis, y_small)
    box_big = BoxTarget.create(basis, y_big)
    s_small = discrepancy_series(x, box_small, 32)
    s_big = discrepancy_series(x, box_big, 32)
    # corners differ by < 2^-68, far below the 2^-8 resolution of the points
    assert s_small.counts.tolist() == s_big.counts.tolist()
    for k in (0, 5, 31):
        assert s_big.value(k) == two_sided_discrepancy_naive(x, box_big, k)


def test_series_depth_limit_is_int64():
    box = BoxTarget.create(B2, (F(1, 3),))
    # depth 62: 2^62 < 2^63, computed in int64 with no padding of the depth
    x = DigitPoint(B2, (62,), (2**61 + 12345,), guard=16)
    series = discrepancy_series(x, box, 16)
    for k in (0, 7, 15):
        assert series.value(k) == two_sided_discrepancy_naive(x, box, k)
    # depth 63: 2^63 does not fit in int64
    x = DigitPoint(B2, (63,), (2**61 + 12345,), guard=16)
    with pytest.raises(ValueError, match="int64"):
        discrepancy_series(x, box, 16)


def test_series_value_representation():
    s = DiscrepancySeries(3, (0, 1, 1), F(1, 3))
    assert [s.value(k) for k in range(3)] == [0, F(1, 3), 1 - F(4, 3)]


@pytest.mark.parametrize("den,dtype", [(2**56 - 1, np.int64), (2**56 + 1, object)])
def test_scaled_values_int64_object_boundary(den, dtype):
    # N = 64: 2N * den is 2^63 - 128 just below 2^63 and 2^63 + 128 just above
    n = 64
    y = F(den // 3 + 1, den)
    assert y.denominator == den
    box = BoxTarget.create(B2, (y,))
    series = discrepancy_series(DigitPoint.sample(B2, n, CounterRng(5)), box, n)
    d = series.scaled_values()
    assert d.dtype == dtype
    exact = [series.value(k) for k in range(n)]
    assert d.tolist() == [v * den for v in exact]
    assert exact_moments(series) == (sum(exact) / n, sum(v * v for v in exact) / n)
    values, weights = series.value_table()
    assert weights.sum() == n
    assert values[series.value_index(values)].tolist() == d.tolist()


def test_value_table_groups_repeated_values():
    # den = 3 < 2N: the scaled values repeat, so the table is sorted and distinct
    series = DiscrepancySeries(6, (0, 1, 1, 2, 3, 3), F(1, 3))
    d = series.scaled_values()
    assert d.tolist() == [0, 1, -1, 0, 1, -1]
    values, weights = series.value_table()
    assert values.tolist() == [-1, 0, 1]
    assert weights.tolist() == [2, 2, 2]
    assert values[series.value_index(values)].tolist() == d.tolist()


# the deepest digit count per base with p**depth < 2**63
MAX_DEPTH = {2: 62, 3: 39, 5: 27, 7: 22, 11: 18, 13: 17}
# digits per block of the block flags: the largest c with p**c <= 4096
CHUNK_DIGITS = {p: max(c for c in range(1, 13) if p**c <= 4096) for p in MAX_DEPTH}
CORNER_DENS = (3, 2**70 + 1, 10**25 + 7)


@pytest.mark.parametrize("p", sorted(MAX_DEPTH))
def test_max_depth_is_the_int64_limit(p):
    depth, guard = MAX_DEPTH[p], 16
    assert p**depth < 2**63 <= p ** (depth + 1)
    box = BoxTarget.create(PrimeBasis((p,)), (F(1, 3),))
    # V at both guard edges and in the middle of [guard, p**depth - guard)
    for v in (guard, p**depth // 2 + 12345, p**depth - 1 - guard):
        x = DigitPoint(box.basis, (depth,), (v,), guard=guard)
        series = discrepancy_series(x, box, guard)
        for k in range(guard):
            assert series.value(k) == two_sided_discrepancy_naive(x, box, k)
    x = DigitPoint(box.basis, (depth + 1,), (p**depth,), guard=guard)
    with pytest.raises(ValueError, match="int64"):
        discrepancy_series(x, box, guard)


@pytest.mark.parametrize("p", sorted(MAX_DEPTH))
def test_chunk_table_is_digit_reversal(p):
    # the low row of the block flags: every value of the chunk digits
    c = CHUNK_DIGITS[p]
    table = _reversed(np.arange(p**c, dtype=np.int64), p, c)
    assert table.dtype == np.int64
    assert table.tolist() == [digit_reverse(v, p, c) for v in range(p**c)]
    # and whole values up to the int64 depth limit
    depth = MAX_DEPTH[p]
    top = p**depth
    v = [0, 1, p - 1, p, top // 3, top // 2 + 1, top - p, top - 1]
    got = _reversed(np.array(v, dtype=np.int64), p, depth)
    assert got.tolist() == [digit_reverse(u, p, depth) for u in v]


def reference_flags(x, box, n):
    """The per-element flags: every window point reversed on its own."""
    ks = np.arange(n, dtype=np.int64)
    fwd = np.ones(n, dtype=bool)
    bwd = np.ones(n, dtype=bool)
    for p, depth, v, y in zip(x.basis.primes, x.depths, x.values, box.y):
        threshold = -(-y.numerator * p**depth // y.denominator)
        for point, flags in ((v + ks, fwd), (v - 1 - ks, bwd)):
            rev = np.zeros(n, dtype=np.int64)
            for _ in range(depth):
                rev = rev * p + point % p
                point = point // p
            flags &= rev < threshold
    return fwd.astype(np.int64) + bwd.astype(np.int64)


@st.composite
def flag_cases(draw):
    primes = draw(st.lists(st.sampled_from(sorted(MAX_DEPTH)), min_size=1,
                           max_size=2, unique=True))
    basis = PrimeBasis(tuple(sorted(primes)))
    m = basis.primes[0] ** CHUNK_DIGITS[basis.primes[0]]
    n = draw(st.sampled_from((1, m - 1, m, m + 1, 3 * m + 5)))
    depths, values, y = [], [], []
    for p in basis.primes:
        depth = draw(st.integers(1, MAX_DEPTH[p]))
        while p**depth <= 2 * n:
            depth += 1
        # v = n and v = p**depth - 1 - n are the two guard edges
        offset = draw(st.one_of(st.just(0), st.just(-1), st.integers(0, 2**64)))
        depths.append(depth)
        values.append(n + offset % (p**depth - 2 * n))
        den = draw(st.sampled_from(CORNER_DENS))
        y.append(F(draw(st.integers(1, den - 1)), den))
    x = DigitPoint(basis, tuple(depths), tuple(values), guard=n)
    return x, BoxTarget.create(basis, y), n


@given(flag_cases())
@settings(max_examples=150, deadline=None)
def test_membership_flags_match_per_element_reversal(case):
    x, box, n = case
    assert np.array_equal(_membership_flags(x, box, n), reference_flags(x, box, n))


# (p, depth, den) with den * p**depth = 2**63 - 1 (= 7**2 * 73 * 127 * ...) and
# = 2**63: the last int64 case of the naive counter and the first object one
NAIVE_BOUNDARY = (
    (7, 2, (2**63 - 1) // 7**2),
    (127, 1, (2**63 - 1) // 127),
    (2, 12, 2**51),
    (2, 62, 2),
)
NAIVE_DENS = (3, 1000, 2**64 + 13, 2**70 + 1, 10**25 + 7)


def coprime_numerator(den, start):
    num = min(max(start, 1), den - 1)
    while gcd(num, den) != 1:
        num = num + 1 if num + 1 < den else 1
    return num


@st.composite
def naive_cases(draw):
    s = draw(st.integers(1, 3))
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 13, 127)), min_size=s,
                           max_size=s, unique=True))
    basis = PrimeBasis(tuple(primes))
    guard = draw(st.integers(0, 24))
    L = draw(st.one_of(st.just(0), st.just(guard), st.integers(0, guard)))
    depths, values, y = [], [], []
    for p in primes:
        boundary = [
            (d, den) for q, d, den in NAIVE_BOUNDARY if q == p and p**d > 2 * guard
        ]
        if boundary and draw(st.booleans()):
            depth, den = draw(st.sampled_from(boundary))
        else:
            depth = draw(st.integers(1, 70))
            while p**depth <= 2 * guard:
                depth += 1
            den = draw(st.sampled_from(NAIVE_DENS))
        # offsets 0 and -1 put V at the two guard edges; large ones pass 2**64
        offset = draw(st.one_of(st.just(0), st.just(-1), st.integers(0, 2**80)))
        depths.append(depth)
        values.append(guard + offset % (p**depth - 2 * guard))
        y.append(F(coprime_numerator(den, draw(st.integers(1, den - 1))), den))
    x = DigitPoint(basis, tuple(depths), tuple(values), guard=guard)
    box = BoxTarget.create(basis, y)
    kind = draw(st.sampled_from(("box", "truncated", "window point")))
    corner = None
    if kind == "truncated":
        corner = box.truncated(draw(st.integers(1, max(depths))))
    elif kind == "window point" and L > 0:
        # a corner on a window point: the half-open boundary is met exactly
        corner = jump(x, draw(st.integers(-L, L - 1))).coordinates()
    return x, box, L, corner


def boundary_case(p, depth, den, L):
    basis = PrimeBasis((p,))
    y = F(coprime_numerator(den, den // 3), den)
    assert y.denominator * p**depth in (2**63 - 1, 2**63)
    x = DigitPoint(basis, (depth,), (p**depth // 2,), guard=L)
    return x, BoxTarget.create(basis, (y,)), L, None


@given(naive_cases())
@example(boundary_case(7, 2, (2**63 - 1) // 7**2, 24))
@example(boundary_case(2, 12, 2**51, 2047))
@example(boundary_case(2, 62, 2, 0))
@settings(max_examples=200, deadline=None)
def test_naive_matches_pointwise_fraction_walk(case):
    x, box, L, corner = case
    got = two_sided_discrepancy_naive(x, box, L, corner=corner)
    want = reference_naive(x, box, L, corner=corner)
    assert got == want and type(got) is type(want)
