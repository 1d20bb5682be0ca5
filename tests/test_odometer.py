from fractions import Fraction as F

import pytest

from haltonclt.kernel import PrimeBasis
from haltonclt.odometer import (
    DigitPoint,
    GuardExhausted,
    forward_orbit_from_zero,
    halton,
    inverse_step,
    jump,
    radical_inverse,
    step,
)
from haltonclt.rng import CounterRng

B2 = PrimeBasis((2,))
B3 = PrimeBasis((3,))


def pt(basis, depths, values, guard):
    return DigitPoint(basis, tuple(depths), tuple(values), guard)


def test_step_examples():
    # 0 -> 1/2 -> 1/4 in base 2
    x = pt(B2, [3], [1], 1)  # 1/2 has V=1
    assert step(x).coordinates() == (F(1, 4),)
    x = pt(B3, [3], [2], 2)  # 2/3 has V=2
    assert step(x).coordinates() == (F(1, 9),)
    x = pt(B2, [3], [1], 1)
    assert step(x).coordinate(0) == F(1, 4)


def test_step_from_zero_needs_forward_construction():
    # V=0 cannot hold a positive guard, matching T^-1(0) not existing
    with pytest.raises(ValueError):
        pt(B2, [3], [0], 1)


def test_inverse_step_examples():
    x = pt(B2, [4], [10], 1)  # 5/16, digits .0101
    back = inverse_step(x)
    assert back.coordinates() == (F(9, 16),)
    assert step(pt(B2, [4], [9], 1)).coordinates() == (F(5, 16),)
    x = pt(B2, [2], [1], 1)  # 1/2
    assert inverse_step(x).values == (0,)
    x = pt(B3, [2], [3], 1)  # 1/9
    assert inverse_step(x).coordinates() == (F(2, 3),)


def test_guard_exhaustion():
    x = pt(B2, [4], [10], 0)
    with pytest.raises(GuardExhausted):
        step(x)
    with pytest.raises(GuardExhausted):
        jump(pt(B2, [4], [10], 2), 3)


def test_jump_examples():
    x = pt(B2, [4], [10], 3)
    assert jump(x, -1).coordinates() == (F(9, 16),)
    assert jump(x, 0) is x
    # additivity (|a| + |b| within the guard)
    y = jump(jump(x, 1), -2)
    assert y.values == jump(x, -1).values


def test_jump_matches_iterated_steps_exhaustive():
    basis = PrimeBasis((2, 3))
    x = pt(basis, [8, 5], [128, 120], 64)
    cur = x
    for k in range(1, 65):
        cur = step(cur)
        assert jump(x, k).values == cur.values
    cur = x
    for k in range(1, 65):
        cur = inverse_step(cur)
        assert jump(x, -k).values == cur.values


def test_roundtrip_random_points():
    basis = PrimeBasis((2, 3, 5))
    rng = CounterRng(11)
    for _ in range(10**4):
        depths, values = [], []
        for p in basis.primes:
            d = 1 + rng.below(6)
            while p**d < 5:
                d += 1
            depths.append(d)
            values.append(2 + rng.below(p**d - 4))
        x = pt(basis, depths, values, 2)
        assert inverse_step(step(x)).values == x.values
        assert step(inverse_step(x)).values == x.values


def test_radical_inverse_examples():
    assert radical_inverse(3, 2) == F(3, 4)
    assert radical_inverse(6, 2) == F(3, 8)
    assert radical_inverse(0, 7) == 0


def test_halton_examples():
    b = PrimeBasis((2, 3))
    assert halton(1, b) == (F(1, 2), F(1, 3))
    assert halton(5, b) == (F(5, 8), F(7, 9))


def test_halton_equals_forward_orbit_of_zero():
    basis = PrimeBasis((2, 3, 5))
    for k, point in enumerate(forward_orbit_from_zero(basis, 10**4)):
        assert point == halton(k, basis)


@pytest.mark.parametrize("p,depth", [(2, 10), (3, 7), (5, 5), (2, 12)])
def test_measure_preservation_over_full_period(p, depth):
    # each depth-r digit prefix occurs exactly p**(depth-r) times per period
    basis = PrimeBasis((p,))
    period = p**depth
    assert period <= 2**12
    # store two extra digits so one full period of jumps stays guarded
    x = pt(basis, [depth + 2], [period], period)
    for r in (1, 2, depth - 1):
        counts = {}
        for k in range(period):
            prefix = jump(x, k).v_mod(0, r)
            counts[prefix] = counts.get(prefix, 0) + 1
        assert set(counts.values()) == {p ** (depth - r)}
        assert len(counts) == p**r
