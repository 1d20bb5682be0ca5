import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltonclt.kernel import (
    MILLER_RABIN_LIMIT,
    PrimeBasis,
    _is_prime,
    count_residue_in_range,
    crt_inverses,
    digit,
    digit_reverse,
    truncate,
    v_value,
)
from haltonclt.rng import CounterRng


def digits(x, q, r):
    return [digit(x, q, j) for j in range(1, r + 1)]


def test_digit_examples():
    assert digits(F(1, 3), 2, 6) == [0, 1, 0, 1, 0, 1]
    assert digits(F(1, 2), 2, 4) == [1, 0, 0, 0]
    assert digits(F(2, 3), 3, 4) == [2, 0, 0, 0]


def test_digit_rejects_out_of_range():
    with pytest.raises(ValueError):
        digit(F(3, 2), 2, 1)
    with pytest.raises(ValueError):
        digit(F(-1, 3), 2, 1)
    with pytest.raises(ValueError):
        digit(F(1, 3), 2, 0)
    with pytest.raises(ValueError):
        v_value(F(3, 2), 2, 3)


def test_digit_at_examples():
    assert digit(F(1, 3), 2, 4) == 1
    assert digit(F(1, 2), 2, 5) == 0
    assert digit(F(2, 3), 3, 1) == 2


def test_no_trailing_max_digit_tail():
    # canonical form: 1/2 in base 2 is .1000..., never .0111...
    assert digits(F(1, 2), 2, 40) == [1] + [0] * 39


def test_truncate_examples():
    assert truncate(F(1, 3), 2, 3) == F(1, 4)
    assert truncate(F(1, 3), 2, 0) == 0
    assert truncate(F(5, 8), 2, 2) == F(1, 2)


def test_truncate_brackets_value():
    for x in (F(1, 3), F(5, 7), F(9, 11)):
        for q in (2, 3, 5):
            for r in range(6):
                t = truncate(x, q, r)
                assert t <= x < t + F(1, q**r if r else 1)


def test_v_value_examples():
    assert v_value(F(5, 8), 2, 3) == 5
    assert v_value(F(0), 3, 4) == 0
    assert v_value(F(1, 3), 2, 4) == 10


@given(
    num=st.integers(0, 999),
    den=st.integers(1, 1000),
    q=st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=300, deadline=None)
def test_expansion_round_trips(num, den, q):
    # the first r digits rebuild the truncation [x]_r
    x = F(num, den)
    if x >= 1:
        return
    for r in (1, 7, 30):
        rebuilt = sum(F(d, q**j) for j, d in enumerate(digits(x, q, r), 1))
        assert rebuilt == truncate(x, q, r)


@given(
    num=st.integers(0, 200),
    den=st.integers(1, 201),
    q=st.sampled_from([2, 3, 5]),
    r=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_truncate_v_value_consistency(num, den, q, r):
    x = F(num, den)
    if x >= 1:
        return
    v = v_value(x, q, r)
    assert digit_reverse(v, q, r) == truncate(x, q, r) * q**r


def test_crt_inverses_examples():
    assert crt_inverses(PrimeBasis((2, 3)), (2, 2)) == (1, 7)
    assert crt_inverses(PrimeBasis((2,)), (5,)) == (1,)
    basis = PrimeBasis((2, 3, 5))
    got = crt_inverses(basis, (1, 1, 1))
    # recompute by brute force
    for m, p in zip(got, basis.primes):
        cof = 30 // p
        assert m == next(j for j in range(p) if cof * j % p == 1)


def test_crt_inverses_defining_congruence_random():
    rng = CounterRng(7)
    primes_pool = (2, 3, 5, 7, 11, 13)
    for _ in range(100):
        s = 1 + rng.below(3)
        primes = []
        while len(primes) < s:
            p = primes_pool[rng.below(len(primes_pool))]
            if p not in primes:
                primes.append(p)
        basis = PrimeBasis(tuple(primes))
        r = []
        for p in primes:
            ri = 1
            while p ** (ri + 1) < 2**64 and rng.below(2):
                ri += 1
            r.append(ri)
        p_r = basis.modulus(r)
        for m, p, ri in zip(crt_inverses(basis, r), primes, r):
            mod = p**ri
            assert 0 <= m < mod
            assert m * (p_r // mod) % mod == 1


def test_crt_inverses_rejects_bad_index():
    with pytest.raises(ValueError):
        crt_inverses(PrimeBasis((2, 3)), (1, 0))


def test_count_residue_examples():
    assert count_residue_in_range(-3, 2, 1, 3) == 2
    assert count_residue_in_range(0, 9, 0, 1) == 10
    assert count_residue_in_range(-5, 4, 0, 5) == 2
    assert count_residue_in_range(5, 4, 0, 3) == 0  # empty range


def test_count_residue_rejects_bad_modulus():
    with pytest.raises(ValueError):
        count_residue_in_range(0, 10, 0, 0)


def test_count_residue_exhaustive_against_enumeration():
    # prefix-sum oracle over the full stated domain |lo|,|hi| <= 200, M <= 50
    ks = np.arange(-201, 201)
    for m in range(1, 51):
        residues = ks % m
        for a in range(m):
            prefix = np.concatenate(([0], np.cumsum(residues == a)))
            # prefix[i] = #{k in [-201, -201+i-1] : k == a mod m}
            for lo in range(-200, 201, 7):
                row = prefix[lo + 201]
                for hi in range(lo - 1, 201, 11):
                    expected = int(prefix[hi + 202] - row)
                    assert count_residue_in_range(lo, hi, a, m) == expected


@given(
    lo=st.integers(-200, 200),
    hi=st.integers(-201, 200),
    m=st.integers(1, 50),
    a=st.integers(0, 49),
)
@settings(max_examples=500, deadline=None)
def test_count_residue_random_against_enumeration(lo, hi, m, a):
    if hi + 1 < lo:
        return
    a %= m
    expected = sum(1 for k in range(lo, hi + 1) if k % m == a)
    assert count_residue_in_range(lo, hi, a, m) == expected


def test_prime_basis_validation():
    with pytest.raises(ValueError):
        PrimeBasis((4,))
    with pytest.raises(ValueError):
        PrimeBasis((2, 2))
    assert PrimeBasis((2, 3, 5)).p0 == 30


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if by_trial_division(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, then the least strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 1105, 3215031751):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            PrimeBasis((n,))


def test_large_prime_basis_is_fast():
    start = time.perf_counter()
    assert PrimeBasis((10**14 + 31,)).p0 == 10**14 + 31
    assert time.perf_counter() - start < 0.1


def test_is_prime_refuses_n_past_the_deterministic_limit():
    # the limit itself is the least composite that passes all twelve bases
    assert MILLER_RABIN_LIMIT == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="too large"):
        PrimeBasis((MILLER_RABIN_LIMIT,))
