import cmath
from fractions import Fraction as F
from itertools import product
from math import pi, sin, sqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haltonclt.cli import random_frequency, random_multi_index
from haltonclt.discrepancy import (
    BoxTarget,
    crt_combine,
    crt_frame,
    fast_two_sided_discrepancy,
)
from haltonclt.kernel import PrimeBasis, crt_inverses, v_value
from haltonclt.odometer import DigitPoint
from haltonclt.rng import CounterRng
from haltonclt.spectral import (
    cell_sum_direct,
    cell_sum_fourier,
    character_expectation_bruteforce,
    e,
    orthogonality_delta,
    phi_coefficient,
    psi_factor,
    residue_window,
)

B2 = PrimeBasis((2,))


def small_frame(primes=(2, 3), r=(2, 2), v=(3, 5), y=(F(1, 3), F(2, 5)), guard=4):
    basis = PrimeBasis(primes)
    depths = tuple(max(ri, 4) for ri in r)
    x = DigitPoint(basis, depths, tuple(max(vi, guard) for vi in v), guard)
    box = BoxTarget.create(basis, y)
    return crt_frame(basis, r, x, box), box


def test_residue_window_is_complete_residue_system():
    for m in (1, 2, 3, 4, 5, 12):
        window = list(residue_window(m))
        assert len(window) == m
        assert sorted(k % m for k in window) == list(range(m))


def test_phi_vanishes_on_integer_argument():
    assert phi_coefficient(8, 4, 2) == 0  # 2mL/P = 2 integer


def test_phi_worked_example():
    got = phi_coefficient(4, 1, 1)
    assert abs(got - (1 - 1j) / 4) < 1e-15
    assert abs(abs(got) - sqrt(2) / 4) < 1e-15


def test_phi_rejects_bad_frequency():
    with pytest.raises(ValueError):
        phi_coefficient(8, 1, 0)
    with pytest.raises(ValueError):
        phi_coefficient(8, 1, 5)  # outside I_8 = [-3, 4]


def test_phi_bound_random():
    rng = CounterRng(23)
    for _ in range(1000):
        p_r = 2 + rng.below(4094)
        L = 1 + rng.below(10**4)
        m = random_frequency(rng, p_r)
        assert abs(phi_coefficient(p_r, L, m)) <= 1 / max(1, abs(m)) + 1e-12


def test_psi_examples():
    assert psi_factor(5, 0, 3) == 3
    assert psi_factor(7, 2, 0) == 0
    assert abs(psi_factor(3, 1, 1) - e(F(-1, 3))) < 1e-15


def test_psi_bound():
    for p in (2, 3, 5, 7):
        for m_prime in range(p):
            for d in range(p):
                assert abs(psi_factor(p, m_prime, d)) <= p + 1e-12


def test_cell_sum_zero_digit_case():
    # y = 1/5 base 2 has digit 0 at position 1
    basis = PrimeBasis((2,))
    x = DigitPoint(basis, (4,), (8,), 4)
    box = BoxTarget.create(basis, (F(1, 5),))
    frame = crt_frame(basis, (1,), x, box)
    assert cell_sum_direct(frame, box, 4) == 0
    assert abs(cell_sum_fourier(frame, box, 4)) < 1e-12


def test_cell_sum_full_periods_cancel():
    frame, box = small_frame()
    L = frame.p_r * 3  # needs a wider guard
    basis = frame.basis
    depths = tuple(d + 8 for d in (2, 2))
    x = DigitPoint(basis, depths, (L + 3, L + 5), L)
    frame = crt_frame(basis, (2, 2), x, box)
    assert cell_sum_direct(frame, box, L) == 0


def test_cell_sum_fourier_matches_direct_random():
    rng = CounterRng(31)
    for primes in ((2,), (2, 3), (3, 5)):
        basis = PrimeBasis(primes)
        for _ in range(8):
            r = random_multi_index(rng, basis, 5, 4096)
            L = 1 + rng.below(2048)
            x = DigitPoint.sample(basis, L, rng, r)
            box = BoxTarget.create(
                basis, tuple(F(1 + rng.below(98), 100) for _ in primes)
            )
            frame = crt_frame(basis, r, x, box)
            direct = cell_sum_direct(frame, box, L)
            fourier = cell_sum_fourier(frame, box, L)
            assert abs(fourier.imag) <= 1e-9
            assert abs(fourier.real - float(direct)) <= 1e-9
            assert abs(direct) < basis.p0


def test_cell_sums_reassemble_fast_counter():
    # summing dD over r in [1,m]^s gives the fast discrepancy exactly
    basis = PrimeBasis((2, 3))
    L, m = 32, 3
    x = DigitPoint(basis, (8, 6), (200, 300), L)
    box = BoxTarget.create(basis, (F(1, 3), F(2, 5)))
    total = F(0)
    for r in product(range(1, m + 1), repeat=2):
        frame = crt_frame(basis, r, x, box)
        total += cell_sum_direct(frame, box, L)
    assert total == fast_two_sided_discrepancy(x, box, L, m)


def test_enumeration_cap_enforced():
    basis = PrimeBasis((2,))
    x = DigitPoint(basis, (24,), (2**23,), 4)
    box = BoxTarget.create(basis, (F(1, 3),))
    frame = crt_frame(basis, (24,), x, box)
    with pytest.raises(ValueError):
        cell_sum_direct(frame, box, 4)
    with pytest.raises(ValueError):
        cell_sum_fourier(frame, box, 4)


def test_orthogonality_delta_worked_examples():
    basis = PrimeBasis((2,))
    box = BoxTarget.create(basis, (F(1, 3),))
    # 1/2 + 1/4 != 0 -> expectation 0
    got = character_expectation_bruteforce(basis, [(1,), (2,)], [1, 1], box)
    assert abs(got) <= 1e-12
    # 1/2 - 2/4 == 0 -> expectation 1
    got = character_expectation_bruteforce(basis, [(1,), (2,)], [1, -2], box)
    assert abs(got - 1) <= 1e-12


def test_orthogonality_delta_predicate_matches_bruteforce():
    rng = CounterRng(41)
    for primes in ((2,), (3,), (2, 3)):
        basis = PrimeBasis(primes)
        box = BoxTarget.create(
            basis, tuple(F(1, 3) if p != 3 else F(2, 5) for p in primes)
        )
        for mu in (2, 3, 4):
            for _ in range(10):
                r_list, m_list = [], []
                for _ in range(mu):
                    r = random_multi_index(rng, basis, 3, 256)
                    r_list.append(r)
                    m_list.append(random_frequency(rng, basis.modulus(r)))
                got = character_expectation_bruteforce(basis, r_list, m_list, box)
                assert abs(got - orthogonality_delta(basis, r_list, m_list)) <= 1e-10


def test_pattern_cap_enforced():
    basis = PrimeBasis((2,))
    box = BoxTarget.create(basis, (F(1, 3),))
    with pytest.raises(ValueError):
        character_expectation_bruteforce(basis, [(17,), (17,)], [1, 1], box)


def test_exact_phase_reduction():
    # huge rational arguments keep full precision through range reduction
    t = F(2**80 + 1, 3)  # 2^80 + 1 == 2 mod 3
    assert abs(e(t) - e(F(2, 3))) < 1e-15


def reference_cell_sum_fourier(frame, box, L):
    """The Fourier cell sum with every phase a Fraction, psi rebuilt per m."""
    total = complex(0)
    phase_base = F(frame.v_rx - frame.v_ry, frame.p_r)
    for m in residue_window(frame.p_r):
        if m == 0:
            continue
        num = 2j * sin(2 * pi * float(F(m * L, frame.p_r) % 1))
        phi = num / (frame.p_r * (e(F(m, frame.p_r)) - 1))
        psi = complex(1)
        for i, (p, ri) in enumerate(zip(frame.basis.primes, frame.r)):
            m_prime = (-m * frame.m_inv[i]) % p
            d = box.digit(i, ri)
            psi *= sum(e(F(m_prime * (b - d), p)) for b in range(d))
        total += phi * psi * e(m * phase_base)
    return total


@st.composite
def fourier_frames(draw):
    primes = draw(st.sampled_from(((2,), (3,), (13,), (2, 3), (3, 5), (2, 3, 5))))
    basis = PrimeBasis(primes)
    admissible = sorted(
        (r for r in product(range(1, 13), repeat=basis.s)
         if basis.modulus(r) <= 4096),
        key=basis.modulus,
    )
    # the largest moduli, next to 4096, as often as all the others
    r = draw(st.one_of(st.sampled_from(admissible[-4:]), st.sampled_from(admissible)))
    L = draw(st.integers(1, 10**4))
    depths, values, y = [], [], []
    for p, ri in zip(primes, r):
        depth = ri
        while p**depth < 4 * L:
            depth += 1
        depths.append(depth)
        values.append(L + draw(st.integers(0, p**depth - 2 * L - 1)))
        # the first ri + 1 digits drawn, so digit ri is often 0; the 1/3 of a
        # unit in the last place keeps y inside (0, 1) with those digits
        digits = draw(st.lists(st.integers(0, p - 1), min_size=ri + 1, max_size=ri + 1))
        n = len(digits)
        y.append(F(sum(dj * p ** (n - 1 - j) for j, dj in enumerate(digits)), p**n)
                 + F(1, 3 * p**n))
    x = DigitPoint(basis, tuple(depths), tuple(values), L)
    box = BoxTarget.create(basis, y)
    return crt_frame(basis, r, x, box), box, L


@given(fourier_frames())
@settings(max_examples=60, deadline=None)
def test_cell_sum_fourier_matches_fraction_phases_bit_for_bit(case):
    frame, box, L = case
    assert repr(cell_sum_fourier(frame, box, L)) == repr(
        reference_cell_sum_fourier(frame, box, L)
    )


def reference_character_expectation(basis, r_list, m_list, box):
    """The brute-force character expectation with every phase a Fraction."""
    r0 = tuple(max(r[i] for r in r_list) for i in range(basis.s))
    tables = []
    for r, m in zip(r_list, m_list):
        p_r = basis.modulus(r)
        m_inv = crt_inverses(basis, r)
        v_y = crt_combine(
            basis, r, m_inv,
            [v_value(y, p, ri) for y, p, ri in zip(box.y, basis.primes, r)],
        )
        moduli = tuple(p**ri for p, ri in zip(basis.primes, r))
        phase = {
            v: F(m * ((crt_combine(basis, r, m_inv, v) - v_y) % p_r), p_r)
            for v in product(*(range(q) for q in moduli))
        }
        tables.append((moduli, phase))
    total = complex(0)
    for vs in product(*(range(p**ri) for p, ri in zip(basis.primes, r0))):
        omega = F(0)
        for moduli, phase in tables:
            omega += phase[tuple(v % q for v, q in zip(vs, moduli))]
        total += e(omega)
    return total / basis.modulus(r0)


@st.composite
def character_cases(draw):
    primes = draw(st.sampled_from(((2,), (3,), (2, 3), (3, 5))))
    basis = PrimeBasis(primes)
    admissible = [
        r for r in product(range(1, 9), repeat=basis.s) if basis.modulus(r) <= 256
    ]
    mu = draw(st.integers(2, 4))
    r_list = draw(st.lists(st.sampled_from(admissible), min_size=mu, max_size=mu))
    m_list = []
    for r in r_list:
        p_r = basis.modulus(r)
        m_list.append(
            draw(st.integers(-((p_r - 1) // 2), p_r // 2).filter(lambda m: m != 0))
        )
    y = []
    for _ in primes:
        den = draw(st.integers(2, 1000))
        y.append(F(draw(st.integers(1, den - 1)), den))
    return basis, r_list, m_list, BoxTarget.create(basis, y)


@given(character_cases())
@example((B2, [(1,), (2,)], [1, -2], BoxTarget.create(B2, (F(1, 3),))))  # delta 1
@settings(max_examples=60, deadline=None)
def test_character_expectation_matches_fraction_phases_bit_for_bit(case):
    basis, r_list, m_list, box = case
    assert repr(character_expectation_bruteforce(basis, r_list, m_list, box)) == repr(
        reference_character_expectation(basis, r_list, m_list, box)
    )
