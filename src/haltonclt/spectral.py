"""Numeric checks of the Fourier cell-sum expansion and character orthogonality.

The cell sum dD_{r,L} admits a finite Fourier expansion over the symmetric
residue window I*_{P_r}; this module evaluates both sides (exact counting vs
the frequency sum) and the brute-force expectation of joint character sums
over all digit prefixes of x.

A phase a / q is range-reduced to [0,1) as the integer residue (a mod q) / q
before any float is formed, since naive float reduction can lose every digit;
int / int is correctly rounded, so it is the float of Fraction(a, q) mod 1.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product
from math import pi, sin

from .discrepancy import BoxTarget, CrtFrame, crt_combine, v_ryb
from .kernel import PrimeBasis, count_residue_in_range, crt_inverses, v_value

# enumeration caps; hard preconditions, never silent truncation
MAX_FREQUENCIES = 2**20
MAX_DIGIT_PATTERNS = 2**16


def e(t: Fraction | float) -> complex:
    """exp(2 pi i t) with exact fractional range reduction for rationals."""
    if isinstance(t, Fraction):
        t = float(t - (t.numerator // t.denominator))
    return cmath.exp(2j * pi * t)


def residue_window(m_mod: int) -> range:
    """I_M: the symmetric complete residue system [-floor((M-1)/2), floor(M/2)]."""
    return range(-((m_mod - 1) // 2), m_mod // 2 + 1)


def phi_coefficient(p_r: int, L: int, m: int) -> complex:
    """Frequency-m coefficient of the window indicator over the residue ring."""
    if m == 0 or m not in residue_window(p_r):
        raise ValueError(f"m={m} not in the nonzero residue window of {p_r}")
    num = 2j * sin(2 * pi * (m * L % p_r / p_r))
    den = p_r * (e(m % p_r / p_r) - 1)
    return num / den


def psi_factor(p_i: int, m_prime: int, y_digit: int) -> complex:
    """Geometric character sum over offsets b < y_digit at one coordinate."""
    if not 0 <= m_prime < p_i:
        raise ValueError("reduced frequency out of range")
    if not 0 <= y_digit < p_i:
        raise ValueError("digit out of range")
    return sum(e(m_prime * (b - y_digit) % p_i / p_i) for b in range(y_digit))


def cell_sum_direct(frame: CrtFrame, box: BoxTarget, L: int) -> Fraction:
    """dD_{r,L} by exact residue counting over the offset digits b."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if frame.p_r > MAX_FREQUENCIES:
        raise ValueError(f"modulus {frame.p_r} exceeds enumeration cap")
    digits = [box.digit(i, ri) for i, ri in enumerate(frame.r)]
    if any(d == 0 for d in digits):
        return Fraction(0)
    total = Fraction(0)
    for b in product(*(range(d) for d in digits)):
        a = (v_ryb(frame, box, b) - frame.v_rx) % frame.p_r
        total += count_residue_in_range(-L, L - 1, a, frame.p_r)
        total -= Fraction(2 * L, frame.p_r)
    return total


def cell_sum_fourier(frame: CrtFrame, box: BoxTarget, L: int) -> complex:
    """dD_{r,L} by the finite Fourier expansion; real up to roundoff."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if frame.p_r > MAX_FREQUENCIES:
        raise ValueError(f"modulus {frame.p_r} exceeds enumeration cap")
    # psi factor of coordinate i at every reduced frequency m' = -m * M_i mod p_i
    coords = [
        (p, mi, [psi_factor(p, m_prime, box.digit(i, ri)) for m_prime in range(p)])
        for i, (p, ri, mi) in enumerate(zip(frame.basis.primes, frame.r, frame.m_inv))
    ]
    p_r, shift = frame.p_r, frame.v_rx - frame.v_ry
    total = complex(0)
    for m in residue_window(p_r):
        if m == 0:
            continue
        psi = complex(1)
        for p, mi, table in coords:
            psi *= table[-m * mi % p]
        total += phi_coefficient(p_r, L, m) * psi * e(m * shift % p_r / p_r)
    return total


def orthogonality_delta(
    basis: PrimeBasis, r_list: list[tuple[int, ...]], m_list: list[int]
) -> int:
    """The predicted expectation: 1 iff sum_j m_j * P_{r0 - r_j} == 0 mod P_{r0}."""
    r0 = tuple(max(r[i] for r in r_list) for i in range(basis.s))
    p_r0 = basis.modulus(r0)
    total = 0
    for r, m in zip(r_list, m_list):
        total += m * basis.modulus(tuple(a - b for a, b in zip(r0, r)))
    return 1 if total % p_r0 == 0 else 0


def character_expectation_bruteforce(
    basis: PrimeBasis,
    r_list: list[tuple[int, ...]],
    m_list: list[int],
    box: BoxTarget,
) -> complex:
    """Average of e(sum_j m_j (V_{r_j,x} - V_{r_j,y}) / P_{r_j}) over all x prefixes.

    Enumerates every digit assignment of x up to the coordinatewise maximal
    depth r0; the phase depends on x only through those prefixes, so the
    average over [0,1)^s equals the average over the patterns.
    """
    if len(r_list) < 2 or len(r_list) != len(m_list):
        raise ValueError("need mu >= 2 matched (r, m) pairs")
    s = basis.s
    r0 = tuple(max(r[i] for r in r_list) for i in range(s))
    p_r0 = basis.modulus(r0)
    if p_r0 > MAX_DIGIT_PATTERNS:
        raise ValueError(f"{p_r0} digit patterns exceed enumeration cap")

    # a frame's phase depends on x only through V_i mod p_i**r_i; it is kept
    # as its numerator over P_r0, which every P_r divides
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
            v: m * ((crt_combine(basis, r, m_inv, v) - v_y) % p_r) * (p_r0 // p_r)
            for v in product(*(range(q) for q in moduli))
        }
        tables.append((moduli, phase))

    per_coord = [basis.primes[i] ** r0[i] for i in range(s)]
    total = complex(0)
    for vs in product(*(range(c) for c in per_coord)):
        omega = 0
        for moduli, phase in tables:
            omega += phase[tuple(v % q for v, q in zip(vs, moduli))]
        total += e(omega % p_r0 / p_r0)
    return total / p_r0
