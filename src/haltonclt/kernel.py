"""Exact rational and digit arithmetic.

Everything here is big-integer / `fractions.Fraction` arithmetic; no floats.
Rationals in [0,1) always use the canonical base-q expansion (the one that
terminates, never an infinite tail of digit q-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence


# Miller-Rabin with the first twelve primes as bases decides every n below
# MILLER_RABIN_LIMIT, the least composite that passes all twelve (Sorenson
# and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= MILLER_RABIN_LIMIT raises ValueError."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is too large to test for primality (limit {MILLER_RABIN_LIMIT})"
        )
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeBasis:
    """The distinct primes fixing every digit base, and their product."""

    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        if not self.primes:
            raise ValueError("basis needs at least one prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be pairwise distinct: {self.primes}")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def s(self) -> int:
        return len(self.primes)

    @property
    def p0(self) -> int:
        return prod(self.primes)

    def modulus(self, r: Sequence[int]) -> int:
        """Product of p_i**r_i over the coordinates."""
        if len(r) != self.s:
            raise ValueError("multi-index length mismatch")
        return prod(p ** ri for p, ri in zip(self.primes, r))


def truncate(x: Fraction, q: int, r: int) -> Fraction:
    """[x]_r: the rational made of the first r base-q digits of x."""
    if r < 0:
        raise ValueError("depth must be >= 0")
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0,1), got {x}")
    # floor(x * q^r) / q^r, exact
    scaled = x.numerator * q**r // x.denominator
    return Fraction(scaled, q**r)


def digit(x: Fraction, q: int, j: int) -> int:
    """The j-th base-q digit of x in [0,1) (1-indexed): floor(x * q**j) mod q."""
    if j < 1:
        raise ValueError("digit positions are 1-indexed")
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0,1), got {x}")
    return x.numerator * q**j // x.denominator % q


def v_value(x: Fraction, q: int, r: int) -> int:
    """Reversed-digit value of the first r digits: sum of x_j * q**(j-1).

    That is the digit reversal of floor(x * q**r), whose r base-q digits are
    the first r digits of x; an x outside [0,1) leaves the digit range.
    """
    if r < 1:
        raise ValueError("depth must be >= 1")
    return digit_reverse(x.numerator * q**r // x.denominator, q, r)


def digit_reverse(v: int, q: int, r: int) -> int:
    """Reverse the r base-q digits of v (v < q**r)."""
    if not 0 <= v < q**r:
        raise ValueError("value out of digit range")
    out = 0
    for _ in range(r):
        v, d = divmod(v, q)
        out = out * q + d
    return out


def crt_inverses(basis: PrimeBasis, r: Sequence[int]) -> tuple[int, ...]:
    """CRT cofactor inverses: M_i with M_i * (P_r / p_i**r_i) == 1 mod p_i**r_i."""
    if len(r) != basis.s:
        raise ValueError("multi-index length mismatch")
    if any(ri < 1 for ri in r):
        raise ValueError("all exponents must be >= 1")
    p_r = basis.modulus(r)
    out = []
    for p, ri in zip(basis.primes, r):
        m = p**ri
        out.append(pow(p_r // m, -1, m))
    return tuple(out)


def count_residue_in_range(lo: int, hi: int, a: int, m: int) -> int:
    """#{k in [lo, hi] : k == a mod m}, empty ranges allowed."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if lo > hi + 1:
        raise ValueError("lo must be <= hi + 1")
    if lo > hi:
        return 0
    return (hi - a) // m - (lo - 1 - a) // m


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal 'num/den' or a plain integer."""
    text = text.strip()
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"
