"""The multidimensional adding machine and Halton generators.

Orbit points are stored coordinatewise as reversed-digit integers V_i of a
fixed depth D_i, so one odometer step is just V_i + 1.  A guard counter G
tracks how many steps (in either direction) remain carry-free; operations
consume it and refuse to run past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .kernel import PrimeBasis, digit_reverse


class GuardExhausted(Exception):
    """A step or jump would carry past the stored digit depth."""


@dataclass(frozen=True)
class DigitPoint:
    """An orbit point with per-coordinate reversed-digit values and depths."""

    basis: PrimeBasis
    depths: tuple[int, ...]
    values: tuple[int, ...]
    guard: int

    def __post_init__(self):
        s = self.basis.s
        if len(self.depths) != s or len(self.values) != s:
            raise ValueError("depths/values length must match basis dimension")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")
        for p, d, v in zip(self.basis.primes, self.depths, self.values):
            if d < 1:
                raise ValueError("depths must be >= 1")
            cap = p**d
            if not 0 <= v < cap:
                raise ValueError(f"value {v} out of range for depth {d} base {p}")
            if v - self.guard < 0 or v + self.guard >= cap:
                raise ValueError(
                    f"guard {self.guard} not honored: base {p}, V={v}, depth {d}"
                )

    @classmethod
    def sample(
        cls,
        basis: PrimeBasis,
        guard: int,
        rng,
        min_depths: Sequence[int] | None = None,
    ) -> "DigitPoint":
        """A uniform point with a carry-free window of `guard` steps each way.

        Per coordinate (in basis order): depth D_i is the least D_i >=
        min_depths[i] (default 1) with p_i**D_i >= 4 * guard, and V_i =
        guard + rng.below(p_i**D_i - 2 * guard), uniform on
        [guard, p_i**D_i - guard).  One `below` call per coordinate.
        """
        depths, values = [], []
        for i, p in enumerate(basis.primes):
            d = 1 if min_depths is None else min_depths[i]
            while p**d < 4 * guard:
                d += 1
            depths.append(d)
            values.append(guard + rng.below(p**d - 2 * guard))
        return cls(basis, tuple(depths), tuple(values), guard)

    def coordinate(self, i: int) -> Fraction:
        p = self.basis.primes[i]
        d = self.depths[i]
        return Fraction(digit_reverse(self.values[i], p, d), p**d)

    def coordinates(self) -> tuple[Fraction, ...]:
        return tuple(self.coordinate(i) for i in range(self.basis.s))

    def v_mod(self, i: int, r: int) -> int:
        """V_{i,r}: the reversed-digit value truncated to depth r."""
        if r > self.depths[i]:
            raise ValueError(f"depth {r} exceeds stored depth {self.depths[i]}")
        return self.values[i] % self.basis.primes[i] ** r


def step(x: DigitPoint) -> DigitPoint:
    """One forward application of the product adding machine."""
    return jump(x, 1)


def inverse_step(x: DigitPoint) -> DigitPoint:
    """One backward application; inverse of step."""
    return jump(x, -1)


def jump(x: DigitPoint, k: int) -> DigitPoint:
    """k-fold step (k may be negative); constant time via V_i + k."""
    if abs(k) > x.guard:
        raise GuardExhausted(f"|k|={abs(k)} exceeds guard {x.guard}")
    if k == 0:
        return x
    return DigitPoint(
        x.basis,
        x.depths,
        tuple(v + k for v in x.values),
        x.guard - abs(k),
    )


def radical_inverse(k: int, q: int) -> Fraction:
    """phi_q(k): base-q digit reversal of the integer k into [0,1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    num, den = 0, 1
    while k:
        k, d = divmod(k, q)
        num = num * q + d
        den *= q
    return Fraction(num, den)


def halton(k: int, basis: PrimeBasis) -> tuple[Fraction, ...]:
    """The k-th Halton point: radical inverses in each prime base."""
    return tuple(radical_inverse(k, p) for p in basis.primes)


def forward_orbit_from_zero(
    basis: PrimeBasis, count: int
) -> Iterator[tuple[Fraction, ...]]:
    """Points T^k(0) for k = 0 .. count-1, via the reversed-digit values.

    The zero point forbids negative jumps, so this enumerates forward only;
    depth is chosen so that `count` steps never overflow.
    """
    depths = []
    for p in basis.primes:
        d = 1
        while p**d < max(count, 2):
            d += 1
        depths.append(d)
    for k in range(count):
        yield tuple(
            Fraction(digit_reverse(k % p**d, p, d), p**d)
            for p, d in zip(basis.primes, depths)
        )
