"""Two-sided local discrepancy of odometer orbits against corner boxes.

Two independent algorithms compute the same quantity:

* a naive counter that reverses the digits of every orbit-window point and
  compares it with the box corner by exact integer cross-multiplication, and
* a fast counter that decomposes the (digit-truncated) box into elementary
  intervals, turns multidimensional digit-prefix matching into one congruence
  mod P_r via the Chinese Remainder Theorem, and counts residues in the index
  window in closed form.

The fast counter computes the discrepancy of the *truncated* corner exactly;
truncation at depth m with p_i**m > 2L costs at most s in absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

import numpy as np

from .kernel import (
    PrimeBasis,
    count_residue_in_range,
    crt_inverses,
    digit,
    truncate,
    v_value,
)
from .odometer import DigitPoint, GuardExhausted


@dataclass(frozen=True)
class BoxTarget:
    """The corner y of the box [0,y_1) x ... x [0,y_s)."""

    basis: PrimeBasis
    y: tuple[Fraction, ...]

    @classmethod
    def create(cls, basis: PrimeBasis, y: Sequence[Fraction]) -> "BoxTarget":
        y = tuple(Fraction(v) for v in y)
        if len(y) != basis.s:
            raise ValueError("corner dimension must match basis")
        for v in y:
            if not 0 < v < 1:
                raise ValueError(f"corner coordinates must lie in (0,1), got {v}")
        return cls(basis, y)

    @property
    def volume(self) -> Fraction:
        return prod(self.y, start=Fraction(1))

    def digit(self, i: int, j: int) -> int:
        """Digit j (1-indexed) of y_i in base p_i."""
        return digit(self.y[i], self.basis.primes[i], j)

    def truncated(self, m: int) -> tuple[Fraction, ...]:
        """Coordinatewise truncation [y_i]_m."""
        return tuple(
            truncate(v, p, m) for v, p in zip(self.y, self.basis.primes)
        )


def two_sided_discrepancy_naive(
    x: DigitPoint, box: BoxTarget, L: int, corner: Sequence[Fraction] | None = None
) -> Fraction:
    """D over the window k = -L .. L-1, by explicit membership tests.

    All window points at once: coordinate i of jump(x, k) is rev(V_i + k) / p**D
    (rev reverses D digits), below num / den exactly when rev * den < num * p**D.
    int64 while den * p**D < 2**63, else Python ints (dtype object).

    `corner` optionally replaces the box corner (used to test truncated
    corners against the fast counter).
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    if L > x.guard:
        raise GuardExhausted(f"L={L} exceeds guard {x.guard}")
    target = tuple(corner) if corner is not None else box.y
    inside = np.ones(2 * L, dtype=bool)
    for p, depth, v, y in zip(x.basis.primes, x.depths, x.values, target):
        num, den = y.numerator, y.denominator
        dtype = np.int64 if den * p**depth < 2**63 else object
        w = np.arange(v - L, v + L, dtype=dtype)
        # in place, so that a window holds w, rev and one digit array at a time
        rev = np.zeros_like(w)
        for _ in range(depth):
            rev *= p
            rev += w % p
            w //= p
        rev *= den
        inside &= rev < num * p**depth
    return int(inside.sum()) - 2 * L * prod(target, start=Fraction(1))


@dataclass(frozen=True)
class CrtFrame:
    """Per multi-index r: modulus, CRT inverses, and combined V values."""

    basis: PrimeBasis
    r: tuple[int, ...]
    p_r: int
    m_inv: tuple[int, ...]
    v_rx: int
    v_ry: int


def crt_combine(
    basis: PrimeBasis, r: Sequence[int], m_inv: Sequence[int], residues: Sequence[int]
) -> int:
    """The residue mod P_r congruent to residues[i] mod p_i**r_i for every i.

    sum_i M_i * (P_r / p_i**r_i) * residues[i] mod P_r, with M_i the CRT
    inverses of `crt_inverses`.
    """
    p_r = basis.modulus(r)
    total = 0
    for p, ri, mi, v in zip(basis.primes, r, m_inv, residues):
        total += mi * (p_r // p**ri) * v
    return total % p_r


def crt_frame(
    basis: PrimeBasis, r: Sequence[int], x: DigitPoint, box: BoxTarget
) -> CrtFrame:
    """Build the CRT frame turning prefix matching at depth r into one congruence."""
    r = tuple(r)
    if any(ri < 1 for ri in r):
        raise ValueError("all r_i must be >= 1")
    if any(ri > d for ri, d in zip(r, x.depths)):
        raise ValueError(f"r={r} exceeds stored depths {x.depths}")
    m_inv = crt_inverses(basis, r)
    v_x = [x.v_mod(i, ri) for i, ri in enumerate(r)]
    v_y = [v_value(y, p, ri) for y, p, ri in zip(box.y, basis.primes, r)]
    return CrtFrame(
        basis,
        r,
        basis.modulus(r),
        m_inv,
        crt_combine(basis, r, m_inv, v_x),
        crt_combine(basis, r, m_inv, v_y),
    )


def v_ryb(frame: CrtFrame, box: BoxTarget, b: Sequence[int]) -> int:
    """V_{r,y,b}: y-digits below depth r_i plus offset digit b_i at depth r_i.

    That is V_{r,y} with digit r_i of each coordinate moved from y_{i,r_i} to
    b_i, so by linearity of the combination it is V_{r,y} plus the combined
    offsets (b_i - y_{i,r_i}) * p_i**(r_i - 1).
    """
    offsets = [
        (bi - box.digit(i, ri)) * p ** (ri - 1)
        for i, (p, ri, bi) in enumerate(zip(frame.basis.primes, frame.r, b))
    ]
    shift = crt_combine(frame.basis, frame.r, frame.m_inv, offsets)
    return (frame.v_ry + shift) % frame.p_r


def fast_two_sided_discrepancy(
    x: DigitPoint, box: BoxTarget, L: int, m: int
) -> Fraction:
    """D of the depth-m truncated corner over k = -L .. L-1, by residue counting.

    Sums, over multi-indices r in [1,m]^s and digit offsets b_i < y_{i,r_i},
    the number of k in the window hitting the elementary interval, minus the
    expected count 2L * prod [y_i]_m.  Exact.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    if L > x.guard:
        raise GuardExhausted(f"L={L} exceeds guard {x.guard}")
    if m < 1:
        raise ValueError("truncation depth must be >= 1")
    if any(m > d for d in x.depths):
        raise ValueError(f"depth m={m} exceeds stored depths {x.depths}")
    basis = x.basis
    count = 0
    for r in product(range(1, m + 1), repeat=basis.s):
        digits = [box.digit(i, ri) for i, ri in enumerate(r)]
        if any(d == 0 for d in digits):
            continue
        frame = crt_frame(basis, r, x, box)
        for b in product(*(range(d) for d in digits)):
            a = (v_ryb(frame, box, b) - frame.v_rx) % frame.p_r
            count += count_residue_in_range(-L, L - 1, a, frame.p_r)
    vol = prod(box.truncated(m), start=Fraction(1))
    return count - 2 * L * vol


@dataclass(frozen=True, eq=False)
class DiscrepancySeries:
    """D(k) for k = 0 .. N-1, stored as int64 counts plus the exact volume.

    D(k) = counts[k] - 2k * volume; counts[k] is the number of window points
    inside the box, so the rational value is reconstructed exactly on read.
    Exact arithmetic takes the counts as Python ints (`int(counts[k])`,
    `counts.tolist()`): an np.int64 times a large numerator wraps silently.
    """

    n: int
    counts: np.ndarray
    volume: Fraction

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    def value(self, k: int) -> Fraction:
        return int(self.counts[k]) - 2 * k * self.volume

    def scaled_values(self) -> np.ndarray:
        """d_k = D(k) * den = counts[k] * den - 2k * num, exactly.

        Counts are nonnegative, so every d_k and both products lie within
        max(2N, largest count) * den, which is 2N * den for a series that
        `discrepancy_series` built.  Below 2**63 the array is int64;
        otherwise it holds Python ints (dtype object).  The int64 array is
        built in place over k, with one N-long temporary.
        """
        num, den = self.volume.numerator, self.volume.denominator
        k = np.arange(self.n, dtype=np.int64)
        if max(2 * self.n, int(self.counts.max(initial=0))) * den < 2**63:
            k *= -2 * num
            k += self.counts * den
            return k
        return self.counts.astype(object) * den - k.astype(object) * (2 * num)

    @property
    def all_distinct(self) -> bool:
        """d_j = d_k means (c_j - c_k) * den = 2(j - k) * num, and num, den
        are coprime, so den divides 2(j - k): no two d_k are equal."""
        return self.volume.denominator > 2 * (self.n - 1)

    def value_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights): the scaled values d_k without repeats, sorted,
        and how many k take each; d itself, unsorted, when `all_distinct`
        (sorting an object array compares Python ints one pair at a time).
        """
        d = self.scaled_values()
        if self.all_distinct:
            return d, np.ones(self.n, dtype=np.int64)
        return np.unique(d, return_counts=True)

    def value_index(self, values: np.ndarray) -> np.ndarray:
        """For each k, the position of d_k in the table's `values`; N long,
        so only series.csv builds it."""
        if self.all_distinct:
            return np.arange(self.n)
        return np.searchsorted(values, self.scaled_values())

    def float_values(self) -> np.ndarray:
        num, den = self.volume.numerator, self.volume.denominator
        k = np.arange(self.n, dtype=np.float64)
        return self.counts.astype(np.float64) - 2.0 * k * (num / den)


def _reversed(v: np.ndarray, p: int, depth: int) -> np.ndarray:
    """The last `depth` base-p digits of each v, reversed; one pass per digit."""
    out = np.zeros_like(v)
    for _ in range(depth):
        v, low = np.divmod(v, p)
        out = out * p + low
    return out


def _runs_below(p: int, depth: int, lo: int, n: int, threshold: int) -> np.ndarray:
    """rev(lo + j) < threshold for j = 0 .. n-1, rev reversing `depth` digits.

    With m = p**c <= 4096 (c <= depth) and lo + j = q*m + r, the reversal is
    rev_c(r) * p**(depth-c) + rev_{depth-c}(q): one row of the m low values
    against threshold - rev_{depth-c}(q) for each block head q the run meets.
    """
    c = 1
    while c < depth and p ** (c + 1) <= 4096:
        c += 1
    m = p**c
    q0, r0 = divmod(lo, m)
    heads = q0 + np.arange((r0 + n - 1) // m + 1, dtype=np.int64)
    low = _reversed(np.arange(m, dtype=np.int64), p, c) * p ** (depth - c)
    high = _reversed(heads, p, depth - c)
    return (low < (threshold - high)[:, None]).ravel()[r0 : r0 + n]


def _membership_flags(x: DigitPoint, box: BoxTarget, n: int) -> np.ndarray:
    """flags[k] = (points joined at window size k+1 inside the box), summed.

    Entry k counts how many of the two new points jump(x, k) and
    jump(x, -k-1) lie in the box (0, 1, or 2).  At the stored depth D a
    coordinate is rev / p**D, and rev / p**D < num / den exactly when
    rev < ceil(num * p**D / den); that threshold is at most p**D, so the
    comparison stays in int64 whatever the size of den, and p**D < 2**63 is
    the one limit on D.  The forward run is v .. v+n-1 and the backward one
    v-n .. v-1 reversed, inside [0, p**D).
    """
    fwd, bwd = np.ones((2, n), dtype=bool)
    for p, depth, v, y in zip(x.basis.primes, x.depths, x.values, box.y):
        if p**depth >= 2**63:
            raise ValueError(f"base {p} depth {depth} does not fit in int64")
        threshold = -(-y.numerator * p**depth // y.denominator)
        fwd &= _runs_below(p, depth, v, n, threshold)
        bwd &= _runs_below(p, depth, v - n, n, threshold)[::-1]
    return fwd.astype(np.int8) + bwd


def discrepancy_series(x: DigitPoint, box: BoxTarget, n: int) -> DiscrepancySeries:
    """The full temporal series D(k), k = 0 .. N-1, computed incrementally.

    Growing the window from k to k+1 adds the two points jump(x, k) and
    jump(x, -k-1); counts are cumulative sums of their memberships.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    if n > x.guard:
        raise GuardExhausted(f"N={n} exceeds guard {x.guard}")
    flags = _membership_flags(x, box, n)
    counts = np.concatenate(([0], np.cumsum(flags[: n - 1])))
    return DiscrepancySeries(n, counts, box.volume)
