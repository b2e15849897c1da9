"""Exact scalars and the combinatorial enumerators everything else consumes.

The universal scalar is :class:`fractions.Fraction`, which is already an
arbitrary-precision rational in canonical reduced form (positive denominator,
gcd(|p|, q) = 1, zero as 0/1).  It is re-exported here as ``Rational`` so the
rest of the package has a single name for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class InvalidParameter(ValueError):
    """A parameter is outside the range an operation is defined for."""


@lru_cache(maxsize=None)
def factorial(n: int) -> Fraction:
    """n! as an exact integer-valued Fraction."""
    if n < 0:
        raise InvalidParameter(f"factorial of negative {n}")
    return Fraction(math.factorial(n))


def binomial(n: int, k: int) -> Fraction:
    """C(n, k); zero when k is outside 0..n."""
    if n < 0:
        raise InvalidParameter(f"binomial with negative n={n}")
    if k < 0 or k > n:
        return ZERO
    return factorial(n) / (factorial(k) * factorial(n - k))


def multinomial(ts: Sequence[int]) -> int:
    """(sum ts)! / prod(t!)."""
    if min(ts, default=0) < 0:
        raise InvalidParameter(f"multinomial with a negative part in {tuple(ts)}")
    out = math.factorial(sum(ts))
    for t in ts:
        if t > 1:
            out //= math.factorial(t)
    return out


def numerators(column: Sequence[Fraction]) -> tuple[list[int], int]:
    """The column as integer numerators over one common denominator, the lcm
    of its denominators."""
    den = math.lcm(*(x.denominator for x in column))
    return [x.numerator * (den // x.denominator) for x in column], den


def convolve(
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    nmax: int,
    *,
    egf: bool = False,
    weight: Sequence[int] | None = None,
    divisor: int = 1,
) -> list[Fraction]:
    """c_0..c_nmax with c_n = sum_{i=0}^n C(n, i) weight[i] a_i b_{n-i} / divisor.

    The factor C(n, i) is there only with ``egf`` (the product of two
    exponential generating functions) and weight[i] only with ``weight``.
    Each column is taken as integer numerators over one common denominator,
    so the double loop runs on plain ints and skips zero entries; each c_n
    becomes a Fraction once, at the end.
    """
    if nmax < 0:
        raise InvalidParameter(f"nmax must be nonnegative, got {nmax}")
    a_num, a_den = numerators(a[: nmax + 1])
    b_num, b_den = numerators(b[: nmax + 1])
    if len(a_num) <= nmax or len(b_num) <= nmax:
        raise InvalidParameter(f"convolution to index {nmax} needs {nmax + 1} entries per column")
    if weight is not None:
        a_num = [x * weight[i] for i, x in enumerate(a_num)]
    a_nonzero = [(i, x) for i, x in enumerate(a_num) if x]
    den = a_den * b_den * divisor
    comb = math.comb
    out = []
    for n in range(nmax + 1):
        acc = 0
        for i, x in a_nonzero:
            if i > n:
                break
            y = b_num[n - i]
            if y:
                acc += comb(n, i) * x * y if egf else x * y
        out.append(Fraction(acc, den))
    return out


def rising_factorial(x: Fraction, n: int) -> Fraction:
    """x(x+1)...(x+n-1), with the empty product equal to 1."""
    if n < 0:
        raise InvalidParameter(f"rising factorial with negative n={n}")
    out = ONE
    for i in range(n):
        out *= x + i
    return out


def compositions(total: int, min_part: int, length: int | None = None) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of integers >= min_part summing to ``total``.

    With ``length`` given, yields tuples of exactly that length in
    lexicographic order.  With ``length`` omitted (min_part=1 only, else the
    set is infinite), yields all lengths 1..total, shortest first.
    """
    if min_part not in (0, 1):
        raise InvalidParameter(f"min_part must be 0 or 1, got {min_part}")
    if total < 0:
        return
    if length is None:
        if min_part == 0:
            raise InvalidParameter("length is required when min_part=0")
        for r in range(1, total + 1):
            yield from compositions(total, 1, r)
        return
    if length <= 0:
        raise InvalidParameter(f"length must be positive, got {length}")
    yield from _compositions_fixed(total, min_part, length)


def _compositions_fixed(total: int, min_part: int, length: int) -> Iterator[tuple[int, ...]]:
    # Lexicographic successor: the rightmost part j above min_part gives one
    # to part j-1 and the rest of itself to the last part, parts j..-2 drop
    # to min_part.
    if total < min_part * length:
        return
    last = length - 1
    parts = [min_part] * last + [total - min_part * last]
    while True:
        yield tuple(parts)
        j = last
        while j and parts[j] == min_part:
            j -= 1
        if not j:
            return
        spare = parts[j] - 1
        parts[j] = min_part
        parts[j - 1] += 1
        parts[last] = spare


def partition_multiplicities(m: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity vectors (t_1..t_m) with t_1 + 2 t_2 + ... + m t_m = m.

    Yields exactly p(m) vectors, t_1 descending first.
    """
    if m < 1:
        raise InvalidParameter(f"m must be positive, got {m}")

    ts = [0] * m

    # ts[k-1:] is all zero whenever rec(k, rem) is entered, so the vector is
    # complete as soon as rem reaches 0.
    def rec(k: int, rem: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield tuple(ts)
            return
        if k > rem:
            return
        for t in range(rem // k, -1, -1):
            ts[k - 1] = t
            yield from rec(k + 1, rem - k * t)

    yield from rec(1, m)


@dataclass(frozen=True)
class GaussianRational:
    """re + im*sqrt(-1) with exact rational components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: Fraction | int, im: Fraction | int = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_real(self) -> bool:
        return self.im == 0


GAUSSIAN_I = GaussianRational.of(0, 1)

# i^k for k mod 4; the double sums in the tangent-number identity only ever
# need these powers.
I_POWERS = (
    GaussianRational.of(1, 0),
    GaussianRational.of(0, 1),
    GaussianRational.of(-1, 0),
    GaussianRational.of(0, -1),
)
