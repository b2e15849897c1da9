"""Exact scalars and the combinatorial enumerators everything else consumes.

The scalar is :class:`fractions.Fraction`, an arbitrary-precision rational in
canonical reduced form (positive denominator, gcd(|p|, q) = 1, zero as 0/1).
Sequences of them travel as columns (nums, den): integer numerators over one
positive denominator (:func:`numerators`), which products keep with one gcd
(:func:`convolve`); a kernel builds a Fraction only for a value it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import Callable, Iterator, Sequence

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


def numerators(column: Sequence[Fraction]) -> tuple[list[int], int]:
    """The column as integer numerators over one common denominator, the lcm
    of its denominators."""
    den = math.lcm(*(x.denominator for x in column))
    return [x.numerator * (den // x.denominator) for x in column], den


def over_running_lcm(nmax: int,
                     step: Callable[[int, list[int]], tuple[int, int]]) -> tuple[Fraction, ...]:
    """v_0 = 1 and v_n = num / (den L) for (num, den) = step(n, scaled), where L
    is the lcm of the denominators of v_0..v_{n-1} and scaled[k] = L v_k: the
    ints are rescaled only when L grows, and each index builds one Fraction.
    The number recurrences and the Hessenberg determinants both run on it."""
    values, scaled, lcm = [ONE], [1], 1
    for n in range(1, nmax + 1):
        num, den = step(n, scaled)
        v = Fraction(num, den * lcm)
        values.append(v)
        grown = math.lcm(lcm, v.denominator)
        if grown != lcm:
            scaled = list(map((grown // lcm).__mul__, scaled))
            lcm = grown
        scaled.append(v.numerator * (lcm // v.denominator))
    return tuple(values)


def convolve(
    a: tuple[list[int], int], b: tuple[list[int], int], nmax: int, *, egf: bool = False
) -> tuple[list[int], int]:
    """c_0..c_nmax with c_n = sum_{i=0}^n C(n, i) a_i b_{n-i}, a, b and c
    columns; C(n, i) is there only with ``egf`` (the product of two
    exponential generating functions).  The product runs on plain ints
    (:func:`int_convolve`), and one gcd takes the common factor out of c's
    numerators and denominator: c is over the lcm of its values' denominators.
    """
    if nmax < 0:
        raise InvalidParameter(f"nmax must be nonnegative, got {nmax}")
    (a_num, a_den), (b_num, b_den) = a, b
    if len(a_num) <= nmax or len(b_num) <= nmax:
        raise InvalidParameter(f"convolution to index {nmax} needs {nmax + 1} entries per column")
    c, den = int_convolve(a_num, b_num, 0, nmax, egf=egf), a_den * b_den
    g = math.gcd(den, *c)
    return [x // g for x in c], den // g


def int_convolve(a: list[int], b: list[int], lo: int, hi: int, *, egf: bool = False) -> list[int]:
    """c_lo..c_hi of c_n = sum_i C(n, i) a_i b_{n-i} (C(n, i) only with ``egf``;
    entries past a column are 0).  Under 32 of them, where building slices
    costs more than it saves, a loop over a's nonzero entries skips zero
    b_{n-i}; from 32 on each c_n is one dot product over slices, which step by
    2 if a is 0 at every odd index (an n whose b_{n-i} are then all 0 gives 0)."""
    if hi - lo < 32:
        b = b + [0] * (hi + 1 - len(b))
        nonzero, out = [(i, x) for i, x in enumerate(a[: hi + 1]) if x], []
        for n in range(lo, hi + 1):
            acc = 0
            for i, x in nonzero:
                if i > n:
                    break
                if y := b[n - i]:
                    acc += math.comb(n, i) * x * y if egf else x * y
            out.append(acc)
        return out
    s = 1 if any(a[1::2]) else 2
    live = (s == 1 or any(b[::2]), s == 1 or any(b[1::2]))
    last, la, b_rev, out = len(b) - 1, len(a), b[::-1], [0] * (hi + 1 - lo)
    for n in range(lo, hi + 1):
        if live[n % 2]:
            i0, i1, j = (n - last if n > last else 0), (n + 1 if n < la else la), last - n
            i0 += i0 % s
            terms = map(mul, a[i0:i1:s], b_rev[j + i0 : j + i1 : s])
            if egf:
                terms = map(mul, map(math.comb, repeat(n), range(i0, i1, s)), terms)
            out[n - lo] = sum(terms)
    return out


def chain_convolve(a: list[int], rho: list[int], b: list[int], lo: int, hi: int) -> list[int]:
    """c_lo..c_hi of a * b, as :func:`int_convolve` gives them, for a chain a:
    a_{j-1} = rho[j] a_j for 0 < j < len(rho) = len(a) (rho[0] only multiplies
    0).  Then c_n = a_J times the sum of rho[j+1]...rho[J] b_{n-j},
    J = min(n, len(a) - 1), which Horner's rule takes by products with the
    small ints rho[j] in place of the big a_j b_{n-j}."""
    out, last = [], len(rho) - 1
    for n in range(lo, hi + 1):
        top, acc = min(n, last), 0
        for j in range(max(0, n - len(b) + 1), top + 1):
            acc = acc * rho[j] + b[n - j]
        out.append(acc * a[top])
    return out


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ``length`` positive integers summing to ``total``, in
    lexicographic order."""
    if length <= 0:
        raise InvalidParameter(f"length must be positive, got {length}")
    if total < length:
        return
    # Lexicographic successor: the rightmost part j above 1 gives one to part
    # j-1 and the rest of itself to the last part, parts j..-2 drop to 1.
    last = length - 1
    parts = [1] * last + [total - last]
    while True:
        yield tuple(parts)
        j = last
        while j and parts[j] == 1:
            j -= 1
        if not j:
            return
        spare = parts[j] - 1
        parts[j] = 1
        parts[j - 1] += 1
        parts[last] = spare


def partition_multiplicities(m: int) -> Iterator[tuple[int, ...]]:
    """Multiplicity vectors (t_1..t_m) with t_1 + 2 t_2 + ... + m t_m = m.

    Yields exactly p(m) vectors, in descending lexicographic order: t_1
    descending first.
    """
    if m < 1:
        raise InvalidParameter(f"m must be positive, got {m}")
    # Successor: the rightmost t_k that can drop does, by one, or by two when
    # no part above k is left to absorb k.  That k is the largest part, or
    # the next largest when the largest occurs once (and then goes).  The
    # freed amount is refilled lexicographically largest: as many parts k+1
    # as leave either nothing or enough for one larger part, then that part.
    ts = [m] + [0] * (m - 1)
    used = [1]  # the parts with t_i > 0, ascending
    while True:
        yield tuple(ts)
        top = used[-1]
        if ts[top - 1] > 1:
            k, above = top, 0
        elif len(used) > 1:
            used.pop()
            ts[top - 1] = 0
            k, above = used[-1], top
        else:
            return
        drop = 1 if above else 2
        ts[k - 1] -= drop
        if not ts[k - 1]:
            used.pop()
        q, r = divmod(above + drop * k, k + 1)
        if r:
            q, r = q - 1, r + k + 1
        if q:
            ts[k] = q
            used.append(k + 1)
        if r:
            ts[r - 1] = 1
            used.append(r)
