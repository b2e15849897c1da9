"""Truncated formal power series over exact rationals, as plain tuples.

A series is the tuple c_0..c_M of its Fraction coefficients: exact up to t^M,
and nothing is known beyond.  :func:`reciprocal` is the Newton reciprocal, on
:func:`~hgnum.exact.int_convolve`, with middle products on
:func:`~hgnum.exact.chain_convolve` where each term ratio is an integer (the
weights that the families' series route passes); the tan checker runs on it too.

The module also provides constructors for every generating function the number
families and identity checkers need: one for the factorial-ratio series
sum w!/(w+sj)! t^{sj} (the denominators of the Euler types and of the
hypergeometric Bernoulli numbers, and the identity checkers' ladder, cosh
included), one for the hypergeometric Cauchy denominator, and sin/cos.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import InvalidParameter, ONE, ZERO, chain_convolve, int_convolve, numerators


class ZeroConstantTerm(ValueError):
    """Reciprocal requested for a series with no constant term."""


def reciprocal(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The series r with coeffs * r = 1 to the same order, by Newton's
    iteration r <- r (2 - coeffs r) (Brent and Harvey, arXiv:1108.0286): if r
    is right to t^{p-1}, coeffs r = 1 + t^p e and r - t^p r e is right to
    t^{2p-1}.  On int numerators, each doubling takes only e_p..e_{q-1} (the
    middle product), reduced by one gcd, and then r e.  If each numerator of
    coeffs divides the one before (an integer term ratio, as the weights of a
    hypergeometric F have), the middle product is a chain product."""
    if not coeffs:
        raise InvalidParameter("a truncated series needs at least c_0")
    c0 = coeffs[0]
    if c0 == 0:
        raise ZeroConstantTerm("series has zero constant term")
    (f, f_den), r, p = numerators(coeffs), [ONE / c0], 1
    chain = all(f) and not any(x % y for x, y in zip(f, f[1:]))
    rho = [x // y for x, y in zip([0] + f, f)] if chain else None
    while p < len(coeffs):
        q = min(2 * p, len(coeffs))
        r_num, r_den = numerators(r)
        if chain:
            e = chain_convolve(f, rho, r_num, p, q - 1)  # over f_den r_den
        else:
            e = int_convolve(f, r_num, p, q - 1)
        g = math.gcd(f_den * r_den, *e)
        den = r_den * (f_den * r_den // g)
        r += [Fraction(-x, den) for x in int_convolve(r_num, [x // g for x in e], 0, q - p - 1)]
        p = q
    return tuple(r)


def gen_ratio(w: int, stride: int, order: int) -> tuple[Fraction, ...]:
    """sum_j w!/(w+sj)! t^{sj}, s = stride: the denominator of hg-euler (w = 2N,
    s = 2), comp-hg-euler (w = 2N+1, s = 2) and hg-bernoulli (w = N, s = 1).
    w = 0 gives cosh t at s = 2 and e^t at s = 1."""
    if w < 0:
        raise InvalidParameter(f"w must be nonnegative, got {w}")
    # w!/(w+n)! = 1/d with d = (w+1)(w+2)...(w+n), an integer product
    cs, d = [], 1
    for n in range(order + 1):
        cs.append(Fraction(1, d) if n % stride == 0 else ZERO)
        d *= w + n + 1
    return tuple(cs)


def gen_sin(order: int) -> tuple[Fraction, ...]:
    cs = [ZERO] * (order + 1)
    for n in range((order + 1) // 2):
        cs[2 * n + 1] = Fraction((-1) ** n, math.factorial(2 * n + 1))
    return tuple(cs)


def gen_cos(order: int) -> tuple[Fraction, ...]:
    cs = [ZERO] * (order + 1)
    for n in range(order // 2 + 1):
        cs[2 * n] = Fraction((-1) ** n, math.factorial(2 * n))
    return tuple(cs)


def gen_hgcauchy_denom(N: int, order: int) -> tuple[Fraction, ...]:
    """sum (-1)^n N/(N+n) t^n; the reciprocal's EGF gives hypergeometric Cauchy numbers."""
    if N < 1:
        raise InvalidParameter(f"N must be positive, got {N}")
    return tuple(Fraction((-1) ** n * N, N + n) for n in range(order + 1))
