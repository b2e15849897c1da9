"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` knows its coefficients c_0..c_M exactly and nothing
beyond t^M.  Arithmetic truncates to the smallest order among the operands.
All values are immutable.  The class has the Newton reciprocal, on
:func:`~hgnum.exact.int_convolve` with middle products on
:func:`~hgnum.exact.chain_convolve` where the series is hypergeometric, which
the families and the tan checker use; products, on :func:`~hgnum.exact.convolve`
with Fractions made at the end; and the paper's Hasse-Teichmuller
(divided-power) derivative, which the acceptance tests check.

The module also provides constructors for every generating function the number
families and identity checkers need: one for the factorial-ratio series
sum w!/(w+sj)! t^{sj} (the denominators of the Euler types and of the
hypergeometric Bernoulli numbers, and the identity checkers' ladder, cosh
included), one for the hypergeometric Cauchy denominator, and sin/cos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    InvalidParameter, ONE, ZERO, chain_convolve, convolve, factorial, int_convolve, numerators,
    to_fractions,
)


class ZeroConstantTerm(ValueError):
    """Reciprocal requested for a series with no constant term."""


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InvalidParameter("a truncated series needs at least c_0")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries((ZERO,) * (order + 1))

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(m + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(m + 1)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        product = convolve(numerators(self.coeffs), numerators(other.coeffs), m)
        return TruncatedSeries(tuple(to_fractions(product)))

    def reciprocal(self) -> "TruncatedSeries":
        """Series r with self * r = 1 up to the truncation order, by Newton's
        iteration r <- r (2 - self r) (Brent and Harvey, arXiv:1108.0286): if r
        is right to t^{p-1}, self r = 1 + t^p e and r - t^p r e is right to
        t^{2p-1}.  On int numerators, each doubling takes only e_p..e_{q-1}
        (the middle product), reduced by one gcd, and then r e.  If each
        numerator of self on its stride divides the one before (a
        hypergeometric term ratio), the middle product is a chain product."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroConstantTerm("series has zero constant term")
        (f, f_den), r, p = numerators(self.coeffs), [ONE / c0], 1
        s = 1 if any(f[1::2]) else 2
        on = f[::s]
        chain = all(on) and not any(x % y for x, y in zip(on, on[1:]))
        rho = [x // y for x, y in zip([0] + on, on)] if chain else None
        while p <= self.order:
            q = min(2 * p, self.order + 1)
            r_num, r_den = numerators(r)
            if chain:
                e = chain_convolve(f, s, rho, r_num, p, q - 1)  # over f_den r_den
            else:
                e = int_convolve(f, r_num, p, q - 1)
            g = math.gcd(f_den * r_den, *e)
            den = r_den * (f_den * r_den // g)
            r += [Fraction(-x, den) for x in int_convolve(r_num, [x // g for x in e], 0, q - p - 1)]
            p = q
        return TruncatedSeries(tuple(r))

    def hasse_teichmuller(self, n: int) -> "TruncatedSeries":
        """Divided-power derivative: c_m t^m maps to c_m C(m,n) t^{m-n}."""
        if n < 0:
            raise InvalidParameter(f"derivative order must be nonnegative, got {n}")
        if n == 0:
            return self
        if n > self.order:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            tuple(self.coeffs[m] * math.comb(m, n) for m in range(n, self.order + 1))
        )

    def egf_values(self) -> tuple[Fraction, ...]:
        """The numbers n! * c_n: the sequence this series is an EGF of."""
        return tuple(factorial(n) * c for n, c in enumerate(self.coeffs))


def gen_ratio(w: int, stride: int, order: int) -> TruncatedSeries:
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
    return TruncatedSeries(tuple(cs))


def gen_sin(order: int) -> TruncatedSeries:
    cs = [ZERO] * (order + 1)
    for n in range((order + 1) // 2):
        k = 2 * n + 1
        cs[k] = Fraction((-1) ** n) / factorial(k)
    return TruncatedSeries(tuple(cs))


def gen_cos(order: int) -> TruncatedSeries:
    cs = [ZERO] * (order + 1)
    for n in range(order // 2 + 1):
        cs[2 * n] = Fraction((-1) ** n) / factorial(2 * n)
    return TruncatedSeries(tuple(cs))


def gen_hgcauchy_denom(N: int, order: int) -> TruncatedSeries:
    """sum (-1)^n N/(N+n) t^n; the reciprocal's EGF gives hypergeometric Cauchy numbers."""
    if N < 1:
        raise InvalidParameter(f"N must be positive, got {N}")
    return TruncatedSeries(
        tuple(Fraction((-1) ** n * N, N + n) for n in range(order + 1))
    )
