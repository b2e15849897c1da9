"""One checker per identity.  Each returns an :class:`IdentityReport` with the
range verified and, on failure, the first offending index together with both
exact sides.

Checkers recompute both sides from number tables or from the series engine,
never from each other's intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import GaussianRational, I_POWERS, InvalidParameter, ZERO, convolve, factorial
from .families import comp_hg_euler_recurrence, hg_bernoulli, hg_euler_recurrence
from .series import (
    TruncatedSeries,
    gen_cos,
    gen_cosh,
    gen_f,
    gen_fk,
    gen_fstar,
    gen_sin,
)


@dataclass(frozen=True)
class FailureWitness:
    indices: tuple
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    range_checked: str
    passed: bool
    first_failure: FailureWitness | None = None

    def __post_init__(self) -> None:
        assert self.passed == (self.first_failure is None)


def _report(identity_id: str, range_checked: str, failure: FailureWitness | None) -> IdentityReport:
    return IdentityReport(identity_id, range_checked, failure is None, failure)


def check_euler_pair_sum(nmax: int = 20) -> IdentityReport:
    """sum_i C(2n, 2i) E_{2i} = 0 for 1 <= n <= nmax."""
    e = hg_euler_recurrence(0, 2 * nmax).values
    # the EGF product of the even part of E with e^t, read at the even indices
    even = [v if i % 2 == 0 else ZERO for i, v in enumerate(e)]
    sums = convolve(even, [1] * (2 * nmax + 1), 2 * nmax, egf=True)
    for n in range(1, nmax + 1):
        lhs = sums[2 * n]
        if lhs != 0:
            return _report("euler-pair-sum", f"1 <= n <= {nmax}", FailureWitness((n,), lhs, ZERO))
    return _report("euler-pair-sum", f"1 <= n <= {nmax}", None)


def check_E1_bernoulli(nmax: int = 60) -> IdentityReport:
    """E_{1,n} = -(n-1) B_n for 1 <= n <= nmax."""
    e1 = hg_euler_recurrence(1, nmax)
    b = hg_bernoulli(1, nmax)
    for n in range(1, nmax + 1):
        lhs = e1[n]
        rhs = -(n - 1) * b[n]
        if lhs != rhs:
            return _report("e1-bernoulli", f"1 <= n <= {nmax}", FailureWitness((n,), lhs, rhs))
    return _report("e1-bernoulli", f"1 <= n <= {nmax}", None)


def check_bernoulli_lemma(nmax: int = 30) -> IdentityReport:
    """sum_i (i-1) B_i / ((n-i+2)! i!) is 0 for even n and -B_{n+1}/n! for odd n."""
    b = hg_bernoulli(1, nmax + 1)
    lhs_column = convolve(
        [b[i] / math.factorial(i) for i in range(nmax + 1)],
        [Fraction(1, math.factorial(j + 2)) for j in range(nmax + 1)],
        nmax,
        weight=[i - 1 for i in range(nmax + 1)],
    )
    for n in range(1, nmax + 1):
        lhs = lhs_column[n]
        rhs = ZERO if n % 2 == 0 else -b[n + 1] / factorial(n)
        if lhs != rhs:
            return _report("bernoulli-lemma", f"1 <= n <= {nmax}", FailureWitness((n,), lhs, rhs))
    return _report("bernoulli-lemma", f"1 <= n <= {nmax}", None)


def y2_column(N: int, nmax: int) -> list[Fraction]:
    """Pair sums of products y2(N, n) = sum_i C(2n, 2i) E_{N,2i} E_{N,2n-2i}
    for 0 <= n <= nmax, all from one table and one EGF square."""
    e = hg_euler_recurrence(N, 2 * nmax).values
    return convolve(e, e, 2 * nmax, egf=True)[::2]


def y2(N: int, n: int) -> Fraction:
    """Pair sum of products: sum_i C(2n, 2i) E_{N,2i} E_{N,2n-2i}."""
    return y2_column(N, n)[n]


def _first_mismatch(
    identity_id: str, range_checked: str, lhs: Sequence[Fraction], rhs: Sequence[Fraction]
) -> IdentityReport:
    for n, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return _report(identity_id, range_checked, FailureWitness((n,), left, right))
    return _report(identity_id, range_checked, None)


def check_tangent_closed_form(nmax: int = 12) -> IdentityReport:
    """y2(0, n) = 2^{2n+2} (2^{2n+2} - 1) B_{2n+2} / (2n+2) for 0 <= n <= nmax."""
    b = hg_bernoulli(1, 2 * nmax + 2)
    rhs = []
    for n in range(nmax + 1):
        p = 2 ** (2 * n + 2)
        rhs.append(Fraction(p * (p - 1)) * b[2 * n + 2] / (2 * n + 2))
    return _first_mismatch("tangent", f"0 <= n <= {nmax}", y2_column(0, nmax), rhs)


def tangent_complex_sum(n: int) -> GaussianRational:
    """The Gaussian-rational double sum whose real part is y2(0, n)."""
    total = GaussianRational.of(0, 0)
    for k in range(1, 2 * n + 3):
        inner = sum(
            math.comb(k, j) * (-1) ** (j + 1) * (k - 2 * j) ** (2 * n + 2) for j in range(k + 1)
        )
        # dividing by i^k is multiplying by i^{-k}
        total = total + GaussianRational.of(Fraction(inner, 2**k * k)) * I_POWERS[-k % 4]
    return total


def check_tangent_complex_sum(nmax: int = 8) -> IdentityReport:
    """The double sum is real and its real part is y2(0, n) for 0 <= n <= nmax.

    A nonzero imaginary part fails the report with witness ("imag", n), the
    imaginary part against 0.
    """
    rng = f"0 <= n <= {nmax}"
    expected = y2_column(0, nmax)
    for n in range(nmax + 1):
        val = tangent_complex_sum(n)
        if not val.is_real():
            return _report("tangent-complex", rng, FailureWitness(("imag", n), val.im, ZERO))
        if val.re != expected[n]:
            return _report("tangent-complex", rng, FailureWitness((n,), val.re, expected[n]))
    return _report("tangent-complex", rng, None)


def check_tan_maclaurin(nmax: int = 12) -> IdentityReport:
    """Odd tan coefficients are (-1)^n y2(0, n) / (2n+1)!; even ones vanish."""
    order = 2 * nmax + 1
    tan = gen_sin(order) * gen_cos(order).reciprocal()
    for m in range(0, order + 1, 2):
        if tan[m] != 0:
            return _report(
                "tan-maclaurin", f"0 <= n <= {nmax}", FailureWitness((m,), tan[m], ZERO)
            )
    y = y2_column(0, nmax)
    rhs = [Fraction((-1) ** n) * y[n] / factorial(2 * n + 1) for n in range(nmax + 1)]
    return _first_mismatch("tan-maclaurin", f"0 <= n <= {nmax}", tan.coeffs[1::2], rhs)


def _index_weight(offset: int, nmax: int) -> list[int]:
    return [offset - k for k in range(nmax + 1)]


def check_sumprod_pair(N: int, nmax: int = 30) -> IdentityReport:
    """sum C(n,i) E_{N,i} E_{N,n-i} = sum C(n,k) (2N-k)/(2N) E_{N,k} Ehat_{N-1,n-k}."""
    if N < 1:
        raise InvalidParameter(f"pair sums-of-products need N >= 1, got {N}")
    e = hg_euler_recurrence(N, nmax).values
    ehat = comp_hg_euler_recurrence(N - 1, nmax).values
    lhs = convolve(e, e, nmax, egf=True)
    rhs = convolve(
        e, ehat, nmax, egf=True, weight=_index_weight(2 * N, nmax), divisor=2 * N
    )
    return _first_mismatch(f"sumprod-pair(N={N})", f"0 <= n <= {nmax}", lhs, rhs)


def check_sumprod_pair_comp(N: int, nmax: int = 30) -> IdentityReport:
    """Complementary analogue of the pair identity."""
    if N < 1:
        raise InvalidParameter(f"pair sums-of-products need N >= 1, got {N}")
    e = hg_euler_recurrence(N, nmax).values
    ehat = comp_hg_euler_recurrence(N, nmax).values
    lhs = convolve(ehat, ehat, nmax, egf=True)
    rhs = convolve(
        ehat, e, nmax, egf=True, weight=_index_weight(2 * N + 1, nmax), divisor=2 * N + 1
    )
    return _first_mismatch(f"sumprod-pair-comp(N={N})", f"0 <= n <= {nmax}", lhs, rhs)


def _egf_cube(values: Sequence[Fraction], nmax: int) -> list[Fraction]:
    # n! [t^n] (sum v_i t^i / i!)^3 for n = 0..nmax
    return convolve(convolve(values, values, nmax, egf=True), values, nmax, egf=True)


def trinomial_convolution(values: Sequence[Fraction], n: int) -> Fraction:
    """sum over i1+i2+i3 = n of n!/(i1! i2! i3!) v_{i1} v_{i2} v_{i3}."""
    return _egf_cube(values, n)[n]


def check_sumprod_trinomial(N: int, nmax: int = 30) -> IdentityReport:
    """Trinomial sums of products for the main family:

    sum n!/(i1! i2! i3!) E_{i1} E_{i2} E_{i3}
      = sum_m sum_k C(n,m) C(m,k) (4N-m)(2N-k)/(8N^2) E_k Ehat_{N-1,n-m} Ehat_{N-1,m-k},

    the right side as the inner convolution over k, weighted by 2N-k, inside
    the outer one over m, weighted by 4N-m.
    """
    if N < 1:
        raise InvalidParameter(f"trinomial sums-of-products need N >= 1, got {N}")
    e = hg_euler_recurrence(N, nmax).values
    ehat = comp_hg_euler_recurrence(N - 1, nmax).values
    inner = convolve(e, ehat, nmax, egf=True, weight=_index_weight(2 * N, nmax))
    rhs = convolve(
        inner, ehat, nmax, egf=True, weight=_index_weight(4 * N, nmax), divisor=8 * N * N
    )
    return _first_mismatch(
        f"sumprod-trinomial(N={N})", f"0 <= n <= {nmax}", _egf_cube(e, nmax), rhs
    )


def check_sumprod_trinomial_comp(N: int, nmax: int = 30) -> IdentityReport:
    """Trinomial sums of products for the complementary family: as
    :func:`check_sumprod_trinomial` with the families swapped, N-1 replaced
    by N and the weights (4N-m+2)(2N-k+1)/(2(2N+1)^2)."""
    if N < 1:
        raise InvalidParameter(f"trinomial sums-of-products need N >= 1, got {N}")
    e = hg_euler_recurrence(N, nmax).values
    ehat = comp_hg_euler_recurrence(N, nmax).values
    inner = convolve(ehat, e, nmax, egf=True, weight=_index_weight(2 * N + 1, nmax))
    rhs = convolve(
        inner, e, nmax, egf=True, weight=_index_weight(4 * N + 2, nmax),
        divisor=2 * (2 * N + 1) ** 2,
    )
    return _first_mismatch(
        f"sumprod-trinomial-comp(N={N})", f"0 <= n <= {nmax}", _egf_cube(ehat, nmax), rhs
    )


def _first_diff(
    label: str, lhs: TruncatedSeries, rhs: TruncatedSeries, upto: int
) -> FailureWitness | None:
    m = min(lhs.order, rhs.order, upto)
    for k in range(m + 1):
        if lhs[k] != rhs[k]:
            return FailureWitness((label, k), lhs[k], rhs[k])
    return None


def check_series_identities(N: int, M: int = 24) -> IdentityReport:
    """The truncated-series identities tying F, its starred/ladder variants and
    the reciprocal powers together; needs N >= 1."""
    if N < 1:
        raise InvalidParameter(f"series identities need N >= 1, got {N}")
    ident = f"series-identities(N={N})"
    rng = f"order {M}"
    f = gen_f(N, M)
    fstar = gen_fstar(N, M)
    # 1/F and 1/F* are the EGFs of the hg-euler(N) and comp-hg-euler(N-1)
    # tables: F* is comp-hg-euler(N-1)'s denominator.
    inv_f = TruncatedSeries.from_egf(hg_euler_recurrence(N, M).values)
    inv_fstar = TruncatedSeries.from_egf(comp_hg_euler_recurrence(N - 1, M).values)

    checks: list[tuple[str, TruncatedSeries, TruncatedSeries, int]] = []

    # 2N F + t F' = 2N F*
    checks.append(
        ("scaled-derivative", f.scale(2 * N) + f.derivative().times_t(), fstar.scale(2 * N), M - 1)
    )
    # ladder: k F_{(2N-k)} + t F_{(2N-k)}' = k F_{(2N-k+1)}
    for k in range(1, 2 * N + 1):
        fk = gen_fk(k, M)
        checks.append(
            (f"ladder(k={k})", fk.scale(k) + fk.derivative().times_t(), gen_fk(k - 1, M).scale(k), M - 1)
        )
    # cosh expansion in derivatives of the ladder series
    cosh = gen_cosh(M)
    for k in range(0, 2 * N + 1):
        fk = gen_fk(k, M)
        acc = TruncatedSeries.zero(M - k if M >= k else 0)
        for i in range(k + 1):
            # the divided-power derivative is f^{(i)}/i!
            term = fk.hasse_teichmuller(i).scale(math.comb(k, i))
            for _ in range(i):
                term = term.times_t()
            acc = acc + term
        checks.append((f"cosh-expansion(k={k})", acc, cosh, M - k))
    # F' = -F^2 (1/F)'
    checks.append(("reciprocal-derivative", f.derivative(), -(f * f * inv_f.derivative()), M - 1))
    # 1/F^2 = (1/F*) (1/F - t/(2N) (1/F)')
    rhs = inv_fstar * (inv_f - inv_f.derivative().times_t().scale(Fraction(1, 2 * N)))
    checks.append(("inv-square", inv_f * inv_f, rhs, M - 1))
    # 1/F^3 = (1/F*) (1/F^2 - t/(4N) (1/F^2)')
    inv_f2 = inv_f * inv_f
    rhs3 = inv_fstar * (inv_f2 - inv_f2.derivative().times_t().scale(Fraction(1, 4 * N)))
    checks.append(("inv-cube", inv_f * inv_f2, rhs3, M - 1))

    for label, lhs, rhs_s, upto in checks:
        witness = _first_diff(label, lhs, rhs_s, upto)
        if witness is not None:
            return _report(ident, rng, witness)
    return _report(ident, rng, None)
