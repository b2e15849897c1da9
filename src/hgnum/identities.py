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
from typing import Iterator, Sequence

from .exact import InvalidParameter, ZERO, convolve, factorial, numerators
from .families import FamilyId, FamilyKind, table
from .series import TruncatedSeries, gen_cos, gen_ratio, gen_sin


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


def _first_mismatch(
    identity_id: str,
    range_checked: str,
    lhs: Sequence[Fraction],
    rhs: Sequence[Fraction],
    first: int = 0,
) -> IdentityReport:
    """The report of lhs[n] == rhs[n] for n from ``first`` on."""
    for n in range(first, min(len(lhs), len(rhs))):
        if lhs[n] != rhs[n]:
            return _report(identity_id, range_checked, FailureWitness((n,), lhs[n], rhs[n]))
    return _report(identity_id, range_checked, None)


def _ladder(w: int, nmax: int) -> tuple[Fraction, ...]:
    """The numbers of 1/F_w, F_w = sum w!/(w+2j)! t^{2j}: E_N for w = 2N and
    Ehat_N for w = 2N+1."""
    kind = FamilyKind.COMP_HG_EULER if w % 2 else FamilyKind.HG_EULER
    return table(FamilyId(kind, w // 2), nmax).values


# B_n: the hypergeometric Bernoulli numbers at N = 1
_BERNOULLI = FamilyId(FamilyKind.HG_BERNOULLI, 1)


def check_euler_pair_sum(nmax: int) -> IdentityReport:
    """sum_i C(2n, 2i) E_{2i} = 0 for 1 <= n <= nmax."""
    e = _ladder(0, 2 * nmax)
    # the EGF product of the even part of E with e^t, read at the even indices
    even = [v if i % 2 == 0 else ZERO for i, v in enumerate(e)]
    sums = convolve(even, [1] * (2 * nmax + 1), 2 * nmax, egf=True)
    return _first_mismatch(
        "euler-pair-sum", f"1 <= n <= {nmax}", sums[::2], [ZERO] * (nmax + 1), first=1
    )


def check_E1_bernoulli(nmax: int) -> IdentityReport:
    """E_{1,n} = -(n-1) B_n for 1 <= n <= nmax."""
    e1 = _ladder(2, nmax)
    b = table(_BERNOULLI, nmax)
    rhs = [-(n - 1) * b[n] for n in range(nmax + 1)]
    return _first_mismatch("e1-bernoulli", f"1 <= n <= {nmax}", e1, rhs, first=1)


def check_bernoulli_lemma(nmax: int) -> IdentityReport:
    """sum_i (i-1) B_i / ((n-i+2)! i!) is 0 for even n and -B_{n+1}/n! for odd n."""
    b = table(_BERNOULLI, nmax + 1)
    lhs = convolve(
        [b[i] / math.factorial(i) for i in range(nmax + 1)],
        [Fraction(1, math.factorial(j + 2)) for j in range(nmax + 1)],
        nmax,
        weight=[i - 1 for i in range(nmax + 1)],
    )
    rhs = [ZERO if n % 2 == 0 else -b[n + 1] / factorial(n) for n in range(nmax + 1)]
    return _first_mismatch("bernoulli-lemma", f"1 <= n <= {nmax}", lhs, rhs, first=1)


def y2_column(N: int, nmax: int) -> list[Fraction]:
    """Pair sums of products y2(N, n) = sum_i C(2n, 2i) E_{N,2i} E_{N,2n-2i}
    for 0 <= n <= nmax, all from one table and one EGF square."""
    e = _ladder(2 * N, 2 * nmax)
    return convolve(e, e, 2 * nmax, egf=True)[::2]


def check_tangent_closed_form(nmax: int) -> IdentityReport:
    """y2(0, n) = 2^{2n+2} (2^{2n+2} - 1) B_{2n+2} / (2n+2) for 0 <= n <= nmax."""
    b = table(_BERNOULLI, 2 * nmax + 2)
    rhs = []
    for n in range(nmax + 1):
        p = 2 ** (2 * n + 2)
        rhs.append(Fraction(p * (p - 1)) * b[2 * n + 2] / (2 * n + 2))
    return _first_mismatch("tangent", f"0 <= n <= {nmax}", y2_column(0, nmax), rhs)


def tangent_complex_sum(n: int) -> tuple[Fraction, Fraction]:
    """(re, im) of the double sum whose real part is y2(0, n)."""
    parts = [ZERO, ZERO]
    for k in range(1, 2 * n + 3):
        inner = sum(
            math.comb(k, j) * (-1) ** (j + 1) * (k - 2 * j) ** (2 * n + 2) for j in range(k + 1)
        )
        # 1/i^k is 1, -i, -1, i for k = 0, 1, 2, 3 mod 4
        term = Fraction(inner, 2**k * k)
        parts[k % 2] += term if k % 4 in (0, 3) else -term
    return parts[0], parts[1]


def check_tangent_complex_sum(nmax: int) -> IdentityReport:
    """The double sum is real and its real part is y2(0, n) for 0 <= n <= nmax.

    A nonzero imaginary part fails the report with witness ("imag", n), the
    imaginary part against 0.
    """
    rng = f"0 <= n <= {nmax}"
    expected = y2_column(0, nmax)
    for n in range(nmax + 1):
        re, im = tangent_complex_sum(n)
        if im:
            return _report("tangent-complex", rng, FailureWitness(("imag", n), im, ZERO))
        if re != expected[n]:
            return _report("tangent-complex", rng, FailureWitness((n,), re, expected[n]))
    return _report("tangent-complex", rng, None)


def check_tan_maclaurin(nmax: int) -> IdentityReport:
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


def _sumprod_pair(identity_id: str, w: int, nmax: int) -> IdentityReport:
    """sum C(n,i) x_i x_{n-i} = sum C(n,k) (w-k)/w x_k y_{n-k}, with x and y
    the numbers of 1/F_w and 1/F_{w-1}."""
    x, y = _ladder(w, nmax), _ladder(w - 1, nmax)
    lhs = convolve(x, x, nmax, egf=True)
    rhs = convolve(x, y, nmax, egf=True, weight=_index_weight(w, nmax), divisor=w)
    return _first_mismatch(identity_id, f"0 <= n <= {nmax}", lhs, rhs)


def check_sumprod_pair(N: int, nmax: int) -> IdentityReport:
    """sum C(n,i) E_{N,i} E_{N,n-i} = sum C(n,k) (2N-k)/(2N) E_{N,k} Ehat_{N-1,n-k}."""
    if N < 1:
        raise InvalidParameter(f"pair sums-of-products need N >= 1, got {N}")
    return _sumprod_pair(f"sumprod-pair(N={N})", 2 * N, nmax)


def check_sumprod_pair_comp(N: int, nmax: int) -> IdentityReport:
    """Complementary analogue of the pair identity: w = 2N+1."""
    if N < 1:
        raise InvalidParameter(f"pair sums-of-products need N >= 1, got {N}")
    return _sumprod_pair(f"sumprod-pair-comp(N={N})", 2 * N + 1, nmax)


def _egf_cube(values: Sequence[Fraction], nmax: int) -> list[Fraction]:
    # n! [t^n] (sum v_i t^i / i!)^3 for n = 0..nmax
    return convolve(convolve(values, values, nmax, egf=True), values, nmax, egf=True)


def _sumprod_trinomial(identity_id: str, w: int, nmax: int) -> IdentityReport:
    """Trinomial sums of products, with x and y the numbers of 1/F_w and
    1/F_{w-1}:

    sum n!/(i1! i2! i3!) x_{i1} x_{i2} x_{i3}
      = sum_m sum_k C(n,m) C(m,k) (2w-m)(w-k)/(2w^2) x_k y_{n-m} y_{m-k},

    the right side as the inner convolution over k, weighted by w-k, inside
    the outer one over m, weighted by 2w-m.
    """
    x, y = _ladder(w, nmax), _ladder(w - 1, nmax)
    inner = convolve(x, y, nmax, egf=True, weight=_index_weight(w, nmax))
    rhs = convolve(
        inner, y, nmax, egf=True, weight=_index_weight(2 * w, nmax), divisor=2 * w * w
    )
    return _first_mismatch(identity_id, f"0 <= n <= {nmax}", _egf_cube(x, nmax), rhs)


def check_sumprod_trinomial(N: int, nmax: int) -> IdentityReport:
    """Trinomial sums of products for the main family: w = 2N, with the
    weights (4N-m)(2N-k)/(8N^2) on E_k Ehat_{N-1,n-m} Ehat_{N-1,m-k}."""
    if N < 1:
        raise InvalidParameter(f"trinomial sums-of-products need N >= 1, got {N}")
    return _sumprod_trinomial(f"sumprod-trinomial(N={N})", 2 * N, nmax)


def check_sumprod_trinomial_comp(N: int, nmax: int) -> IdentityReport:
    """Trinomial sums of products for the complementary family: w = 2N+1,
    with the families swapped, N-1 replaced by N and the weights
    (4N-m+2)(2N-k+1)/(2(2N+1)^2)."""
    if N < 1:
        raise InvalidParameter(f"trinomial sums-of-products need N >= 1, got {N}")
    return _sumprod_trinomial(f"sumprod-trinomial-comp(N={N})", 2 * N + 1, nmax)


def _first_diff(
    label: str, lhs: TruncatedSeries, rhs: TruncatedSeries, upto: int
) -> FailureWitness | None:
    m = min(lhs.order, rhs.order, upto)
    for k in range(m + 1):
        if lhs[k] != rhs[k]:
            return FailureWitness((label, k), lhs[k], rhs[k])
    return None


def _first_scaled_diff(
    label: str,
    x: tuple[list[int], int],
    x_factors: Sequence[int],
    y: tuple[list[int], int],
    y_factors: Sequence[int],
) -> FailureWitness | None:
    """The first m, below the length of the factor lists, where
    x_factors[m] x_m != y_factors[m] y_m.

    x and y are columns as integer numerators over one denominator (see
    :func:`numerators`), so each side is compared by cross-multiplication and
    becomes a Fraction only in a witness.
    """
    (xs, x_den), (ys, y_den) = x, y
    for m, (p, q) in enumerate(zip(x_factors, y_factors)):
        lhs, rhs = p * xs[m], q * ys[m]
        if lhs * y_den != rhs * x_den:
            return FailureWitness((label, m), Fraction(lhs, x_den), Fraction(rhs, y_den))
    return None


def _series_failures(N: int, M: int) -> Iterator[FailureWitness | None]:
    """Each identity's first failure (or None), in order.

    The derivative identities are linear in one series each: the coefficient
    of t^m on either side is an integer multiple of that series' own t^m
    coefficient, so they are checked on integer numerators.
    """
    # the ladder F_k = sum k!/(k+2j)! t^{2j} for k = 0..2N: F = F_{2N},
    # F* = F_{2N-1} and cosh t = F_0
    rungs = [gen_ratio(k, 2, M) for k in range(2 * N + 1)]
    f, fk = rungs[2 * N], [numerators(s.coeffs) for s in rungs]
    # 2N F + t F' = 2N F*
    yield _first_scaled_diff(
        "scaled-derivative", fk[2 * N], [2 * N + m for m in range(M)], fk[2 * N - 1], [2 * N] * M
    )
    # ladder: k F_{(2N-k)} + t F_{(2N-k)}' = k F_{(2N-k+1)}
    for k in range(1, 2 * N + 1):
        yield _first_scaled_diff(
            f"ladder(k={k})", fk[k], [k + m for m in range(M)], fk[k - 1], [k] * M
        )
    # cosh expansion in derivatives of the ladder series:
    # sum_i C(k,i) t^i f^{(i)}/i! = cosh t, and the divided-power derivative
    # f^{(i)}/i! takes c_m t^m to C(m,i) c_m t^{m-i}
    for k in range(2 * N + 1):
        ht = [
            sum(math.comb(k, i) * math.comb(m, i) for i in range(k + 1)) for m in range(M - k + 1)
        ]
        yield _first_scaled_diff(f"cosh-expansion(k={k})", fk[k], ht, fk[0], [1] * len(ht))
    # 1/F and 1/F* are the EGFs of the hg-euler(N) and comp-hg-euler(N-1)
    # tables: F* is comp-hg-euler(N-1)'s denominator.
    inv_f = TruncatedSeries.from_egf(_ladder(2 * N, M))
    inv_fstar = TruncatedSeries.from_egf(_ladder(2 * N - 1, M))
    # F' = -F^2 (1/F)'
    yield _first_diff("reciprocal-derivative", f.derivative(), -(f * f * inv_f.derivative()), M - 1)
    # 1/F^2 = (1/F*) (1/F - t/(2N) (1/F)')
    inv_f2 = inv_f * inv_f
    rhs = inv_fstar * (inv_f - inv_f.derivative().times_t().scale(Fraction(1, 2 * N)))
    yield _first_diff("inv-square", inv_f2, rhs, M - 1)
    # 1/F^3 = (1/F*) (1/F^2 - t/(4N) (1/F^2)')
    rhs3 = inv_fstar * (inv_f2 - inv_f2.derivative().times_t().scale(Fraction(1, 4 * N)))
    yield _first_diff("inv-cube", inv_f * inv_f2, rhs3, M - 1)


def check_series_identities(N: int, M: int) -> IdentityReport:
    """The truncated-series identities tying F, its starred/ladder variants and
    the reciprocal powers together; needs N >= 1."""
    if N < 1:
        raise InvalidParameter(f"series identities need N >= 1, got {N}")
    witness = next((w for w in _series_failures(N, M) if w is not None), None)
    return _report(f"series-identities(N={N})", f"order {M}", witness)
