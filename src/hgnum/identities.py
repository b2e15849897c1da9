"""One checker per identity.  Each returns an :class:`IdentityReport` with the
range verified and, on failure, the first offending index together with both
exact sides.

Checkers recompute both sides from number tables or from the series engine,
never from each other's intermediates.  They run on columns, integer
numerators over one positive denominator (a table's ``column``): products are
:func:`~hgnum.exact.convolve`, the sides are compared by cross-multiplication,
and a value becomes a Fraction only in a witness.  A weighted sum scales its
operand's numerators first (:func:`_scaled`); a constant divisor goes into the
compared column's denominator: cross-multiplication needs no column in
lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .exact import InvalidParameter, ZERO, convolve, numerators
from .families import FamilyId, FamilyKind, table
from .series import gen_cos, gen_ratio, gen_sin, reciprocal


class FailureWitness(NamedTuple):
    indices: tuple
    lhs: Fraction
    rhs: Fraction


class IdentityReport(NamedTuple):
    identity_id: str
    range_checked: str
    first_failure: FailureWitness | None = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def _first_diff(
    lhs: tuple[list[int], int], rhs: tuple[list[int], int], first: int = 0, label: str | None = None
) -> FailureWitness | None:
    """The witness of the first n >= first, below both lengths, at which the
    columns lhs and rhs differ, with indices (n,), or (label, n) given a
    label; None if they agree."""
    (xs, x_den), (ys, y_den) = lhs, rhs
    for n in range(first, min(len(xs), len(ys))):
        if xs[n] * y_den != ys[n] * x_den:
            indices = (n,) if label is None else (label, n)
            return FailureWitness(indices, Fraction(xs[n], x_den), Fraction(ys[n], y_den))
    return None


def _scaled(column: tuple[list[int], int], factors: Iterable[int]) -> tuple[list[int], int]:
    """Entry n times factors[n], as long as the shorter of the two."""
    nums, den = column
    return list(map(mul, nums, factors)), den


def _index_weight(offset: int, nmax: int) -> list[int]:
    return [offset - k for k in range(nmax + 1)]


def _over_factorials(column: tuple[list[int], int], nmax: int) -> tuple[list[int], int]:
    """v_n / n! for n <= nmax from a column of v: v_n nmax!/n! over den nmax!,
    reduced by one gcd."""
    nums, den = column
    out, f = [], 1
    for n in range(nmax, -1, -1):
        out.append(nums[n] * f)
        f *= max(n, 1)
    den *= f
    g = math.gcd(den, *out)
    return [x // g for x in reversed(out)], den // g


def _ladder(w: int, nmax: int) -> tuple[list[int], int]:
    """The column of numbers of 1/F_w, F_w = sum w!/(w+2j)! t^{2j}: E_N for
    w = 2N and Ehat_N for w = 2N+1."""
    kind = FamilyKind.COMP_HG_EULER if w % 2 else FamilyKind.HG_EULER
    return table(FamilyId(kind, w // 2), nmax).column


# B_n: the hypergeometric Bernoulli numbers at N = 1
_BERNOULLI = FamilyId(FamilyKind.HG_BERNOULLI, 1)


def check_euler_pair_sum(nmax: int) -> IdentityReport:
    """sum_i C(2n, 2i) E_{2i} = 0 for 1 <= n <= nmax."""
    nums, den = _ladder(0, 2 * nmax)
    # the EGF product of the even part of E with e^t, read at the even indices
    even = [v if i % 2 == 0 else 0 for i, v in enumerate(nums)]
    sums, s_den = convolve((even, den), ([1] * len(even), 1), 2 * nmax, egf=True)
    zeros = ([0] * len(sums), 1)
    witness = _first_diff((sums[::2], s_den), zeros, first=1)
    return IdentityReport("euler-pair-sum", f"1 <= n <= {nmax}", witness)


def check_E1_bernoulli(nmax: int) -> IdentityReport:
    """E_{1,n} = -(n-1) B_n for 1 <= n <= nmax."""
    rhs = _scaled(table(_BERNOULLI, nmax).column, _index_weight(1, nmax))
    witness = _first_diff(_ladder(2, nmax), rhs, first=1)
    return IdentityReport("e1-bernoulli", f"1 <= n <= {nmax}", witness)


def check_bernoulli_lemma(nmax: int) -> IdentityReport:
    """sum_i (i-1) B_i / ((n-i+2)! i!) is 0 for even n and -B_{n+1}/n! for odd n."""
    b, den = table(_BERNOULLI, nmax + 1).column
    inv_fact, f_den = _over_factorials(([1] * (nmax + 3), 1), nmax + 2)
    weighted = _scaled(_over_factorials((b, den), nmax), [i - 1 for i in range(nmax + 1)])
    lhs = convolve(weighted, (inv_fact[2:], f_den), nmax)
    rhs = _over_factorials(([-b[n + 1] if n % 2 else 0 for n in range(nmax + 1)], den), nmax)
    return IdentityReport("bernoulli-lemma", f"1 <= n <= {nmax}", _first_diff(lhs, rhs, first=1))


def y2_column(N: int, nmax: int) -> tuple[list[int], int]:
    """Pair sums of products y2(N, n) = sum_i C(2n, 2i) E_{N,2i} E_{N,2n-2i}
    for 0 <= n <= nmax, as a column, all from one table and one EGF square."""
    e = _ladder(2 * N, 2 * nmax)
    nums, den = convolve(e, e, 2 * nmax, egf=True)
    return nums[::2], den


def check_tangent_closed_form(nmax: int) -> IdentityReport:
    """y2(0, n) = 2^{2n+2} (2^{2n+2} - 1) B_{2n+2} / (2n+2) for 0 <= n <= nmax."""
    b, den = table(_BERNOULLI, 2 * (nmax + 1)).column
    # p = 2^{2n+2}, and every 1/(2n+2) over their lcm
    lcm, ps = math.lcm(*range(2, 2 * nmax + 3, 2)), [4 ** (n + 1) for n in range(nmax + 1)]
    rhs = [p * (p - 1) * b[2 * n + 2] * (lcm // (2 * n + 2)) for n, p in enumerate(ps)]
    witness = _first_diff(y2_column(0, nmax), (rhs, den * lcm))
    return IdentityReport("tangent", f"0 <= n <= {nmax}", witness)


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
    expected, den = y2_column(0, nmax)
    for n in range(nmax + 1):
        re, im = tangent_complex_sum(n)
        if im:
            return IdentityReport("tangent-complex", rng, FailureWitness(("imag", n), im, ZERO))
        if re.numerator * den != expected[n] * re.denominator:
            witness = FailureWitness((n,), re, Fraction(expected[n], den))
            return IdentityReport("tangent-complex", rng, witness)
    return IdentityReport("tangent-complex", rng)


def check_tan_maclaurin(nmax: int) -> IdentityReport:
    """Odd tan coefficients are (-1)^n y2(0, n) / (2n+1)!; even ones vanish."""
    order, rng = 2 * nmax + 1, f"0 <= n <= {nmax}"
    tan, den = convolve(numerators(gen_sin(order)), numerators(reciprocal(gen_cos(order))), order)
    for m in range(0, order + 1, 2):
        if tan[m]:
            witness = FailureWitness((m,), Fraction(tan[m], den), ZERO)
            return IdentityReport("tan-maclaurin", rng, witness)
    y, y_den = y2_column(0, nmax)
    # (-1)^n y2(0, n) at t^{2n+1}, then over (2n+1)!
    signed = [0] * (order + 1)
    signed[1::2] = [-v if n % 2 else v for n, v in enumerate(y)]
    rhs, r_den = _over_factorials((signed, y_den), order)
    return IdentityReport("tan-maclaurin", rng, _first_diff((tan[1::2], den), (rhs[1::2], r_den)))


def _sumprod_pair(identity_id: str, w: int, nmax: int) -> IdentityReport:
    """sum C(n,i) x_i x_{n-i} = sum C(n,k) (w-k)/w x_k y_{n-k}, with x and y
    the numbers of 1/F_w and 1/F_{w-1}."""
    x, y = _ladder(w, nmax), _ladder(w - 1, nmax)
    lhs = convolve(x, x, nmax, egf=True)
    nums, den = convolve(_scaled(x, _index_weight(w, nmax)), y, nmax, egf=True)
    return IdentityReport(identity_id, f"0 <= n <= {nmax}", _first_diff(lhs, (nums, den * w)))


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


def _sumprod_trinomial(identity_id: str, w: int, nmax: int) -> IdentityReport:
    """Trinomial sums of products, with x and y the numbers of 1/F_w and
    1/F_{w-1}:

    sum n!/(i1! i2! i3!) x_{i1} x_{i2} x_{i3}
      = sum_m sum_k C(n,m) C(m,k) (2w-m)(w-k)/(2w^2) x_k y_{n-m} y_{m-k},

    the right side as the inner convolution over k, weighted by w-k, inside
    the outer one over m, weighted by 2w-m.
    """
    x, y = _ladder(w, nmax), _ladder(w - 1, nmax)
    inner = convolve(_scaled(x, _index_weight(w, nmax)), y, nmax, egf=True)
    nums, den = convolve(_scaled(inner, _index_weight(2 * w, nmax)), y, nmax, egf=True)
    cube = convolve(convolve(x, x, nmax, egf=True), x, nmax, egf=True)
    witness = _first_diff(cube, (nums, den * 2 * w * w))
    return IdentityReport(identity_id, f"0 <= n <= {nmax}", witness)


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


def _derivative(column: tuple[list[int], int]) -> tuple[list[int], int]:
    """d/dt of the series with the column's coefficients, one entry shorter."""
    nums, den = column
    return [k * c for k, c in enumerate(nums) if k], den


def _series_failures(N: int, M: int) -> Iterator[FailureWitness | None]:
    """Each identity's first failure (or None), in order.

    The derivative identities are linear in one series each: the coefficient
    of t^m on either side is an integer multiple of that series' own t^m
    coefficient, so each side is one column with its entries scaled.
    """
    # the ladder F_k = sum k!/(k+2j)! t^{2j} for k = 0..2N: F = F_{2N},
    # F* = F_{2N-1} and cosh t = F_0
    fk = [numerators(gen_ratio(k, 2, M)) for k in range(2 * N + 1)]
    # k F_k + t F_k' = k F_{k-1}: at k = 2N, 2N F + t F' = 2N F*, and then
    # each rung of the ladder
    rungs = [(2 * N, "scaled-derivative")] + [(k, f"ladder(k={k})") for k in range(1, 2 * N + 1)]
    for k, label in rungs:
        lhs = _scaled(fk[k], [k + m for m in range(M)])
        yield _first_diff(lhs, _scaled(fk[k - 1], [k] * M), label=label)
    # cosh expansion in derivatives of the ladder series:
    # sum_i C(k,i) t^i f^{(i)}/i! = cosh t, and the divided-power derivative
    # f^{(i)}/i! takes c_m t^m to C(m,i) c_m t^{m-i}, so the left side has
    # sum_i C(k,i) C(m,i) c_m = C(k+m, k) c_m at t^m (Vandermonde); at k = 0
    # both sides are F_0, so the check starts at k = 1
    for k in range(1, 2 * N + 1):
        ht = [math.comb(k + m, k) for m in range(M - k + 1)]
        yield _first_diff(_scaled(fk[k], ht), fk[0], label=f"cosh-expansion(k={k})")
    if M == 0:
        return
    # 1/F and 1/F* are the EGFs of the hg-euler(N) and comp-hg-euler(N-1)
    # tables (F* is comp-hg-euler(N-1)'s denominator); each is compared to
    # t^{M-1}
    top, f = M - 1, fk[2 * N]
    x, y = _over_factorials(_ladder(2 * N, M), M), _over_factorials(_ladder(2 * N - 1, top), top)
    # F' = -F^2 (1/F)'
    nums, den = convolve(convolve(f, f, top), _derivative(x), top)
    yield _first_diff(_derivative(f), ([-c for c in nums], den), label="reciprocal-derivative")
    # 1/F^2 = (1/F*) (1/F - t/(2N) (1/F)'), where t (1/F)' has n x_n at t^n
    x2 = convolve(x, x, top)
    nums, den = convolve(_scaled(x, _index_weight(2 * N, top)), y, top)
    yield _first_diff(x2, (nums, den * 2 * N), label="inv-square")
    # 1/F^3 = (1/F*) (1/F^2 - t/(4N) (1/F^2)')
    nums, den = convolve(_scaled(x2, _index_weight(4 * N, top)), y, top)
    yield _first_diff(convolve(x, x2, top), (nums, den * 4 * N), label="inv-cube")


def check_series_identities(N: int, M: int) -> IdentityReport:
    """The truncated-series identities tying F, its starred/ladder variants and
    the reciprocal powers together; needs N >= 1."""
    if N < 1:
        raise InvalidParameter(f"series identities need N >= 1, got {N}")
    witness = next((w for w in _series_failures(N, M) if w is not None), None)
    return IdentityReport(f"series-identities(N={N})", f"order {M}", witness)
