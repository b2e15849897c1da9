"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
All comparisons are exact rational equality; there are no tolerances.
"""

import functools
import random
import time
from fractions import Fraction as F

from hgnum.closed_forms import table_routes, value
from hgnum.exact import binomial, compositions, factorial
from hgnum.families import FamilyId, FamilyKind, table, via_series
from hgnum.goldens import TABLE1
from hgnum.identities import (
    check_E1_bernoulli,
    check_series_identities,
    check_sumprod_pair,
    check_sumprod_pair_comp,
    check_sumprod_trinomial,
    check_sumprod_trinomial_comp,
    check_tan_maclaurin,
    check_tangent_closed_form,
    check_tangent_complex_sum,
    y2_column,
)
from hgnum.linalg import hessenberg_det_prefixes

from helpers import (
    TruncatedSeries, closed_small, inverse_pair_check, scale, to_fractions, weak_compositions,
)

EULER = FamilyKind.HG_EULER
COMP = FamilyKind.COMP_HG_EULER
BERNOULLI = FamilyKind.HG_BERNOULLI
CAUCHY = FamilyKind.HG_CAUCHY


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL criterion {num}: {desc}")
                raise
            print(f"ACCEPTANCE PASS criterion {num}: {desc}")

        return wrapper

    return deco


@criterion(1, "Table reproduction by all methods, < 5 s")
def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    routes = {
        "explicit": functools.partial(value, FamilyKind.HG_EULER, "explicit"),
        "binomial": functools.partial(value, FamilyKind.HG_EULER, "binomial"),
        "det": functools.partial(value, FamilyKind.HG_EULER, "det"),
        "trudi": functools.partial(value, FamilyKind.HG_EULER, "trudi"),
    }
    for N in range(7):
        rec = table(FamilyId(EULER, N), 14)
        ser = via_series(FamilyId(FamilyKind.HG_EULER, N), 14)
        for n in range(0, 15, 2):
            want = TABLE1[(N, n)]
            assert rec[n] == want, ("recurrence", N, n)
            assert ser[n] == want, ("series", N, n)
            if n >= 2:
                for name, route in routes.items():
                    assert route(N, n) == want, (name, N, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "closed-form grid for indices 2..8, 0 <= N <= 20")
def test_criterion_2_closed_form_grid():
    for N in range(21):
        e = table(FamilyId(EULER, N), 8)
        ehat = table(FamilyId(COMP, N), 8)
        for k in (2, 4, 6, 8):
            got = closed_small(FamilyKind.HG_EULER, N, k)
            assert got == e[k], f"E closed form (N={N}, k={k}): ratio {got / e[k]}"
            got = closed_small(FamilyKind.COMP_HG_EULER, N, k)
            # a wrong printed leading factor would show up as a constant ratio
            assert got == ehat[k], (
                f"complementary closed form (N={N}, k={k}): discrepancy factor {got / ehat[k]}"
            )


@criterion(3, "E_{1,n} = -(n-1) B_n for 1 <= n <= 60, < 1 s")
def test_criterion_3_bernoulli_relation():
    start = time.perf_counter()
    report = check_E1_bernoulli(60)
    assert report.passed, report.first_failure
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(4, "tangent numbers: list, closed form, complex double sum, tan series")
def test_criterion_4_tangent_numbers():
    expected = [1, -2, 16, -272, 7936, -353792, 22368256, -1903757312]
    for n, v in enumerate(expected):
        assert to_fractions(y2_column(0, n))[n] == v, n
    assert check_tangent_closed_form(8).passed
    assert check_tangent_complex_sum(8).passed
    assert check_tan_maclaurin(12).passed


@criterion(5, "five-way cross-algorithm agreement, both families, N <= 6")
def test_criterion_5_five_way_agreement():
    start = time.perf_counter()
    routes = table_routes()
    for N in range(7):
        for kind in (EULER, COMP):
            rec = table(FamilyId(kind, N), 40)
            assert rec.values == via_series(FamilyId(kind, N), 40).values, (kind, N)
            # each route's whole column, up to the composition cap where it has one
            for method, nmax in (("det", 40), ("trudi", 40), ("explicit", 30), ("binomial", 30)):
                column = routes[kind, method](kind, N, nmax)
                for n in range(2, nmax + 1, 2):
                    assert column[n] == rec[n], (kind.value, method, N, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


@criterion(6, "sums-of-products theorems, pair and trinomial, 1 <= N <= 6, n <= 30")
def test_criterion_6_sums_of_products():
    for N in range(1, 7):
        for check in (
            check_sumprod_pair,
            check_sumprod_pair_comp,
            check_sumprod_trinomial,
            check_sumprod_trinomial_comp,
        ):
            report = check(N, 30)
            assert report.passed, (report.identity_id, report.first_failure)


@criterion(7, "series-identity suite at order 24 for 1 <= N <= 4")
def test_criterion_7_series_identities():
    for N in range(1, 5):
        report = check_series_identities(N, 24)
        assert report.passed, (report.identity_id, report.first_failure)


def _random_series(rng, order=10):
    return TruncatedSeries(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1))
    )


def _random_unit_series(rng, order=10):
    coeffs = [F(rng.randint(1, 9), rng.randint(1, 9))]
    coeffs += [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)]
    return TruncatedSeries(tuple(coeffs))


def _agree(a, b, upto=None):
    """a and b agree up to the lower of their orders, and of ``upto`` if given."""
    m = min(a.order, b.order, a.order if upto is None else upto)
    return a.coeffs[: m + 1] == b.coeffs[: m + 1]


def _ht_product_rule_holds(factors, n):
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    lhs = prod.hasse_teichmuller(n)
    # hts[i][p]: the p-th divided-power derivative of factor i
    hts = [[f.hasse_teichmuller(p) for p in range(n + 1)] for f in factors]
    rhs = None
    for parts in weak_compositions(n, len(factors)):
        term = hts[0][parts[0]]
        for ht, p in zip(hts[1:], parts[1:]):
            term = term * ht[p]
        rhs = term if rhs is None else rhs + term
    return _agree(lhs, rhs)


def _ht_quotient_rules_hold(f, n):
    inv = f.reciprocal()
    lhs = inv.hasse_teichmuller(n)
    order = f.order
    ht = [f.hasse_teichmuller(p) for p in range(n + 1)]
    # inv_pows[k] = f^{-(k+1)}
    inv_pows = [None, inv * inv]
    for _ in range(2, n + 1):
        inv_pows.append(inv_pows[-1] * inv)
    # strict-composition form
    rhs1 = TruncatedSeries.zero(order)
    for k in range(1, n + 1):
        for parts in compositions(n, k):
            term = inv_pows[k]
            for p in parts:
                term = term * ht[p]
            rhs1 = rhs1 + scale(term, (-1) ** k)
    # binomial-weighted weak-composition form
    rhs2 = TruncatedSeries.zero(order)
    for k in range(1, n + 1):
        weight = F((-1) ** k) * binomial(n + 1, k + 1)
        for parts in weak_compositions(n, k):
            term = inv_pows[k]
            for p in parts:
                term = term * ht[p]
            rhs2 = rhs2 + scale(term, weight)
    upto = order - n
    return _agree(lhs, rhs1, upto) and _agree(lhs, rhs2, upto)


@criterion(8, "divided-power derivative product and quotient rules, 100 random series")
def test_criterion_8_ht_property_suite():
    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(1, 6)
        k = rng.randint(2, 4)
        factors = [_random_series(rng) for _ in range(k)]
        assert _ht_product_rule_holds(factors, n), ("product", trial, n, k)
        f = _random_unit_series(rng)
        assert _ht_quotient_rules_hold(f, n), ("quotient", trial, n)


@criterion(9, "inversion suite: matrix pairs, determinant duality, named determinants")
def test_criterion_9_inversion_suite():
    for kind in (FamilyKind.HG_EULER, FamilyKind.COMP_HG_EULER):
        for N in range(5):
            assert inverse_pair_check(kind, N, 15), (kind, N)
    # determinant duality on the actual number columns
    for N in range(5):
        t = table(FamilyId(EULER, N), 30)
        col = [t[2 * k] / factorial(2 * k) for k in range(1, 16)]
        back = hessenberg_det_prefixes(hessenberg_det_prefixes(col)[1:])[1:]
        assert list(back) == col, N
        dets = hessenberg_det_prefixes(col)
        for m in range(1, 16):
            assert dets[m] == F((-1) ** m) * factorial(2 * N) / factorial(2 * N + 2 * m)
    # Bernoulli / Cauchy determinant expressions against their tables
    b1 = table(FamilyId(BERNOULLI, 1), 12)
    c1 = table(FamilyId(CAUCHY, 1), 12)
    for n in range(1, 13):
        assert value(FamilyKind.HG_BERNOULLI, "det", 1, n) == b1[n]
        assert value(FamilyKind.HG_CAUCHY, "det", 1, n) == c1[n]
    for N in range(1, 5):
        b = table(FamilyId(BERNOULLI, N), 12)
        c = table(FamilyId(CAUCHY, N), 12)
        for n in range(1, 13):
            assert value(FamilyKind.HG_BERNOULLI, "det", N, n) == b[n], (N, n)
            assert value(FamilyKind.HG_CAUCHY, "det", N, n) == c[n], (N, n)
