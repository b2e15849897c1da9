"""The exact convolution kernel and the checkers built on it, against the
per-index Fraction loops they replaced.

The ``reference_*`` functions below are those loops, kept here as oracles:
each sums every term of its identity for each n on its own, in Fraction
arithmetic, with ``exact.binomial`` and ``exact.factorial``.  They read their
tables through ``identities.table``, so a table patched there reaches the
checker and its oracle alike.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgnum import identities
from hgnum.exact import (
    InvalidParameter, ZERO, binomial, convolve, factorial, numerators,
)
from hgnum.families import FamilyId, FamilyKind, NumberTable
from hgnum.identities import FailureWitness, IdentityReport

from helpers import TruncatedSeries, forward_reciprocal, sumprod_oracle, to_fractions


EULER = FamilyKind.HG_EULER
COMP = FamilyKind.COMP_HG_EULER
BERNOULLI = FamilyKind.HG_BERNOULLI


def numbers(kind, N, nmax):
    """The table of (kind, N) up to nmax, as the checkers read it."""
    return identities.table(FamilyId(kind, N), nmax)


def naive_convolution(a, b, nmax, egf=False):
    return [
        sum(((math.comb(n, i) if egf else 1) * a[i] * b[n - i] for i in range(n + 1)), ZERO)
        for n in range(nmax + 1)
    ]


def reference_report(identity_id, nmax, lhs_at, rhs_at):
    for n in range(nmax + 1):
        lhs, rhs = lhs_at(n), rhs_at(n)
        if lhs != rhs:
            return IdentityReport(identity_id, f"0 <= n <= {nmax}",
                                  FailureWitness((n,), lhs, rhs))
    return IdentityReport(identity_id, f"0 <= n <= {nmax}")


def reference_y2(N, n):
    e = numbers(EULER, N, 2 * n)
    return sum((binomial(2 * n, 2 * i) * e[2 * i] * e[2 * n - 2 * i] for i in range(n + 1)), ZERO)


def reference_trinomial_convolution(values, n):
    total = ZERO
    for i1 in range(n + 1):
        for i2 in range(n - i1 + 1):
            i3 = n - i1 - i2
            total += (
                factorial(n) / (factorial(i1) * factorial(i2) * factorial(i3))
                * values[i1] * values[i2] * values[i3]
            )
    return total


def _pair_lhs(v):
    return lambda n: sum((binomial(n, i) * v[i] * v[n - i] for i in range(n + 1)), ZERO)


def reference_sumprod_pair(N, nmax):
    e = numbers(EULER, N, nmax)
    ehat = numbers(COMP, N - 1, nmax)
    return reference_report(
        f"sumprod-pair(N={N})", nmax, _pair_lhs(e),
        lambda n: sum(
            (binomial(n, k) * F(2 * N - k, 2 * N) * e[k] * ehat[n - k] for k in range(n + 1)),
            ZERO,
        ),
    )


def reference_sumprod_pair_comp(N, nmax):
    e = numbers(EULER, N, nmax)
    ehat = numbers(COMP, N, nmax)
    return reference_report(
        f"sumprod-pair-comp(N={N})", nmax, _pair_lhs(ehat),
        lambda n: sum(
            (
                binomial(n, k) * F(2 * N - k + 1, 2 * N + 1) * ehat[k] * e[n - k]
                for k in range(n + 1)
            ),
            ZERO,
        ),
    )


def reference_sumprod_trinomial(N, nmax):
    e = numbers(EULER, N, nmax)
    ehat = numbers(COMP, N - 1, nmax)

    def rhs(n):
        total = ZERO
        for m in range(n + 1):
            for k in range(m + 1):
                total += (
                    binomial(n, m) * binomial(m, k)
                    * F((4 * N - m) * (2 * N - k), 8 * N * N)
                    * e[k] * ehat[n - m] * ehat[m - k]
                )
        return total

    return reference_report(
        f"sumprod-trinomial(N={N})", nmax,
        lambda n: reference_trinomial_convolution(e.values, n), rhs,
    )


def reference_sumprod_trinomial_comp(N, nmax):
    e = numbers(EULER, N, nmax)
    ehat = numbers(COMP, N, nmax)

    def rhs(n):
        total = ZERO
        for m in range(n + 1):
            for k in range(m + 1):
                total += (
                    binomial(n, m) * binomial(m, k)
                    * F((4 * N - m + 2) * (2 * N - k + 1), 2 * (2 * N + 1) ** 2)
                    * ehat[k] * e[n - m] * e[m - k]
                )
        return total

    return reference_report(
        f"sumprod-trinomial-comp(N={N})", nmax,
        lambda n: reference_trinomial_convolution(ehat.values, n), rhs,
    )


def reference_tangent(nmax):
    b = numbers(BERNOULLI, 1, 2 * nmax + 2)
    return reference_report(
        "tangent", nmax, lambda n: reference_y2(0, n),
        lambda n: F(4 ** (n + 1) * (4 ** (n + 1) - 1)) * b[2 * n + 2] / (2 * n + 2),
    )


def reference_tangent_complex_sum(n):
    # (re, im) pairs for the Gaussian rationals
    re, im = ZERO, ZERO
    unit = (1, 0)  # i^k
    for k in range(1, 2 * n + 3):
        unit = (-unit[1], unit[0])  # times i
        inner = ZERO
        for j in range(k + 1):
            inner += binomial(k, j) * F((-1) ** (j + 1) * (k - 2 * j) ** (2 * n + 2))
        # divide by i^k: multiply by its conjugate over its norm, which is 1
        x = inner / (F(2) ** k * k)
        re += x * unit[0]
        im -= x * unit[1]
    return re, im


def reference_tangent_complex(nmax):
    # the double sum is real for every n in these tests
    return reference_report(
        "tangent-complex", nmax, lambda n: reference_tangent_complex_sum(n)[0],
        lambda n: reference_y2(0, n),
    )


def reference_tan_maclaurin(nmax):
    # the even coefficients vanish; the odd ones are compared per n
    order = 2 * nmax + 1
    sec = forward_reciprocal(identities.gen_cos(order))
    tan = TruncatedSeries(identities.gen_sin(order)) * TruncatedSeries(sec)
    return reference_report(
        "tan-maclaurin", nmax, lambda n: tan[2 * n + 1],
        lambda n: F((-1) ** n) * reference_y2(0, n) / factorial(2 * n + 1),
    )


def reference_from_one(identity_id, nmax, lhs_at, rhs_at):
    # as reference_report, for identities stated for 1 <= n <= nmax
    for n in range(1, nmax + 1):
        lhs, rhs = lhs_at(n), rhs_at(n)
        if lhs != rhs:
            return IdentityReport(identity_id, f"1 <= n <= {nmax}",
                                  FailureWitness((n,), lhs, rhs))
    return IdentityReport(identity_id, f"1 <= n <= {nmax}")


def reference_euler_pair_sum(nmax):
    e = numbers(EULER, 0, 2 * nmax)
    return reference_from_one(
        "euler-pair-sum", nmax,
        lambda n: sum((binomial(2 * n, 2 * i) * e[2 * i] for i in range(n + 1)), ZERO),
        lambda n: ZERO,
    )


def reference_e1_bernoulli(nmax):
    e1 = numbers(EULER, 1, nmax)
    b = numbers(BERNOULLI, 1, nmax)
    return reference_from_one("e1-bernoulli", nmax, lambda n: e1[n], lambda n: -(n - 1) * b[n])


def reference_bernoulli_lemma(nmax):
    b = numbers(BERNOULLI, 1, nmax + 1)
    return reference_from_one(
        "bernoulli-lemma", nmax,
        lambda n: sum(
            ((i - 1) * b[i] / (factorial(n - i + 2) * factorial(i)) for i in range(n + 1)),
            ZERO,
        ),
        lambda n: ZERO if n % 2 == 0 else -b[n + 1] / factorial(n),
    )


SUMPROD = [
    (identities.check_sumprod_pair, reference_sumprod_pair),
    (identities.check_sumprod_pair_comp, reference_sumprod_pair_comp),
    (identities.check_sumprod_trinomial, reference_sumprod_trinomial),
    (identities.check_sumprod_trinomial_comp, reference_sumprod_trinomial_comp),
]
TANGENT = [
    (identities.check_tangent_closed_form, reference_tangent),
    (identities.check_tangent_complex_sum, reference_tangent_complex),
    (identities.check_tan_maclaurin, reference_tan_maclaurin),
]

# (checker, reference, the family of the table it reads, that table's N, the
# indices the identity does not read)
TABLE_SUMS = [
    (identities.check_euler_pair_sum, reference_euler_pair_sum, "hg-euler", 0,
     lambda i: i % 2 == 1),
    (identities.check_bernoulli_lemma, reference_bernoulli_lemma, "hg-bernoulli", 1,
     lambda i: i == 1),  # B_1 carries the weight 1 - 1 = 0
    (identities.check_E1_bernoulli, reference_e1_bernoulli, "hg-euler", 1,
     lambda i: i == 0),  # the identity starts at n = 1
]


# ---------------------------------------------------------------------------
# the kernel

entries = st.one_of(
    st.just(ZERO),
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7, 11, 97, 1024, 9973])),
)


# Columns short and long, on both sides of int_convolve's switch at 32
# coefficients, with zeros (the multiples of 3 drawn, about a third),
# negative numerators and denominators that share factors with them, so that
# the one gcd of the product has work to do.
def numerator_lists(size):
    return st.lists(st.integers(-10**15, 10**15), min_size=size, max_size=size + 3).map(
        lambda xs: [x if x % 3 else 0 for x in xs])


@st.composite
def column_cases(draw):
    nmax = draw(st.one_of(st.integers(0, 14), st.integers(26, 40)))
    a, b = draw(numerator_lists(nmax + 1)), draw(numerator_lists(nmax + 1))
    a_den, b_den = (draw(st.sampled_from([1, 2, 6, 9, 360, 10**12, 2**40 * 3])) for _ in "ab")
    # a weight as the identities give one, with the nmax + 1 entries
    # c_0..c_nmax read, often fewer than a
    weight = draw(st.one_of(st.none(), st.lists(
        st.integers(-40, 40), min_size=nmax + 1, max_size=nmax + 1)))
    return (a, a_den), (b, b_den), nmax, draw(st.booleans()), weight, draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(column_cases())
def test_kernel_matches_naive_sums(case):
    # the product in lowest terms: a positive denominator sharing no factor
    # with every numerator
    (a, a_den), (b, b_den), nmax, egf, weight, divisor = case
    # the identities weight an operand entrywise and put a divisor into the
    # compared column's denominator
    operand = (a, a_den) if weight is None else identities._scaled((a, a_den), weight)
    nums, den = convolve(operand, (b, b_den), nmax, egf=egf)
    assert den > 0 and math.gcd(den, *nums) == 1
    # each sum term by term on the numerators, over a_den b_den divisor
    sums = [
        sum(
            (math.comb(n, i) if egf else 1) * (weight[i] if weight else 1) * a[i] * b[n - i]
            for i in range(n + 1)
        )
        for n in range(nmax + 1)
    ]
    assert [F(x, den * divisor) for x in nums] == [F(x, a_den * b_den * divisor) for x in sums]


def test_kernel_on_integer_entries_and_tuples():
    a = (1, 0, -2, 0, 5)
    got = convolve(numerators(a), numerators(a), 4, egf=True)
    assert got == ([1, 0, -4, 0, 34], 1) and to_fractions(got) == naive_convolution(a, a, 4, True)
    got = convolve(numerators(a), ([1] * 5, 3), 4)
    assert to_fractions(got) == naive_convolution(a, [F(1, 3)] * 5, 4)


def test_kernel_guards():
    with pytest.raises(InvalidParameter):
        convolve(([1], 1), ([1], 1), -1)
    with pytest.raises(InvalidParameter):
        convolve(([1] * 3, 1), ([1] * 2, 1), 2)


@pytest.mark.parametrize("nmax", [0, 1, 5])
def test_kernel_needs_nmax_plus_one_entries_per_column(nmax):
    full = [F(k + 1, 3) for k in range(nmax + 1)]
    got = convolve(numerators(full), numerators(full), nmax)
    assert to_fractions(got) == naive_convolution(full, full, nmax)
    message = f"convolution to index {nmax} needs {nmax + 1} entries per column$"
    for a, b in ((full[:-1], full), (full, full[:-1])):
        with pytest.raises(InvalidParameter, match=message):
            convolve(numerators(a), numerators(b), nmax)


def test_column_product_of_zeros_is_zero_over_one():
    assert convolve(([0] * 40, 7), ([3] * 40, 5), 39, egf=True) == ([0] * 40, 1)
    assert convolve(([2, 0, 4], 6), ([0, 0, 0], 1), 2) == ([0, 0, 0], 1)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(entries, min_size=1, max_size=12), st.lists(entries, min_size=1, max_size=12))
def test_series_mul_matches_naive_product(a, b):
    # two series as Fraction tuples, multiplied through their columns as the
    # tan checker does, to the smaller order
    m = min(len(a), len(b)) - 1
    got = to_fractions(convolve(numerators(a), numerators(b), m))
    assert got == [sum((a[i] * b[n - i] for i in range(n + 1)), ZERO) for n in range(m + 1)]
    assert all(type(c) is F for c in got)


# ---------------------------------------------------------------------------
# the checkers and views, on the true tables

@pytest.mark.parametrize("check, reference", SUMPROD)
@pytest.mark.parametrize("N", range(1, 7))
def test_sumprod_checkers_match_reference(check, reference, N):
    for nmax in (0, 1, 7, 20):
        got = check(N, nmax)
        assert got == reference(N, nmax)
        assert got.passed


@pytest.mark.parametrize("check, reference", TANGENT)
def test_tangent_checkers_match_reference(check, reference):
    for nmax in (0, 3, 8):
        got = check(nmax)
        assert got == reference(nmax)
        assert got.passed


@pytest.mark.parametrize("check, reference, family, N, blind", TABLE_SUMS)
def test_table_sum_checkers_match_reference(check, reference, family, N, blind):
    for nmax in (0, 1, 2, 7, 30, 45):
        got = check(nmax)
        assert got == reference(nmax)
        assert got.passed


def test_tangent_complex_sum_matches_reference():
    for n in range(13):
        assert identities.tangent_complex_sum(n) == reference_tangent_complex_sum(n)


@pytest.mark.parametrize("N", range(0, 7))
def test_y2_column_matches_reference(N):
    column = to_fractions(identities.y2_column(N, 10))
    assert column == [reference_y2(N, n) for n in range(11)]


def test_trinomial_convolution_matches_reference():
    # the EGF cube the trinomial checkers take their left side from
    for tab in (numbers(EULER, 2, 20), numbers(COMP, 3, 20)):
        x = tab.column
        cube = to_fractions(convolve(convolve(x, x, 20, egf=True), x, 20, egf=True))
        for n in (0, 1, 2, 9, 20):
            assert cube[n] == reference_trinomial_convolution(tab.values, n)


# ---------------------------------------------------------------------------
# the checkers on a doctored table: the same first witness as the oracle

def perturb(monkeypatch, family, N, index, delta):
    """Make identities.table return the table of (family, N) with ``delta``
    added at ``index`` (every other table is left alone)."""
    original = identities.table
    target = FamilyId(FamilyKind(family), N)

    def doctored(fam, nmax):
        tab = original(fam, nmax)
        if fam != target or index > nmax:
            return tab
        values = list(tab.values)
        values[index] += delta
        return NumberTable(tab.family, tuple(values))

    monkeypatch.setattr(identities, "table", doctored)


@pytest.mark.parametrize("check, reference", SUMPROD)
@pytest.mark.parametrize(
    "family, shift, index, delta",
    [
        ("hg-euler", 0, 4, F(1, 7)),
        ("hg-euler", 0, 5, F(-3, 11)),
        ("comp-hg-euler", 0, 6, F(2, 5)),
        ("comp-hg-euler", -1, 3, F(1, 13)),
    ],
)
def test_sumprod_witness_on_perturbed_table(
    monkeypatch, check, reference, family, shift, index, delta
):
    N = 2
    perturb(monkeypatch, family, N + shift, index, delta)
    got = check(N, 12)
    want = reference(N, 12)
    assert got == want


@pytest.mark.parametrize(
    "check, trinomial",
    [(identities.check_sumprod_pair, False), (identities.check_sumprod_trinomial, True)],
    ids=["pair", "trinomial"],
)
@pytest.mark.parametrize("family, shift, index", [("hg-euler", 0, 34), ("comp-hg-euler", -1, 21)])
def test_a_doctored_table_gives_the_oracle_witness(
    monkeypatch, check, trinomial, family, shift, index
):
    # past int_convolve's switch at 32 coefficients, where the columns'
    # denominators are large, one value bent by 5/10007
    N, nmax = 3, 36
    perturb(monkeypatch, family, N + shift, index, F(5, 10007))
    report = check(N, nmax)
    assert not report.passed
    assert report.first_failure.indices == (index,)
    assert report.first_failure == sumprod_oracle(N, nmax, trinomial)


@pytest.mark.parametrize("check, reference", TANGENT)
@pytest.mark.parametrize("index, delta", [(4, F(1, 3)), (0, F(-2, 9)), (12, F(1, 5))])
def test_tangent_witness_on_perturbed_table(monkeypatch, check, reference, index, delta):
    # E_12 enters y2(0, n) at n = 6 alone, the last index checked
    perturb(monkeypatch, "hg-euler", 0, index, delta)
    got = check(6)
    assert not got.passed
    assert got == reference(6)


@pytest.mark.parametrize("m", [0, 6, 12])
def test_tan_maclaurin_reports_an_even_coefficient(monkeypatch, m):
    # sin bent by 1/7 at t^m: tan gains 1/7 at t^m (sec t starts at 1) and
    # nothing at the even powers below; t^12 is the last one checked at 6
    real = identities.gen_sin

    def bent(order):
        cs = list(real(order))
        cs[m] += F(1, 7)
        return tuple(cs)

    monkeypatch.setattr(identities, "gen_sin", bent)
    report = identities.check_tan_maclaurin(6)
    assert report.first_failure == FailureWitness((m,), F(1, 7), ZERO)


@pytest.mark.parametrize("check, reference, family, N, blind", TABLE_SUMS)
@pytest.mark.parametrize(
    "index, delta",
    [(0, F(-2, 9)), (1, F(-1, 5)), (2, F(2, 7)), (3, F(1, 13)), (4, F(1, 7)), (12, F(5, 3)),
     (14, F(3, 11))],
)
def test_table_sum_witness_on_perturbed_table(
    monkeypatch, check, reference, family, N, blind, index, delta
):
    perturb(monkeypatch, family, N, index, delta)
    got = check(14)
    assert got == reference(14)
    assert got.passed == blind(index)


def test_tangent_complex_reports_imaginary_part(monkeypatch):
    real = identities.tangent_complex_sum

    def leaky(n):
        val = real(n)
        return (val[0], F(1, 5)) if n == 2 else val

    monkeypatch.setattr(identities, "tangent_complex_sum", leaky)
    report = identities.check_tangent_complex_sum(4)
    assert not report.passed
    assert report.first_failure == FailureWitness(("imag", 2), F(1, 5), ZERO)


def test_tangent_complex_reports_a_wrong_real_part(monkeypatch):
    # 5/3 against y2(0, 2) = 16, where 16 // 3 = 5
    real = identities.tangent_complex_sum
    monkeypatch.setattr(
        identities, "tangent_complex_sum", lambda n: (F(5, 3), ZERO) if n == 2 else real(n)
    )
    report = identities.check_tangent_complex_sum(4)
    assert report.first_failure == FailureWitness((2,), F(5, 3), F(16))
