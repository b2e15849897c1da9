"""Oracles from outside the package: sympy's Euler and Bernoulli numbers, the
series of t/log(1+t), and mpmath's hypergeometric functions, against which
each family's exponential generating function is summed at a few points."""

from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from hgnum.families import FamilyId, FamilyKind, table  # noqa: E402

NMAX = 40


def numbers(kind, N, nmax=NMAX):
    return table(FamilyId(kind, N), nmax).values


def to_fraction(r):
    r = sympy.Rational(r)
    return F(int(r.p), int(r.q))


def test_hg_euler_zero_is_euler():
    got = numbers(FamilyKind.HG_EULER, 0)
    assert list(got) == [to_fraction(sympy.euler(n)) for n in range(NMAX + 1)]


def test_hg_bernoulli_one_is_bernoulli():
    want = [to_fraction(sympy.bernoulli(n)) for n in range(NMAX + 1)]
    want[1] = F(-1, 2)  # sympy >= 1.12 has B_1 = +1/2; the family's B_1 is -1/2
    assert list(numbers(FamilyKind.HG_BERNOULLI, 1)) == want


def test_hg_cauchy_one_is_t_over_log():
    t = sympy.symbols("t")
    poly = sympy.series(t / sympy.log(1 + t), t, 0, NMAX + 1).removeO()
    want = [to_fraction(poly.coeff(t, n) * sympy.factorial(n)) for n in range(NMAX + 1)]
    assert list(numbers(FamilyKind.HG_CAUCHY, 1)) == want


# kind -> the family's EGF 1/F(t) as a function of N and t, from mpmath
EGF = {
    FamilyKind.HG_EULER: lambda N, t: 1 / mpmath.hyp1f2(1, N + 0.5, N + 1, t**2 / 4),
    FamilyKind.COMP_HG_EULER: lambda N, t: 1 / mpmath.hyp1f2(1, N + 1, N + 1.5, t**2 / 4),
    FamilyKind.HG_BERNOULLI: lambda N, t: 1 / mpmath.hyp1f1(1, N + 1, t),
    FamilyKind.HG_CAUCHY: lambda N, t: 1 / mpmath.hyp2f1(1, N, N + 1, -t),
}


@pytest.mark.parametrize("kind", list(EGF), ids=lambda k: k.value)
@pytest.mark.parametrize("N", [2, 3, 4])
def test_egf_matches_mpmath(kind, N):
    values = numbers(kind, N, 60)
    with mpmath.workdps(30):
        for t in (mpmath.mpf("0.1"), mpmath.mpf("-0.35"), mpmath.mpf("0.6")):
            partial = mpmath.fsum(
                mpmath.mpf(v.numerator) / v.denominator * t**n / mpmath.factorial(n)
                for n, v in enumerate(values)
            )
            assert mpmath.almosteq(partial, EGF[kind](N, t), rel_eps=1e-12), (N, t)
