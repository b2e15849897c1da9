from fractions import Fraction as F

import pytest

from hgnum.exact import InvalidParameter, convolve
from hgnum.families import FamilyId, FamilyKind, table
from hgnum.identities import (
    _ladder,
    check_E1_bernoulli,
    check_bernoulli_lemma,
    check_euler_pair_sum,
    check_series_identities,
    check_sumprod_pair,
    check_sumprod_pair_comp,
    check_sumprod_trinomial,
    check_sumprod_trinomial_comp,
    check_tan_maclaurin,
    check_tangent_closed_form,
    check_tangent_complex_sum,
    tangent_complex_sum,
    y2_column,
)
from hgnum.series import gen_ratio, reciprocal

from helpers import TruncatedSeries, to_fractions

EULER = FamilyKind.HG_EULER
BERNOULLI = FamilyKind.HG_BERNOULLI


TANGENT_VALUES = [1, -2, 16, -272, 7936, -353792, 22368256, -1903757312]


def assert_passed(report):
    assert report.passed, (report.identity_id, report.first_failure)
    assert report.first_failure is None


class TestPairSum:
    def test_hand_values(self):
        e = table(FamilyId(EULER, 0), 4)
        assert e[0] + e[2] == 0
        assert e[0] + 6 * e[2] + e[4] == 0

    def test_suite(self):
        assert_passed(check_euler_pair_sum(20))


class TestE1Bernoulli:
    def test_spot_values(self):
        e1 = table(FamilyId(EULER, 1), 14)
        assert e1[4] == -3 * F(-1, 30)
        assert e1[3] == 0
        assert e1[14] == -13 * F(7, 6) == F(-91, 6)

    def test_suite(self):
        assert_passed(check_E1_bernoulli(60))


class TestBernoulliLemma:
    def test_hand_n1(self):
        # single surviving term -1/3! against -B_2/1!
        from hgnum.exact import factorial

        b = table(FamilyId(BERNOULLI, 1), 2)
        lhs = sum((i - 1) * b[i] / (factorial(1 - i + 2) * factorial(i)) for i in range(2))
        assert lhs == -b[2] / factorial(1) == F(-1, 6)

    def test_suite(self):
        assert_passed(check_bernoulli_lemma(30))


class TestTangent:
    def test_y2_values(self):
        assert to_fractions(y2_column(0, len(TANGENT_VALUES) - 1)) == TANGENT_VALUES

    def test_closed_form_hand_values(self):
        assert F(4 * 3) * F(1, 6) / 2 == 1
        assert F(64 * 63) * F(1, 42) / 6 == 16

    def test_closed_form_suite(self):
        assert_passed(check_tangent_closed_form(12))

    def test_complex_sum_first_values(self):
        assert tangent_complex_sum(0) == (1, 0)
        assert tangent_complex_sum(1) == (-2, 0)

    def test_complex_sum_suite(self):
        assert_passed(check_tangent_complex_sum(8))

    def test_maclaurin_suite(self):
        assert_passed(check_tan_maclaurin(12))


class TestSumsOfProducts:
    @pytest.mark.parametrize("N", range(1, 5))
    def test_pair(self, N):
        assert_passed(check_sumprod_pair(N, 20))

    @pytest.mark.parametrize("N", range(1, 5))
    def test_pair_comp(self, N):
        assert_passed(check_sumprod_pair_comp(N, 20))

    @pytest.mark.parametrize("N", range(1, 5))
    def test_trinomial(self, N):
        assert_passed(check_sumprod_trinomial(N, 20))

    @pytest.mark.parametrize("N", range(1, 5))
    def test_trinomial_comp(self, N):
        assert_passed(check_sumprod_trinomial_comp(N, 20))

    @pytest.mark.parametrize("w", range(14))
    def test_ladder_is_the_reciprocal_of_gen_ratio(self, w):
        # w = 2N reads E_N, w = 2N+1 reads Ehat_N; both are 1/F_w
        r = TruncatedSeries(reciprocal(gen_ratio(w, 2, 16)))
        assert tuple(to_fractions(_ladder(w, 16))) == r.egf_values()

    def test_pair_spot_value(self):
        e = table(FamilyId(EULER, 1), 2)
        assert 2 * e[0] * e[2] == F(-1, 3)

    def test_guard(self):
        with pytest.raises(InvalidParameter):
            check_sumprod_pair(0, 30)
        with pytest.raises(InvalidParameter):
            check_sumprod_trinomial_comp(0, 30)

    def test_trinomial_lhs_two_routes_agree(self):
        # triple binomial convolution vs coefficient extraction from (1/F)^3
        from hgnum.exact import factorial

        N, nmax = 2, 16
        e = table(FamilyId(EULER, N), nmax).column
        r = TruncatedSeries(reciprocal(gen_ratio(2 * N, 2, nmax)))
        cube = r * r * r
        trinomial = to_fractions(convolve(convolve(e, e, nmax, egf=True), e, nmax, egf=True))
        for n in range(nmax + 1):
            assert trinomial[n] == factorial(n) * cube[n]


class TestSeriesIdentitySuite:
    @pytest.mark.parametrize("N", range(1, 5))
    def test_grid(self, N):
        assert_passed(check_series_identities(N, 24))

    def test_guard(self):
        with pytest.raises(InvalidParameter):
            check_series_identities(0, 12)


def test_failure_reports_carry_witness():
    # a deliberately out-of-range check cannot fail; instead exercise the
    # report structure through a doctored comparison
    from hgnum.identities import FailureWitness, IdentityReport

    w = FailureWitness((3,), F(1, 2), F(1, 3))
    r = IdentityReport("demo", "0..3", w)
    assert not r.passed and r.first_failure == w
    assert IdentityReport("demo", "0..3").passed
