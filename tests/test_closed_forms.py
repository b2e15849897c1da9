from fractions import Fraction as F

import pytest

from hgnum.closed_forms import _power_chain, value
from hgnum.exact import InvalidParameter, factorial
from hgnum.families import FamilyId, FamilyKind, table

from helpers import inverse_pair_check, weak_compositions

EULER = FamilyKind.HG_EULER
COMP = FamilyKind.COMP_HG_EULER
BERNOULLI = FamilyKind.HG_BERNOULLI
CAUCHY = FamilyKind.HG_CAUCHY


class TestExplicit:
    def test_base_case(self):
        for N in range(8):
            assert value(EULER, "explicit", N, 2) == F(-2, (2 * N + 1) * (2 * N + 2))

    def test_classical_four(self):
        assert value(EULER, "explicit", 0, 4) == 24 * (F(1, 4) - F(1, 24)) == 5

    def test_worked_value(self):
        assert value(EULER, "explicit", 3, 4) == F(17, 5880)

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameter):
            value(EULER, "explicit", 1, 5)

    def test_cap(self):
        with pytest.raises(InvalidParameter, match="composition-route cap 30"):
            value(EULER, "explicit", 0, 32)
        assert value(EULER, "explicit", 0, 30) == value(EULER, "det", 0, 30)


class TestBinomial:
    def test_worked_examples(self):
        assert value(EULER, "binomial", 0, 4) == 5
        assert value(EULER, "binomial", 1, 4) == F(1, 10)
        assert value(EULER, "binomial", 2, 4) == F(13, 1050)
        assert value(EULER, "binomial", 3, 4) == F(17, 5880)

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameter):
            value(EULER, "binomial", 0, 3)

    def test_weak_sum_matches_enumeration(self):
        # the convolution shortcut equals the literal sum over weak compositions
        weights = [F(2) / factorial(2 + 2 * j) for j in range(6)]
        for half in range(6):
            for k in range(1, 7):
                direct = F(0)
                for parts in weak_compositions(half, k):
                    term = F(1)
                    for p in parts:
                        term *= weights[p]
                    direct += term
                nums, den = _power_chain(weights[: half + 1], k)[k]
                assert F(nums[half], den) == direct


class TestDeterminantRoute:
    def test_one_by_one(self):
        for N in range(6):
            assert value(EULER, "det", N, 2) == -2 * factorial(2 * N) / factorial(2 * N + 2)

    def test_classical_six(self):
        assert value(EULER, "det", 0, 6) == -61

    def test_table_value(self):
        assert value(EULER, "det", 4, 6) == F(53, 2027025)


class TestTrudiRoute:
    def test_classical_four(self):
        assert value(EULER, "trudi", 0, 4) == 5

    def test_table_value(self):
        assert value(EULER, "trudi", 1, 6) == F(-5, 42)

    def test_single_partition(self):
        for N in range(6):
            assert value(EULER, "trudi", N, 2) == -2 * factorial(2 * N) / factorial(2 * N + 2)


class TestComplementaryRoutes:
    def test_det_base(self):
        assert value(COMP, "det", 0, 2) == F(-1, 3)

    def test_trudi_classical_four(self):
        assert value(COMP, "trudi", 0, 4) == 24 * (F(1, 36) - F(1, 120)) == F(7, 15)

    def test_explicit_base(self):
        for N in range(8):
            assert value(COMP, "explicit", N, 2) == F(-2, (2 * N + 2) * (2 * N + 3))

    def test_all_four_match_recurrence(self):
        for N in range(4):
            t = table(FamilyId(COMP, N), 12)
            for n in range(2, 13, 2):
                assert value(COMP, "explicit", N, n) == t[n]
                assert value(COMP, "binomial", N, n) == t[n]
                assert value(COMP, "det", N, n) == t[n]
                assert value(COMP, "trudi", N, n) == t[n]


class TestBernoulliCauchyDets:
    def test_bernoulli_two(self):
        assert value(BERNOULLI, "det", 1, 2) == F(1, 6)

    def test_cauchy_two(self):
        assert value(CAUCHY, "det", 1, 2) == F(-1, 6)

    def test_hg_specialization(self):
        # N = 1 gives the Bernoulli numbers (B_1 = -1/2) and the Cauchy
        # numbers of the first kind
        bernoulli = [F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0, F(-1, 30)]
        cauchy = [F(1, 2), F(-1, 6), F(1, 4), F(-19, 30), F(9, 4), F(-863, 84), F(1375, 24)]
        for n, v in enumerate(bernoulli, 1):
            assert value(BERNOULLI, "det", 1, n) == v, n
        for n, v in enumerate(cauchy, 1):
            assert value(CAUCHY, "det", 1, n) == v, n

    def test_match_tables(self):
        for N in range(1, 5):
            b = table(FamilyId(BERNOULLI, N), 12)
            c = table(FamilyId(CAUCHY, N), 12)
            for n in range(1, 13):
                assert value(BERNOULLI, "det", N, n) == b[n]
                assert value(CAUCHY, "det", N, n) == c[n]

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            value(BERNOULLI, "det", 0, 2)
        with pytest.raises(InvalidParameter):
            value(CAUCHY, "det", 1, 0)


class TestInversePairing:
    def test_classical(self):
        assert inverse_pair_check(FamilyKind.HG_EULER, 0, 5)

    def test_complementary(self):
        assert inverse_pair_check(FamilyKind.COMP_HG_EULER, 2, 5)

    def test_base_case(self):
        for N in range(5):
            assert inverse_pair_check(FamilyKind.HG_EULER, N, 1)

    def test_stride_one_families(self):
        # at stride 1 the pairing is the same Toeplitz inversion
        for kind in (FamilyKind.HG_BERNOULLI, FamilyKind.HG_CAUCHY):
            for N in range(1, 6):
                assert inverse_pair_check(kind, N, 15), (kind, N)

    def test_stride_one_fails_on_a_doctored_weight(self, monkeypatch):
        family = FamilyId(FamilyKind.HG_CAUCHY, 2)
        weights = family.weights(6)
        doctored = weights[:3] + [weights[3] + 1] + weights[4:]
        monkeypatch.setattr(FamilyId, "weights", lambda self, nmax: doctored[: nmax + 1])
        assert not inverse_pair_check(FamilyKind.HG_CAUCHY, 2, 6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameter, match="needs N >= 1"):
            inverse_pair_check(FamilyKind.HG_BERNOULLI, 0, 3)
        with pytest.raises(InvalidParameter, match="n must be positive"):
            inverse_pair_check(FamilyKind.HG_CAUCHY, 1, 0)


class TestFiveWayAgreementSmall:
    def test_main_family(self):
        for N in range(4):
            t = table(FamilyId(EULER, N), 12)
            for n in range(2, 13, 2):
                assert value(EULER, "explicit", N, n) == t[n]
                assert value(EULER, "binomial", N, n) == t[n]
                assert value(EULER, "det", N, n) == t[n]
                assert value(EULER, "trudi", N, n) == t[n]


class TestNumbersDeterminantInverse:
    def test_main_family(self):
        # Hessenberg determinant built from the numbers gives back the weights
        from hgnum.linalg import hessenberg_det_prefixes

        for N in range(4):
            t = table(FamilyId(EULER, N), 30)
            col = [t[2 * k] / factorial(2 * k) for k in range(1, 16)]
            dets = hessenberg_det_prefixes(col)
            for m in range(1, 16):
                expected = F((-1) ** m) * factorial(2 * N) / factorial(2 * N + 2 * m)
                assert dets[m] == expected

    def test_complementary_family(self):
        from hgnum.linalg import hessenberg_det_prefixes

        for N in range(4):
            t = table(FamilyId(COMP, N), 30)
            col = [t[2 * k] / factorial(2 * k) for k in range(1, 16)]
            dets = hessenberg_det_prefixes(col)
            for m in range(1, 16):
                expected = F((-1) ** m) * factorial(2 * N + 1) / factorial(2 * N + 2 * m + 1)
                assert dets[m] == expected
