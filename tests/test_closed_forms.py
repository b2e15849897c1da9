from fractions import Fraction as F

import pytest

from hgnum.closed_forms import (
    _power_chain,
    bernoulli_det,
    cauchy_det,
    comp_hg_euler_binomial,
    comp_hg_euler_det,
    comp_hg_euler_explicit,
    comp_hg_euler_trudi,
    hg_bernoulli_det,
    hg_cauchy_det,
    hg_euler_binomial,
    hg_euler_det,
    hg_euler_explicit,
    hg_euler_trudi,
    inverse_pair_check,
)
from hgnum.exact import InvalidParameter, compositions, factorial
from hgnum.families import (
    FamilyId,
    FamilyKind,
    comp_hg_euler_recurrence,
    hg_bernoulli,
    hg_cauchy,
    hg_euler_recurrence,
)


class TestExplicit:
    def test_base_case(self):
        for N in range(8):
            assert hg_euler_explicit(N, 2) == F(-2, (2 * N + 1) * (2 * N + 2))

    def test_classical_four(self):
        assert hg_euler_explicit(0, 4) == 24 * (F(1, 4) - F(1, 24)) == 5

    def test_worked_value(self):
        assert hg_euler_explicit(3, 4) == F(17, 5880)

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameter):
            hg_euler_explicit(1, 5)

    def test_cap(self):
        with pytest.raises(InvalidParameter, match="composition-route cap 30"):
            hg_euler_explicit(0, 32)
        assert hg_euler_explicit(0, 30) == hg_euler_det(0, 30)


class TestBinomial:
    def test_worked_examples(self):
        assert hg_euler_binomial(0, 4) == 5
        assert hg_euler_binomial(1, 4) == F(1, 10)
        assert hg_euler_binomial(2, 4) == F(13, 1050)
        assert hg_euler_binomial(3, 4) == F(17, 5880)

    def test_odd_rejected(self):
        with pytest.raises(InvalidParameter):
            hg_euler_binomial(0, 3)

    def test_weak_sum_matches_enumeration(self):
        # the convolution shortcut equals the literal sum over weak compositions
        weights = [F(2) / factorial(2 + 2 * j) for j in range(6)]
        for half in range(6):
            for k in range(1, 7):
                direct = F(0)
                for parts in compositions(half, 0, k):
                    term = F(1)
                    for p in parts:
                        term *= weights[p]
                    direct += term
                assert _power_chain(weights, half, k)[k][half] == direct


class TestDeterminantRoute:
    def test_one_by_one(self):
        for N in range(6):
            assert hg_euler_det(N, 2) == -2 * factorial(2 * N) / factorial(2 * N + 2)

    def test_classical_six(self):
        assert hg_euler_det(0, 6) == -61

    def test_table_value(self):
        assert hg_euler_det(4, 6) == F(53, 2027025)


class TestTrudiRoute:
    def test_classical_four(self):
        assert hg_euler_trudi(0, 4) == 5

    def test_table_value(self):
        assert hg_euler_trudi(1, 6) == F(-5, 42)

    def test_single_partition(self):
        for N in range(6):
            assert hg_euler_trudi(N, 2) == -2 * factorial(2 * N) / factorial(2 * N + 2)


class TestComplementaryRoutes:
    def test_det_base(self):
        assert comp_hg_euler_det(0, 2) == F(-1, 3)

    def test_trudi_classical_four(self):
        assert comp_hg_euler_trudi(0, 4) == 24 * (F(1, 36) - F(1, 120)) == F(7, 15)

    def test_explicit_base(self):
        for N in range(8):
            assert comp_hg_euler_explicit(N, 2) == F(-2, (2 * N + 2) * (2 * N + 3))

    def test_all_four_match_recurrence(self):
        for N in range(4):
            t = comp_hg_euler_recurrence(N, 12)
            for n in range(2, 13, 2):
                assert comp_hg_euler_explicit(N, n) == t[n]
                assert comp_hg_euler_binomial(N, n) == t[n]
                assert comp_hg_euler_det(N, n) == t[n]
                assert comp_hg_euler_trudi(N, n) == t[n]


class TestBernoulliCauchyDets:
    def test_bernoulli_two(self):
        assert bernoulli_det(2) == F(1, 6)

    def test_cauchy_two(self):
        assert cauchy_det(2) == F(-1, 6)

    def test_hg_specialization(self):
        for n in range(1, 11):
            assert hg_bernoulli_det(1, n) == bernoulli_det(n)
            assert hg_cauchy_det(1, n) == cauchy_det(n)

    def test_match_tables(self):
        for N in range(1, 5):
            b = hg_bernoulli(N, 12)
            c = hg_cauchy(N, 12)
            for n in range(1, 13):
                assert hg_bernoulli_det(N, n) == b[n]
                assert hg_cauchy_det(N, n) == c[n]

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            hg_bernoulli_det(0, 2)
        with pytest.raises(InvalidParameter):
            hg_cauchy_det(1, 0)


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
            t = hg_euler_recurrence(N, 12)
            for n in range(2, 13, 2):
                assert hg_euler_explicit(N, n) == t[n]
                assert hg_euler_binomial(N, n) == t[n]
                assert hg_euler_det(N, n) == t[n]
                assert hg_euler_trudi(N, n) == t[n]


class TestNumbersDeterminantInverse:
    def test_main_family(self):
        # Hessenberg determinant built from the numbers gives back the weights
        from hgnum.linalg import hessenberg_det_prefixes

        for N in range(4):
            t = hg_euler_recurrence(N, 30)
            col = [t[2 * k] / factorial(2 * k) for k in range(1, 16)]
            dets = hessenberg_det_prefixes(col)
            for m in range(1, 16):
                expected = F((-1) ** m) * factorial(2 * N) / factorial(2 * N + 2 * m)
                assert dets[m] == expected

    def test_complementary_family(self):
        from hgnum.linalg import hessenberg_det_prefixes

        for N in range(4):
            t = comp_hg_euler_recurrence(N, 30)
            col = [t[2 * k] / factorial(2 * k) for k in range(1, 16)]
            dets = hessenberg_det_prefixes(col)
            for m in range(1, 16):
                expected = F((-1) ** m) * factorial(2 * N + 1) / factorial(2 * N + 2 * m + 1)
                assert dets[m] == expected
