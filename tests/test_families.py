from fractions import Fraction as F

import pytest

from hgnum.exact import InvalidParameter, factorial
from hgnum.families import FamilyId, FamilyKind, table, via_series
from hgnum.goldens import TABLE1

from helpers import closed_small

EULER = FamilyKind.HG_EULER
COMP = FamilyKind.COMP_HG_EULER
BERNOULLI = FamilyKind.HG_BERNOULLI
CAUCHY = FamilyKind.HG_CAUCHY


class TestEulerRecurrence:
    def test_classical_row(self):
        assert list(table(FamilyId(EULER, 0), 6).values) == [1, 0, -1, 0, 5, 0, -61]

    def test_row_two(self):
        t = table(FamilyId(EULER, 2), 4)
        assert t[2] == F(-1, 15) and t[4] == F(13, 1050)

    def test_row_six_tail(self):
        assert table(FamilyId(EULER, 6), 14)[14] == F(837165624457, 24588998210747661600)

    def test_golden_table(self):
        for N in range(7):
            t = table(FamilyId(EULER, N), 14)
            for n in range(0, 15, 2):
                assert t[n] == TABLE1[(N, n)]


class TestComplementaryRecurrence:
    def test_classical_start(self):
        assert list(table(FamilyId(COMP, 0), 4).values) == [1, 0, F(-1, 3), 0, F(7, 15)]

    def test_n1_second_value(self):
        assert table(FamilyId(COMP, 1), 2)[2] == F(-1, 10)

    def test_trivial_prefix(self):
        for N in range(5):
            assert table(FamilyId(COMP, N), 0)[0] == 1


class TestBernoulliCauchy:
    def test_classical_bernoulli(self):
        b = table(FamilyId(BERNOULLI, 1), 4)
        assert list(b.values) == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]

    def test_classical_cauchy(self):
        assert list(table(FamilyId(CAUCHY, 1), 2).values) == [1, F(1, 2), F(-1, 6)]

    def test_constant_term(self):
        for N in range(1, 6):
            assert table(FamilyId(BERNOULLI, N), 0)[0] == 1
            assert table(FamilyId(CAUCHY, N), 0)[0] == 1

    def test_invalid_N(self):
        for kind in (BERNOULLI, CAUCHY):
            with pytest.raises(InvalidParameter):
                FamilyId(kind, 0)


class TestSeriesRoute:
    def test_table_row_one(self):
        t = via_series(FamilyId(FamilyKind.HG_EULER, 1), 14)
        assert t[12] == F(7601, 2730) and t[14] == F(-91, 6)

    def test_table_row_five(self):
        assert via_series(FamilyId(FamilyKind.HG_EULER, 5), 10)[10] == F(-475767, 492312292472)

    def test_equals_recurrence_every_family(self):
        for N in range(9):
            fam = FamilyId(FamilyKind.HG_EULER, N)
            assert via_series(fam, 40).values == table(fam, 40).values
            fam = FamilyId(FamilyKind.COMP_HG_EULER, N)
            assert via_series(fam, 40).values == table(fam, 40).values
        for N in range(1, 9):
            fam = FamilyId(FamilyKind.HG_BERNOULLI, N)
            assert via_series(fam, 40).values == table(fam, 40).values
            fam = FamilyId(FamilyKind.HG_CAUCHY, N)
            assert via_series(fam, 40).values == table(fam, 40).values


class TestInvariants:
    def test_residual_convolution_vanishes(self):
        # the defining convolution must sum to zero at every even index
        for N in range(9):
            t = table(FamilyId(EULER, N), 40)
            for n in range(2, 41, 2):
                acc = sum(
                    t[2 * i] / (factorial(2 * N + n - 2 * i) * factorial(2 * i))
                    for i in range(n // 2 + 1)
                )
                assert acc == 0, (N, n)

    def test_odd_indices_vanish(self):
        for N in range(7):
            e = table(FamilyId(EULER, N), 25)
            ehat = table(FamilyId(COMP, N), 25)
            for n in range(1, 26, 2):
                assert e[n] == 0 and ehat[n] == 0


class TestClosedSmall:
    def test_examples(self):
        assert closed_small(FamilyKind.HG_EULER, 5, 2) == F(-1, 66)
        assert closed_small(FamilyKind.HG_EULER, 1, 4) == F(1, 10)
        assert closed_small(FamilyKind.COMP_HG_EULER, 0, 4) == F(7, 15)

    def test_grid_matches_tables(self):
        for N in range(21):
            e = table(FamilyId(EULER, N), 8)
            ehat = table(FamilyId(COMP, N), 8)
            for k in (2, 4, 6, 8):
                assert closed_small(FamilyKind.HG_EULER, N, k) == e[k], (N, k)
                assert closed_small(FamilyKind.COMP_HG_EULER, N, k) == ehat[k], (N, k)

    def test_bad_index(self):
        with pytest.raises(InvalidParameter):
            closed_small(FamilyKind.HG_EULER, 1, 3)
        with pytest.raises(InvalidParameter):
            closed_small(FamilyKind.HG_BERNOULLI, 1, 2)
