"""``check_series_identities``: the cosh-expansion checks, which take
f^{(i)}/i! from the divided-power derivative, and 1/F and 1/F*, which it
reads off the hg-euler(N) and comp-hg-euler(N-1) tables."""

from fractions import Fraction as F

import pytest

from hgnum import identities
from hgnum.families import NumberTable
from hgnum.identities import check_series_identities
from hgnum.series import TruncatedSeries, gen_f, gen_fstar


def test_passes_when_the_order_is_below_the_ladder():
    # k runs up to 2N, past the truncation order M
    for N, M in ((1, 0), (1, 1), (2, 2), (3, 4)):
        report = check_series_identities(N, M)
        assert report.passed, (N, M, report)


def test_cosh_expansion_still_compares(monkeypatch):
    real = identities.gen_cosh

    def bent(order):
        cs = list(real(order).coeffs)
        cs[4] += F(1, 7)
        return TruncatedSeries(tuple(cs))

    monkeypatch.setattr(identities, "gen_cosh", bent)
    report = check_series_identities(2, 12)
    assert not report.passed
    assert report.first_failure.indices == ("cosh-expansion(k=0)", 4)
    assert report.first_failure.rhs == real(12)[4] + F(1, 7)


@pytest.mark.parametrize("N", range(1, 7))
def test_table_reciprocals_equal_series_reciprocals(N):
    for M in range(41):
        inv_f = TruncatedSeries.from_egf(identities.hg_euler_recurrence(N, M).values)
        inv_fstar = TruncatedSeries.from_egf(identities.comp_hg_euler_recurrence(N - 1, M).values)
        assert inv_f == gen_f(N, M).reciprocal()
        assert inv_fstar == gen_fstar(N, M).reciprocal()


def test_a_doctored_table_fails_the_reciprocal_checks(monkeypatch):
    real = identities.hg_euler_recurrence

    def doctored(N, nmax):
        tab = real(N, nmax)
        values = list(tab.values)
        values[6] += F(1, 17)
        return NumberTable(tab.family, tuple(values))

    monkeypatch.setattr(identities, "hg_euler_recurrence", doctored)
    report = check_series_identities(2, 12)
    assert not report.passed
    assert report.first_failure.indices == ("reciprocal-derivative", 5)
