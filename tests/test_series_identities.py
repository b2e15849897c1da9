"""The cosh-expansion checks of ``check_series_identities``, which take
f^{(i)}/i! from the divided-power derivative."""

from fractions import Fraction as F

from hgnum import identities
from hgnum.identities import check_series_identities
from hgnum.series import TruncatedSeries


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
