"""``check_series_identities``: the derivative identities and the
cosh-expansion checks, which take f^{(i)}/i! from the divided-power
derivative, and the reciprocal identities in 1/F and 1/F*, which it reads off
the hg-euler(N) and comp-hg-euler(N-1) tables; all of them on integer columns,
against an oracle in ``Fraction`` series arithmetic."""

from fractions import Fraction as F

import pytest

from hgnum import identities
from hgnum.families import FamilyKind, NumberTable
from hgnum.identities import check_series_identities
from hgnum.series import gen_ratio, reciprocal

from helpers import from_egf, series_identities_oracle, to_fractions


@pytest.mark.parametrize("N", range(1, 7))
def test_same_reports_as_the_series_oracle(N):
    for M in range(45):
        assert check_series_identities(N, M) == series_identities_oracle(N, M), M


def nudged(series, m, delta):
    cs = list(series)
    cs[m] += delta
    return tuple(cs)


def bend(monkeypatch, bent_w, m, delta):
    """Make ``identities.gen_ratio`` return F_{bent_w} with t^m moved by delta."""
    real = identities.gen_ratio
    monkeypatch.setattr(
        identities, "gen_ratio",
        lambda w, stride, order: nudged(real(w, stride, order), m, delta)
        if w == bent_w else real(w, stride, order),
    )


def test_a_bent_ladder_series_fails_its_ladder_step(monkeypatch):
    # F_2 at t^4 is 2!/6! = 1/360 and F_1 there is 1/120; the rung k = 1 and
    # the scaled derivative (F_4 and F_3) do not read F_2
    bend(monkeypatch, 2, 4, F(1, 7))
    report = check_series_identities(2, 12)
    assert not report.passed
    assert report.first_failure.indices == ("ladder(k=2)", 4)
    assert report.first_failure.lhs == 6 * (F(1, 360) + F(1, 7))
    assert report.first_failure.rhs == 2 * F(1, 120)


def test_a_bent_starred_series_fails_the_scaled_derivative(monkeypatch):
    # N = 2: F at t^6 is 4!/10! = 1/151200 and F* = F_3 is 3!/9! = 1/60480
    bend(monkeypatch, 3, 6, F(1, 11))
    report = check_series_identities(2, 12)
    assert not report.passed
    assert report.first_failure.indices == ("scaled-derivative", 6)
    assert report.first_failure.lhs == 10 * F(1, 151200)
    assert report.first_failure.rhs == 4 * (F(1, 60480) + F(1, 11))


def test_passes_when_the_order_is_below_the_ladder():
    # k runs up to 2N, past the truncation order M
    for N, M in ((1, 0), (1, 1), (2, 2), (3, 4)):
        report = check_series_identities(N, M)
        assert report.passed, (N, M, report)


def test_cosh_expansion_still_compares(monkeypatch):
    # cosh t is F_0, which the rung k = 1 reads before any expansion does;
    # the expansions k >= 1 compare against the bent cosh too
    bend(monkeypatch, 0, 4, F(1, 7))
    report = check_series_identities(2, 12)
    assert report.first_failure.indices == ("ladder(k=1)", 4)
    expansions = [
        w for w in identities._series_failures(2, 12)
        if w is not None and w.indices[0].startswith("cosh-expansion")
    ]
    assert expansions[0].indices == ("cosh-expansion(k=1)", 4)
    assert expansions[0].rhs == gen_ratio(0, 2, 12)[4] + F(1, 7)


@pytest.mark.parametrize("k", range(1, 5))
def test_each_rung_and_expansion_reads_its_series(monkeypatch, k):
    # N = 2: the rungs and the expansions run k = 1..4; F_k bent at t^4
    # fails the k-th of each, whichever check reports first
    bend(monkeypatch, k, 4, F(1, 7))
    indices = {w.indices for w in identities._series_failures(2, 12) if w is not None}
    assert {(f"ladder(k={k})", 4), (f"cosh-expansion(k={k})", 4)} <= indices


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("past", [0, 2])
def test_each_expansion_stops_at_the_order_of_its_derivatives(monkeypatch, k, past):
    # N = 2, M = 12: the k-th expansion reads F_k to t^(M-k), the order of its
    # k-th divided-power derivative; F_k bent at the last even power there
    # fails it, and bent at the next even power does not
    m = (12 - k) // 2 * 2 + past
    bend(monkeypatch, k, m, F(1, 7))
    indices = {w.indices for w in identities._series_failures(2, 12) if w is not None}
    assert ((f"cosh-expansion(k={k})", m) in indices) == (past == 0)


@pytest.mark.parametrize("N", range(1, 7))
def test_table_reciprocals_equal_series_reciprocals(N):
    for M in range(41):
        inv_f = from_egf(to_fractions(identities._ladder(2 * N, M)))
        inv_fstar = from_egf(to_fractions(identities._ladder(2 * N - 1, M)))
        assert inv_f.coeffs == reciprocal(gen_ratio(2 * N, 2, M))
        assert inv_fstar.coeffs == reciprocal(gen_ratio(2 * N - 1, 2, M))


def test_a_doctored_table_fails_the_reciprocal_checks(monkeypatch):
    real = identities.table

    def doctored(family, nmax):
        tab = real(family, nmax)
        if family.kind is not FamilyKind.HG_EULER:
            return tab
        values = list(tab.values)
        values[6] += F(1, 17)
        return NumberTable(tab.family, tuple(values))

    monkeypatch.setattr(identities, "table", doctored)
    report = check_series_identities(2, 12)
    assert not report.passed
    assert report.first_failure.indices == ("reciprocal-derivative", 5)
