"""An integer-only oracle from outside the package: Brent and Harvey's
tangent and secant number algorithms ("Fast computation of Bernoulli, tangent
and secant numbers", 2011, arXiv:1108.0286, Algorithms TangentNumbers and
SecantNumbers).  They fill one list of ints in place, with no division and no
rational arithmetic, so they share nothing with the recurrences, series and
determinants of hgnum.  The module imports no third-party package and never
skips.
"""

import pytest

from hgnum.families import FamilyId, FamilyKind, table, via_series
from hgnum.identities import y2_column

from helpers import to_fractions


def tangent_numbers(n):
    """T_1..T_n, with tan x = sum T_k x^(2k-1)/(2k-1)!: 1, 2, 16, 272, ..."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def secant_numbers(n):
    """S_0..S_n, with sec x = sum S_k x^(2k)/(2k)!: 1, 1, 5, 61, ..."""
    s = [1] + [0] * n
    for k in range(1, n + 1):
        s[k] = k * s[k - 1]
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            s[j] = (j - k) * s[j - 1] + (j - k + 1) * s[j]
    return s


def test_the_algorithms_give_the_known_first_values():
    assert tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]
    assert secant_numbers(6) == [1, 1, 5, 61, 1385, 50521, 2702765]


@pytest.mark.parametrize("route", [table, via_series], ids=["recurrence", "series"])
def test_euler_numbers_are_signed_secant_numbers(route):
    # E_{0,2n} = (-1)^n S_n for 2n <= 60; the odd entries are zero
    values = route(FamilyId(FamilyKind.HG_EULER, 0), 60).values
    for n, s in enumerate(secant_numbers(30)):
        assert values[2 * n] == (-1) ** n * s, n
    assert not any(values[1::2])


def test_pair_sums_are_signed_tangent_numbers():
    # y2(0, n) = (-1)^n T_{n+1} for n <= 30
    column = to_fractions(y2_column(0, 30))
    tangents = tangent_numbers(31)
    for n, t in enumerate(tangents):
        assert column[n] == (-1) ** n * t, n
