"""The family spec table: each family's least N, stride and weight column,
read through FamilyId, and the nmax and index checks every route shares."""

from fractions import Fraction as F
from math import factorial

import pytest

from hgnum import cli
from hgnum.closed_forms import table_routes
from hgnum.exact import InvalidParameter
from hgnum.families import (
    MAX_N,
    SPECS,
    FamilyId,
    FamilyKind,
    table,
    via_series,
)

LEAST_N = {
    FamilyKind.HG_EULER: 0,
    FamilyKind.COMP_HG_EULER: 0,
    FamilyKind.HG_BERNOULLI: 1,
    FamilyKind.HG_CAUCHY: 1,
}
STRIDE = {
    FamilyKind.HG_EULER: 2,
    FamilyKind.COMP_HG_EULER: 2,
    FamilyKind.HG_BERNOULLI: 1,
    FamilyKind.HG_CAUCHY: 1,
}


def paper_weight(kind, N, k):
    """a_k of the family's denominator, written out from the paper."""
    if kind is FamilyKind.HG_EULER:
        return F(factorial(2 * N), factorial(2 * N + 2 * k))
    if kind is FamilyKind.COMP_HG_EULER:
        return F(factorial(2 * N + 1), factorial(2 * N + 2 * k + 1))
    if kind is FamilyKind.HG_BERNOULLI:
        return F(factorial(N), factorial(N + k))
    return F((-1) ** k * N, N + k)


KINDS = pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)


@KINDS
def test_spec_least_N_and_stride(kind):
    assert SPECS[kind].least_N == LEAST_N[kind]
    assert SPECS[kind].stride == STRIDE[kind]
    FamilyId(kind, LEAST_N[kind])
    with pytest.raises(InvalidParameter, match=f"needs N >= {LEAST_N[kind]}"):
        FamilyId(kind, LEAST_N[kind] - 1)


@KINDS
def test_N_above_the_bound_is_refused(kind):
    assert MAX_N == 10_000  # the bound the README and the CLI state
    FamilyId(kind, MAX_N)
    with pytest.raises(InvalidParameter, match=f"needs N <= {MAX_N}, got {MAX_N + 1}$"):
        FamilyId(kind, MAX_N + 1)


@KINDS
def test_weights_are_the_paper_column(kind):
    for N in range(LEAST_N[kind], 5):
        for nmax in (0, 1, 2, 7, 12):
            got = FamilyId(kind, N).weights(nmax)
            assert got == [paper_weight(kind, N, k) for k in range(nmax // STRIDE[kind] + 1)]


@KINDS
def test_negative_nmax_is_refused_on_both_routes(kind):
    family = FamilyId(kind, LEAST_N[kind])
    for route in (table, via_series):
        with pytest.raises(InvalidParameter, match="nmax must be nonnegative, got -5"):
            route(family, -5)
        assert route(family, 0).values == (1,)
    with pytest.raises(InvalidParameter, match="nmax must be nonnegative, got -1"):
        family.weights(-1)
    for (k, method), route in table_routes().items():
        if k is kind:
            with pytest.raises(InvalidParameter, match="nmax must be nonnegative"):
                route(kind, LEAST_N[kind], -2)


@KINDS
def test_negative_nmax_is_refused_with_the_family_memoised(kind):
    """A negative nmax is refused before the memo is read; otherwise
    values[: nmax + 1] would hand back a short table without a word."""
    family = FamilyId(kind, LEAST_N[kind] + 1)
    assert len(table(family, 12).values) == 13
    for nmax in (-1, -5):
        with pytest.raises(InvalidParameter, match=f"nmax must be nonnegative, got {nmax}$"):
            table(family, nmax)


def test_cli_methods_come_from_the_registry():
    assert cli._METHODS == tuple(dict.fromkeys(method for _, method in table_routes()))
    assert cli._METHODS == ("recurrence", "series", "explicit", "binomial", "det", "trudi")
