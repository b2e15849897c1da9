"""The table-route registry: every closed-form route, as a whole column,
against the recurrence/series tables and against each other."""

from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgnum.closed_forms import (
    BINOMIAL_CAP,
    COMPOSITION_CAP,
    PARTITION_CAP,
    check_cap,
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
    table_binomial,
    table_explicit,
    table_routes,
    table_trudi,
)
from hgnum.exact import InvalidParameter
from hgnum.families import FamilyId, FamilyKind, table
from helpers import EULER_KINDS

# Composition-route enumeration doubles with every second index.
ENUMERATING = ("explicit", "binomial")
ENUMERATING_NMAX = 24


def min_N(kind):
    return 0 if kind in EULER_KINDS else 1


def test_registry_covers_each_family():
    methods = {}
    for kind, method in table_routes():
        methods.setdefault(kind, []).append(method)
    for kind in EULER_KINDS:
        assert methods[kind] == ["recurrence", "series", "explicit", "binomial", "det", "trudi"]
    for kind in (FamilyKind.HG_BERNOULLI, FamilyKind.HG_CAUCHY):
        assert methods[kind] == ["recurrence", "series", "det", "trudi"]


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_every_route_equals_the_table(kind):
    for N in range(min_N(kind), 7):
        for nmax in (0, 1, 2, 3, 17, 40):
            want = list(table(FamilyId(kind, N), nmax).values)
            for (k, method), route in table_routes().items():
                if k is not kind:
                    continue
                if method in ENUMERATING and nmax > ENUMERATING_NMAX:
                    got = route(kind, N, ENUMERATING_NMAX)
                    assert got == want[: ENUMERATING_NMAX + 1], (method, N, nmax)
                else:
                    assert route(kind, N, nmax) == want, (method, N, nmax)


@st.composite
def family_requests(draw):
    kind = draw(st.sampled_from(list(FamilyKind)))
    return kind, draw(st.integers(min_N(kind), 8)), draw(st.integers(0, 30))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family_requests())
def test_routes_agree(request):
    kind, N, nmax = request
    columns = {
        method: route(kind, N, nmax)
        for (k, method), route in table_routes().items()
        if k is kind
    }
    columns["recurrence"] = list(table(FamilyId(kind, N), nmax).values)
    first = next(iter(columns.values()))
    assert len(first) == nmax + 1
    for method, column in columns.items():
        assert column == first, method


PER_INDEX_EULER = (
    hg_euler_explicit,
    hg_euler_binomial,
    hg_euler_det,
    hg_euler_trudi,
    comp_hg_euler_explicit,
    comp_hg_euler_binomial,
    comp_hg_euler_det,
    comp_hg_euler_trudi,
)


@pytest.mark.parametrize("route", PER_INDEX_EULER, ids=lambda f: f.__name__)
def test_per_index_euler_rejects_bad_indices(route):
    for n in (-2, -1, 0, 1, 3, 7):
        with pytest.raises(InvalidParameter):
            route(1, n)
    with pytest.raises(InvalidParameter):
        route(-1, 2)


@pytest.mark.parametrize("route", (hg_bernoulli_det, hg_cauchy_det), ids=lambda f: f.__name__)
def test_per_index_reciprocal_rejects_bad_indices(route):
    for N, n in ((1, 0), (1, -3), (0, 2), (-1, 2)):
        with pytest.raises(InvalidParameter):
            route(N, n)


def test_table_routes_reject_bad_arguments():
    routes = table_routes()
    with pytest.raises(InvalidParameter):
        routes[FamilyKind.HG_EULER, "det"](FamilyKind.HG_EULER, 1, -1)
    with pytest.raises(InvalidParameter):
        routes[FamilyKind.HG_CAUCHY, "det"](FamilyKind.HG_CAUCHY, 0, 4)
    with pytest.raises(InvalidParameter):
        routes[FamilyKind.HG_EULER, "binomial"](FamilyKind.HG_BERNOULLI, 1, 4)


def test_explicit_cap():
    kind = FamilyKind.HG_EULER
    with pytest.raises(InvalidParameter, match=f"cap {COMPOSITION_CAP}"):
        table_explicit(kind, 0, COMPOSITION_CAP + 1)
    assert table_explicit(kind, 0, 4) == [1, 0, -1, 0, 5]
    assert table_explicit(kind, 0, 6)[6] == F(-61)


def test_trudi_cap():
    kind = FamilyKind.COMP_HG_EULER
    with pytest.raises(InvalidParameter, match=f"cap {PARTITION_CAP}"):
        table_trudi(kind, 0, PARTITION_CAP + 1)
    with pytest.raises(InvalidParameter, match=f"cap {PARTITION_CAP}"):
        comp_hg_euler_trudi(0, PARTITION_CAP + 2)
    assert table_trudi(kind, 0, 4) == [1, 0, F(-1, 3), 0, F(7, 15)]
    assert hg_euler_trudi(0, 8) == F(1385)


def test_binomial_cap():
    views = {
        FamilyKind.HG_EULER: hg_euler_binomial,
        FamilyKind.COMP_HG_EULER: comp_hg_euler_binomial,
    }
    for kind, view in views.items():
        with pytest.raises(InvalidParameter, match=f"binomial-route cap {BINOMIAL_CAP}$"):
            table_binomial(kind, 0, BINOMIAL_CAP + 1)
        with pytest.raises(
            InvalidParameter,
            match=f"^index bound {BINOMIAL_CAP + 2} exceeds the binomial-route cap {BINOMIAL_CAP}$",
        ):
            view(0, BINOMIAL_CAP + 2)
    assert table_binomial(FamilyKind.HG_EULER, 0, 6)[6] == F(-61)


def test_check_cap_follows_the_registry():
    caps = {"explicit": COMPOSITION_CAP, "binomial": BINOMIAL_CAP, "trudi": PARTITION_CAP}
    for kind in EULER_KINDS:
        for method, cap in caps.items():
            check_cap(kind, method, cap)
            with pytest.raises(InvalidParameter, match=f"cap {cap}$"):
                check_cap(kind, method, cap + 1)
        check_cap(kind, "det", 10**6)
    # the reciprocal families' trudi is their determinant route, which has no cap
    for kind in (FamilyKind.HG_BERNOULLI, FamilyKind.HG_CAUCHY):
        for method in ("det", "trudi", "recurrence", "series"):
            check_cap(kind, method, 10**6)
