"""The table-route registry: every closed-form route, as a whole column,
against the recurrence/series tables and against each other; and the
per-index entry point :func:`~hgnum.closed_forms.value` over it."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgnum import cli
from hgnum.closed_forms import (
    BINOMIAL_CAP,
    COMPOSITION_CAP,
    PARTITION_CAP,
    admit,
    table_binomial,
    table_explicit,
    table_routes,
    table_trudi,
    value,
)
from hgnum.exact import InvalidParameter
from hgnum.families import MAX_N, SPECS, FamilyId, FamilyKind, table
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
        value(kind, "trudi", 0, PARTITION_CAP + 2)
    assert table_trudi(kind, 0, 4) == [1, 0, F(-1, 3), 0, F(7, 15)]
    assert value(FamilyKind.HG_EULER, "trudi", 0, 8) == F(1385)


def test_trudi_expansion_refuses_the_reciprocal_families():
    # admit takes their trudi, which the det route serves, so the expansion
    # route refuses them itself, at any bound (p(100) partitions at n = 100)
    for kind in (FamilyKind.HG_BERNOULLI, FamilyKind.HG_CAUCHY):
        least = SPECS[kind].least_N
        for nmax in (12, 100):
            with pytest.raises(InvalidParameter, match=f"^{kind.value} has no trudi expansion$"):
                table_trudi(kind, least, nmax)
        assert refusal(table_trudi, kind, least - 1, 4) == refusal(admit, kind, "trudi", least - 1, 4)


def test_binomial_cap():
    for kind in EULER_KINDS:
        with pytest.raises(InvalidParameter, match=f"binomial-route cap {BINOMIAL_CAP}$"):
            table_binomial(kind, 0, BINOMIAL_CAP + 1)
        with pytest.raises(
            InvalidParameter,
            match=f"^index bound {BINOMIAL_CAP + 2} exceeds the binomial-route cap {BINOMIAL_CAP}$",
        ):
            value(kind, "binomial", 0, BINOMIAL_CAP + 2)
    assert table_binomial(FamilyKind.HG_EULER, 0, 6)[6] == F(-61)


CAPS = {"explicit": COMPOSITION_CAP, "binomial": BINOMIAL_CAP, "trudi": PARTITION_CAP}


def refusal_cases():
    """(kind, method, N, nmax) for every refusal of :func:`admit`: a method
    the registry does not list for the family, N one below the family's least
    N and one above MAX_N, and nmax one past each cap."""
    routes = table_routes()
    for kind in FamilyKind:
        least = SPECS[kind].least_N
        for method in cli._METHODS + ("nosuch",):
            if (kind, method) not in routes:
                yield kind, method, least, 4
                continue
            yield kind, method, least - 1, 4
            yield kind, method, MAX_N + 1, 4
            if kind in EULER_KINDS and method in CAPS:
                yield kind, method, least, CAPS[method] + 1


def refusal(call, *args):
    with pytest.raises(InvalidParameter) as exc:
        call(*args)
    return str(exc.value)


@pytest.mark.parametrize(
    "kind, method, N, nmax",
    list(refusal_cases()),
    ids=lambda arg: getattr(arg, "value", str(arg)),
)
def test_every_refusal_has_one_message(capsys, kind, method, N, nmax):
    """admit, the route serving the pair, value and ``hgnum compute`` refuse
    each request with admit's message."""
    message = refusal(admit, kind, method, N, nmax)
    route = table_routes().get((kind, method))
    if route is not None:
        assert refusal(route, kind, N, nmax) == message
    # value takes the least valid index at or past nmax
    stride = SPECS[kind].stride
    n = -(-nmax // stride) * stride
    assert refusal(value, kind, method, N, n) == refusal(admit, kind, method, N, n)
    if method in cli._METHODS:
        argv = ["compute", "--family", kind.value, "--N", str(N), "--max-n", str(nmax),
                "--method", method]
        assert cli.main(argv) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_admit_up_to_each_cap():
    # det, recurrence, series and the reciprocal families' trudi (their
    # determinant route) have no cap
    for (kind, method) in table_routes():
        least = SPECS[kind].least_N
        bound = CAPS[method] if kind in EULER_KINDS and method in CAPS else 10**6
        assert admit(kind, method, least, bound) == FamilyId(kind, least)
        assert admit(kind, method, MAX_N, bound) == FamilyId(kind, MAX_N)


# A value index small enough for every route, the enumerating ones included.
VALUE_NMAX = 20


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_value_reads_every_route(kind):
    stride = SPECS[kind].stride
    for N in range(min_N(kind), 7):
        for (k, method), route in table_routes().items():
            if k is not kind:
                continue
            column = route(kind, N, VALUE_NMAX)
            for n in range(stride, VALUE_NMAX + 1, stride):
                assert value(kind, method, N, n) == column[n], (method, N, n)


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_value_refusals(kind):
    stride = SPECS[kind].stride
    N = min_N(kind)

    def refused(method, n, message, at_N=N):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            value(kind, method, at_N, n)

    for method in (m for k, m in table_routes() if k is kind):
        for n in (-3, -2, -1, 0, 1, 3, 7):
            if n < 1 or n % stride:
                refused(method, n, f"index must be a positive multiple of {stride}, got {n}")
        for bad_N in {N - 1, -1}:
            refused(method, stride, f"{kind.value} needs N >= {N}, got {bad_N}", at_N=bad_N)
    if kind in EULER_KINDS:
        terms = {"explicit": "composition", "binomial": "binomial", "trudi": "partition"}
        for method, cap in CAPS.items():
            refused(method, cap + 1, f"index must be a positive multiple of 2, got {cap + 1}")
            refused(
                method,
                cap + 2,
                f"index bound {cap + 2} exceeds the {terms[method]}-route cap {cap}",
            )
        # the cap itself is allowed (the binomial one takes seconds)
        for method in ("explicit", "trudi"):
            cap = CAPS[method]
            assert value(kind, method, N, cap) == table(FamilyId(kind, N), cap)[cap]
    else:
        for method in ("explicit", "binomial"):
            refused(method, 2, f"method {method} is not defined for {kind.value}")
    refused("nosuch", stride, f"method nosuch is not defined for {kind.value}")
