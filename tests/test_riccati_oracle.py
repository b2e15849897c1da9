"""A sums-of-products oracle for hg-bernoulli and hg-cauchy, from the
differential equations of their denominators.

Both stride-1 denominators satisfy first-order linear ODEs:
t F' = N + (t - N) F for 1F1(1; N+1; t), and (1 + t)(t F' + N F) = N for
2F1(1, N; N+1; -t).  So V = 1/F satisfies a Riccati equation, which in the
numbers v_n = n! [t^n] V(t), with S_n = sum_{k=1}^{n-1} C(n, k) v_k v_{n-k}, is

    hg-bernoulli:  (N + n) v_n = -n v_{n-1} - N S_n,
    hg-cauchy:     (N + n) v_n = n (N - n + 1) v_{n-1} - N S_n.

This is the device behind the paper's sums-of-products results (for
hg-bernoulli, cf. Kamano, "Sums of products of hypergeometric Bernoulli
numbers", J. Number Theory 130 (2010)).  The recurrence here runs on plain
Fractions and uses no package code: no weight a_j, no common denominator and
no running lcm.  So it checks the ``recurrence`` and ``det`` routes, which
share their prefix kernel ``exact.over_running_lcm``, without sharing that
kernel's bookkeeping or the package's weights.
"""

from collections import OrderedDict
from fractions import Fraction as F
from functools import lru_cache
from math import comb

import pytest

from hgnum import families
from hgnum.closed_forms import table_routes
from hgnum.families import FamilyKind

# family -> the coefficient of v_{n-1} in (N + n) v_n, as a function of (N, n)
LINEAR = {
    "hg-bernoulli": lambda N, n: -n,
    "hg-cauchy": lambda N, n: n * (N - n + 1),
}


@lru_cache(maxsize=None)
def riccati(family, N, nmax):
    """v_0..v_nmax from the Riccati recurrence."""
    v = [F(1)]
    for n in range(1, nmax + 1):
        s = sum(comb(n, k) * v[k] * v[n - k] for k in range(1, n))
        v.append((LINEAR[family](N, n) * v[n - 1] - N * s) / (N + n))
    return tuple(v)


@pytest.mark.parametrize(
    "family, want",
    [
        ("hg-bernoulli", [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]),  # B_n
        ("hg-cauchy", [1, F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)]),  # n! [t^n] t/log(1+t)
    ],
)
def test_riccati_gives_the_classical_numbers_at_N_1(family, want):
    assert list(riccati(family, 1, len(want) - 1)) == want


@pytest.mark.parametrize("method", ["recurrence", "series", "det"])
@pytest.mark.parametrize("N, nmax", [(1, 60), (2, 60), (3, 60), (24, 60), (10000, 40)])
@pytest.mark.parametrize("family", list(LINEAR))
def test_route_matches_the_riccati_recurrence(monkeypatch, family, N, nmax, method):
    # the recurrence route builds its table here, not in an earlier test
    monkeypatch.setattr(families, "_memo", OrderedDict())
    kind = FamilyKind(family)
    assert tuple(table_routes()[kind, method](kind, N, nmax)) == riccati(family, N, nmax)
