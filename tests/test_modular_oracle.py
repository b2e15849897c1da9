"""A modular oracle for every family, at sizes no other test reaches.

Each family is v_n = n! [t^n] 1/F(t) with F = sum_j a_j t^{sj}.  Modulo the
prime p = 2^61 - 1 the weights a_j come straight from their definitions,
each from the one before, and the reciprocal is the recurrence
r_0 = 1, r_m = -sum_{k=1}^m a_k r_{m-k} on residues: small-int arithmetic,
with no code shared with the package (``helpers.numbers_mod_p``).  Every denominator here divides a
product of integers below 2N + n + 2, far below p, so every exact value has a
residue.  Each ``compute`` method's exact table is reduced mod p and compared
with the oracle: the determinant route at N = 10000, the recurrence and
series routes of every family at N = 10000 to n = 200 (and the Euler types'
determinant route there too), the recurrence and determinant routes of
comp-hg-euler N = 3 to n = 300, the recurrence and series routes of
hg-bernoulli N = 7 and hg-cauchy N = 5 to n = 200, the composition and Trudi
expansions at their caps, and the Euler types' binomial route at N = 10000 to
n = 60.  These are the sizes where the integer kernels' common denominators
and rescaling do the most work.
"""

from collections import OrderedDict
from fractions import Fraction as F

import pytest

from hgnum import families
from hgnum.closed_forms import table_routes
from hgnum.families import FamilyKind

from helpers import numbers_mod_p, residue


@pytest.mark.parametrize(
    "family, N, want",
    [
        ("hg-euler", 0, [1, 0, -1, 0, 5, 0, -61, 0, 1385]),  # Euler numbers
        ("comp-hg-euler", 0, [1, 0, F(-1, 3), 0, F(7, 15)]),
        ("hg-bernoulli", 1, [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]),  # B_n
        ("hg-cauchy", 1, [1, F(1, 2), F(-1, 6), F(1, 4), F(-19, 30)]),  # n! [t^n] t/log(1+t)
    ],
)
def test_oracle_gives_the_classical_numbers(family, N, want):
    assert numbers_mod_p(family, N, len(want) - 1) == [residue(F(v)) for v in want]


@pytest.mark.parametrize(
    "family, N, method, nmax",
    [
        ("hg-euler", 10000, "recurrence", 200),
        ("hg-euler", 10000, "series", 200),
        ("hg-euler", 10000, "det", 200),
        ("comp-hg-euler", 10000, "recurrence", 200),
        ("comp-hg-euler", 10000, "series", 200),
        ("comp-hg-euler", 10000, "det", 200),
        ("hg-bernoulli", 10000, "recurrence", 200),
        ("hg-bernoulli", 10000, "series", 200),
        ("hg-bernoulli", 10000, "det", 30),
        ("hg-cauchy", 10000, "recurrence", 200),
        ("hg-cauchy", 10000, "series", 200),
        ("hg-cauchy", 10000, "det", 150),
        ("comp-hg-euler", 3, "recurrence", 300),
        ("comp-hg-euler", 3, "det", 300),
        ("hg-bernoulli", 7, "recurrence", 200),
        ("hg-bernoulli", 7, "series", 200),
        ("hg-cauchy", 5, "recurrence", 200),
        ("hg-cauchy", 5, "series", 200),
        ("hg-euler", 20, "explicit", 30),  # the composition cap
        ("comp-hg-euler", 3, "trudi", 60),  # the partition cap
        # the binomial cap, 200, takes about 3 s; 80 is past every other test
        ("hg-euler", 1, "binomial", 80),
        # the one-lcm sum of the binomial route where the denominators are largest
        ("hg-euler", 10000, "binomial", 60),
        ("comp-hg-euler", 10000, "binomial", 60),
    ],
)
def test_every_method_agrees_mod_p(monkeypatch, family, N, method, nmax):
    # the recurrence route builds its table here, not in an earlier test
    monkeypatch.setattr(families, "_memo", OrderedDict())
    kind = FamilyKind(family)
    got = table_routes()[kind, method](kind, N, nmax)
    assert [residue(v) for v in got] == numbers_mod_p(family, N, nmax)
