"""Every route of the ``compute`` command: the number-recurrence and
series-reciprocal tables of :mod:`~hgnum.families`, composition sums,
binomial-weighted sums, Hessenberg determinants, and Trudi expansions.

Each route is a table route, ``table_<route>(kind, N, nmax)``, which returns
the whole column v_0..v_nmax in one call and shares its work between the
indices: the determinant route reads every value from one prefix-determinant
pass, the binomial route from one chain of powers.  Every closed-form route
is one formula c_0..c_m in the family's weights a_0..a_m and stride s, both
read off its :class:`~hgnum.families.FamilySpec`, on one frame that admits
the request, reads the weights and returns v_{sm} = (sm)! c_m, zero off the
stride.  :func:`table_routes` is the registry of which route serves which
method of which family.  Only the Euler types have the composition, binomial
and Trudi expansions; for hg-bernoulli and hg-cauchy the det route serves
both ``det`` and ``trudi``, and ``--method all`` runs each route once.

Every closed-form kernel runs on plain ints: each takes the weights as
integer numerators over their common denominator
(:func:`~hgnum.exact.numerators`) and builds a ``Fraction`` once per
determinant, once per composition sum, once per Trudi expansion and once per
index of the binomial route, whose chain of powers stays in integer columns.

:func:`admit` is the one admission check, made before any route runs: the
method must be in the registry for the family, N in the family's range and
the index bound within the cap of the route serving the method.  The
composition-sum route enumerates 2^{n/2 - 1} tuples for index n and is capped
at n <= 30, the Trudi route p(n/2) partitions and is capped at n <= 60 (it
refuses hg-bernoulli and hg-cauchy, whose ``trudi`` the det route serves),
and the binomial route, a chain of n powers of a polynomial of degree n/2,
is capped at n <= 200.  :func:`value` is the one per-index entry point: it
checks the index n, admits the request and reads v_n off the route's table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .exact import (
    InvalidParameter, ONE, ZERO, compositions, convolve, factorial, numerators)
from .linalg import hessenberg_det_prefixes, trudi_expand
from .families import SPECS, FamilyId, FamilyKind, table, via_series

COMPOSITION_CAP = 30
BINOMIAL_CAP = 200
PARTITION_CAP = 60

# The families with the composition, binomial and Trudi expansions (the
# paper's Euler-type results).
_EULER_TYPES = (FamilyKind.HG_EULER, FamilyKind.COMP_HG_EULER)

# expansion method -> (what it enumerates, the largest index it serves)
_CAPS = {
    "explicit": ("composition", COMPOSITION_CAP),
    "binomial": ("binomial", BINOMIAL_CAP),
    "trudi": ("partition", PARTITION_CAP),
}

# (kind, N, nmax) -> v_0..v_nmax
TableRoute = Callable[[FamilyKind, int, int], list[Fraction]]


def _route(kind: FamilyKind, method: str, N: int, nmax: int,
           formula: Callable[[Sequence[Fraction], int], list[Fraction]]) -> list[Fraction]:
    """v_0..v_nmax once :func:`admit` takes the request: v_{sm} = (sm)! c_m
    for c_0..c_M = formula(a_0..a_M, s) on the family's weights and stride,
    and 0 off the stride."""
    family = admit(kind, method, N, nmax)
    if method == "trudi" and kind not in _EULER_TYPES:  # admit takes it: det serves their trudi
        raise InvalidParameter(f"{kind.value} has no trudi expansion")
    s = family.spec.stride
    out = [ZERO] * (nmax + 1)
    out[::s] = [factorial(s * m) * c for m, c in enumerate(formula(family.weights(nmax), s))]
    return out


def _alternate(values: Sequence[Fraction]) -> list[Fraction]:
    """(-1)^m x_m for each x_m of x_0, x_1, ..."""
    return [-x if m % 2 else x for m, x in enumerate(values)]


def table_det(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """Every value from the Hessenberg determinants D_0..D_m of the family's
    weights, all from one prefix pass: v_{sm} = (-1)^m (sm)! D_m(a_1..a_m)."""
    return _route(kind, "det", N, nmax, lambda w, s: _alternate(hessenberg_det_prefixes(w[1:])))


def _power_chain(weights: Sequence[Fraction], kmax: int) -> list[tuple[list[int], int]]:
    """Coefficients x^0..x^half of P^0..P^kmax, P = sum_j weights[j] x^j and
    half = len(weights) - 1, each power from the one before, as a column
    reduced by convolve's gcd (unreduced, the denominators multiply up)."""
    half = len(weights) - 1
    poly, power = numerators(weights), ([1] + [0] * half, 1)
    powers = [power]
    for _ in range(kmax):
        power = convolve(power, poly, half)
        powers.append(power)
    return powers


def table_binomial(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """v_n = n! sum_{k=0}^n (-1)^k C(n+1, k+1) [x^{n/s}] P^k with
    P = sum_j a_j x^j (the term k = 0 is [n = 0]), every index read from one
    chain P^0..P^n.  Each index's sum is one integer sum over L, the lcm of
    the denominators of P^0..P^n, and one Fraction."""
    def sums(w: Sequence[Fraction], s: int) -> list[Fraction]:
        powers = _power_chain(w, s * (len(w) - 1))
        lcms = list(accumulate((den for _, den in powers), math.lcm))
        out = []
        for m in range(len(w)):
            n, total = s * m, 0
            for k in range(n + 1):
                nums, den = powers[k]
                term = math.comb(n + 1, k + 1) * nums[m] * (lcms[n] // den)
                total += -term if k % 2 else term
            out.append(Fraction(total, lcms[n]))
        return out
    return _route(kind, "binomial", N, nmax, sums)


def _composition_sum(weights: Sequence[Fraction], half: int) -> Fraction:
    """sum over compositions (p_1..p_r) of half of (-1)^r w_{p_1}...w_{p_r}.

    With w_p = x_p / A over the common denominator A of w_1..w_half, the sum
    for each length r is an integer sum of products x_{p_1}...x_{p_r} over
    A^r; the lengths are put over A^half and the value is one Fraction.  For
    each length the compositions come in lexicographic order, the order of a
    depth-first walk, so each shares a prefix with the one before.  The
    products of the current prefixes are kept and only those past the shared
    prefix are remade: one multiplication per step of the walk rather than r
    per composition.
    """
    nums, den = numerators(weights[1 : half + 1])
    nums.insert(0, 0)  # nums[p] belongs to w_p
    total = 0
    for r in range(1, half + 1):
        prods = [1] * (r + 1)  # prods[i]: product of the first i parts
        prev = (0,) * r
        acc = 0
        for parts in compositions(half, r):
            i = 0
            while parts[i] == prev[i]:
                i += 1
            for j in range(i, r):
                prods[j + 1] = prods[j] * nums[parts[j]]
            acc += prods[r]
            prev = parts
        total += (-acc if r % 2 else acc) * den ** (half - r)
    return Fraction(total, den**half)


def table_explicit(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """v_{sm} = (sm)! times the signed sum over the compositions of m of the
    products of the weights, each index by its own enumeration."""
    return _route(kind, "explicit", N, nmax,
                  lambda w, s: [ONE] + [_composition_sum(w, m) for m in range(1, len(w))])


def table_trudi(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """Each index from its own Trudi partition expansion of the determinant
    of :func:`table_det`."""
    # (-1)^m from the determinant prefactor folds into the Brioschi expansion
    # as the sign (-1)^{t_1+...+t_m}.
    return _route(kind, "trudi", N, nmax, lambda w, s: _alternate(
        [ONE] + [trudi_expand(w[1 : m + 1]) for m in range(1, len(w))]))


def _table_recurrence(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    return list(table(FamilyId(kind, N), nmax).values)


def _table_series(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    return list(via_series(FamilyId(kind, N), nmax).values)


def table_routes() -> dict[tuple[FamilyKind, str], TableRoute]:
    """The registry (family, method) -> table route of every ``compute``
    method, each family's methods in the order ``--method all`` runs them.

    It is built on each call from this module's current bindings, so a
    wrapper installed over a route by name (a tracer, a profiler) is the
    one returned.
    """
    euler = dict(recurrence=_table_recurrence, series=_table_series, explicit=table_explicit,
                 binomial=table_binomial, det=table_det, trudi=table_trudi)
    # hg-bernoulli and hg-cauchy have no Trudi expansion here: det serves their trudi.
    stride1 = dict(recurrence=_table_recurrence, series=_table_series, det=table_det,
                   trudi=table_det)
    return {
        (kind, method): route
        for kind in FamilyKind
        for method, route in (euler if kind in _EULER_TYPES else stride1).items()
    }


# The registry's pairs, fixed whatever wraps its routes.
_PAIRS = frozenset(table_routes())


def admit(kind: FamilyKind, method: str, N: int, nmax: int) -> FamilyId:
    """The family (kind, N), once ``compute`` may run ``method`` on it up to
    index nmax.  It refuses, in this order, a method the registry does not
    list for the family, an N outside the family's range, and an nmax past
    the cap of the route serving (kind, method)."""
    if (kind, method) not in _PAIRS:
        raise InvalidParameter(f"method {method} is not defined for {kind.value}")
    family = FamilyId(kind, N)
    if kind in _EULER_TYPES and method in _CAPS:
        terms, cap = _CAPS[method]
        if nmax > cap:
            raise InvalidParameter(f"index bound {nmax} exceeds the {terms}-route cap {cap}")
    return family


def value(kind: FamilyKind, method: str, N: int, n: int) -> Fraction:
    """v_n of the family (kind, N) by ``method``, read off its table route in
    :func:`table_routes`, once n is a positive multiple of the stride and
    :func:`admit` takes the request."""
    stride = SPECS[kind].stride
    if n < 1 or n % stride:
        raise InvalidParameter(f"index must be a positive multiple of {stride}, got {n}")
    admit(kind, method, N, n)
    return table_routes()[kind, method](kind, N, n)[n]


# The determinant of each family by name, as bench/make_reference.py reads it.
def hg_euler_det(N: int, n: int) -> Fraction:
    return value(FamilyKind.HG_EULER, "det", N, n)


def comp_hg_euler_det(N: int, n: int) -> Fraction:
    return value(FamilyKind.COMP_HG_EULER, "det", N, n)


def hg_bernoulli_det(N: int, n: int) -> Fraction:
    """(-1)^n n! times the determinant with entries N!/(N+k)!."""
    return value(FamilyKind.HG_BERNOULLI, "det", N, n)


def hg_cauchy_det(N: int, n: int) -> Fraction:
    """(-1)^n n! times the determinant with entries (-1)^k N/(N+k)."""
    return value(FamilyKind.HG_CAUCHY, "det", N, n)
