"""Non-recurrence routes to each number: composition sums, binomial-weighted
sums, Hessenberg determinants, and Trudi expansions.

Each route is a table route, ``table_<route>(kind, N, nmax)``, which returns
the whole column v_0..v_nmax in one call and shares its work between the
indices: the determinant route reads every value from one prefix-determinant
pass, the binomial route from one chain of powers.  :func:`table_routes` is
the registry of which route serves which family.

The per-index functions (``hg_euler_det(N, n)`` and the rest) take the
number's actual index n, check it, and read it off the table route.  The
composition-sum route enumerates 2^{n/2 - 1} tuples for index n and is capped
at n <= 30 by default, the Euler-type Trudi route p(n/2) partitions and is
capped at n <= 60; pass a larger ``cap`` to go beyond.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .exact import InvalidParameter, ONE, ZERO, binomial, compositions, factorial
from .linalg import hessenberg_det_prefixes, toeplitz_inverse, trudi_expand
from .families import FamilyId, FamilyKind, table

DEFAULT_COMPOSITION_CAP = 30
DEFAULT_PARTITION_CAP = 60

EULER_KINDS = (FamilyKind.HG_EULER, FamilyKind.COMP_HG_EULER)

# (kind, N, nmax) -> v_0..v_nmax
TableRoute = Callable[[FamilyKind, int, int], list[Fraction]]


def _check_nmax(nmax: int) -> None:
    if nmax < 0:
        raise InvalidParameter(f"nmax must be nonnegative, got {nmax}")


def _euler_top(kind: FamilyKind, N: int) -> int:
    """The w of the weights w!/(w+2j)! of an Euler-type family."""
    if kind not in EULER_KINDS:
        raise InvalidParameter(f"no composition routes for {kind.value}")
    FamilyId(kind, N)
    return 2 * N if kind is FamilyKind.HG_EULER else 2 * N + 1


def _euler_weights(top: int, half: int) -> list[Fraction]:
    # weight j -> top!/(top+2j)! for j = 0..half
    top_f = factorial(top)
    return [top_f / factorial(top + 2 * j) for j in range(half + 1)]


def _spread(column: list[Fraction], stride: int, nmax: int) -> list[Fraction]:
    """v_0..v_nmax from the values at multiples of ``stride``; zero elsewhere."""
    if stride == 1:
        return column
    out = [ZERO] * (nmax + 1)
    out[::stride] = column
    return out


def table_det(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """Every value from the Hessenberg determinants D_0..D_m of the family's
    weight column, all from one prefix pass.

    Euler-type: v_{2m} = (-1)^m (2m)! D_m with entries w!/(w+2j)!;
    hg-bernoulli: v_n = (-1)^n n! D_n with entries N!/(N+k)!;
    hg-cauchy: v_n = n! D_n with entries N/(N+k).
    """
    _check_nmax(nmax)
    FamilyId(kind, N)
    if kind in EULER_KINDS:
        entries = _euler_weights(_euler_top(kind, N), nmax // 2)[1:]
        sign, stride = -1, 2
    elif kind is FamilyKind.HG_BERNOULLI:
        n_f = factorial(N)
        entries = [n_f / factorial(N + k) for k in range(1, nmax + 1)]
        sign, stride = -1, 1
    else:
        entries = [Fraction(N, N + k) for k in range(1, nmax + 1)]
        sign, stride = 1, 1
    dets = hessenberg_det_prefixes(entries)
    column = [sign**m * factorial(stride * m) * d for m, d in enumerate(dets)]
    return _spread(column, stride, nmax)


def _power_chain(weights: Sequence[Fraction], half: int, kmax: int) -> list[list[Fraction]]:
    """Coefficients x^0..x^half of P^0..P^kmax, P = sum_j weights[j] x^j,
    each power from the one before."""
    poly = list(weights[: half + 1])
    powers = [[ONE] + [ZERO] * half]
    for _ in range(kmax):
        acc = powers[-1]
        powers.append([
            sum((acc[i] * poly[m - i] for i in range(m + 1)), ZERO)
            for m in range(half + 1)
        ])
    return powers


def _weak_composition_sum(weights: Sequence[Fraction], half: int, k: int) -> Fraction:
    """sum over i_1..i_k >= 0 with i_1+...+i_k = half of prod weights[i_j].

    Computed as the coefficient of x^half in (sum_j weights[j] x^j)^k; the
    tuple-by-tuple enumeration gives the same value (unit-tested) but is
    infeasible for large k.
    """
    return _power_chain(weights, half, k)[k][half]


def table_binomial(kind: FamilyKind, N: int, nmax: int) -> list[Fraction]:
    """v_n = n! sum_{k=1}^n (-1)^k C(n+1, k+1) [x^{n/2}] P^k with
    P = sum_j w_j x^j, every index read from one chain P^1..P^nmax."""
    top = _euler_top(kind, N)
    _check_nmax(nmax)
    half = nmax // 2
    powers = _power_chain(_euler_weights(top, half), half, nmax)
    column = [ONE] + [
        factorial(2 * h) * sum(
            (
                Fraction((-1) ** k) * binomial(2 * h + 1, k + 1) * powers[k][h]
                for k in range(1, 2 * h + 1)
            ),
            ZERO,
        )
        for h in range(1, half + 1)
    ]
    return _spread(column, 2, nmax)


def _composition_sum(weights: Sequence[Fraction], half: int) -> Fraction:
    """sum over compositions (p_1..p_r) of half of (-1)^r w_{p_1}...w_{p_r}.

    For each length the compositions come in lexicographic order, the order
    of a depth-first walk, so each shares a prefix with the one before.  The
    signed products of the current prefixes are kept and only those past the
    shared prefix are remade: one multiplication per step of the walk rather
    than r per composition.
    """
    neg = [-w for w in weights]
    total = ZERO
    for r in range(1, half + 1):
        prods = [ONE] * (r + 1)  # prods[i]: signed product of the first i parts
        prev = (0,) * r
        for parts in compositions(half, 1, r):
            i = 0
            while parts[i] == prev[i]:
                i += 1
            for j in range(i, r):
                prods[j + 1] = prods[j] * neg[parts[j]]
            total += prods[r]
            prev = parts
    return total


def table_explicit(
    kind: FamilyKind, N: int, nmax: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> list[Fraction]:
    """v_{2m} = (2m)! times the signed sum over the compositions of m of the
    products of the weights, each index by its own enumeration."""
    top = _euler_top(kind, N)
    _check_nmax(nmax)
    if nmax > cap:
        raise InvalidParameter(f"index bound {nmax} exceeds the composition-route cap {cap}")
    half = nmax // 2
    w = _euler_weights(top, half)
    column = [ONE] + [factorial(2 * h) * _composition_sum(w, h) for h in range(1, half + 1)]
    return _spread(column, 2, nmax)


def table_trudi(
    kind: FamilyKind, N: int, nmax: int, cap: int = DEFAULT_PARTITION_CAP
) -> list[Fraction]:
    """Each even index from its own Trudi partition expansion of the
    determinant of :func:`table_det`."""
    top = _euler_top(kind, N)
    _check_nmax(nmax)
    if nmax > cap:
        raise InvalidParameter(f"index bound {nmax} exceeds the partition-route cap {cap}")
    half = nmax // 2
    w = _euler_weights(top, half)
    # (-1)^m from the determinant prefactor folds into the Brioschi expansion
    # as the sign (-1)^{t_1+...+t_m}.
    column = [ONE] + [
        (-1) ** m * factorial(2 * m) * trudi_expand(w[1 : m + 1], 1) for m in range(1, half + 1)
    ]
    return _spread(column, 2, nmax)


def table_routes() -> dict[tuple[FamilyKind, str], TableRoute]:
    """The registry (family, method) -> table route of every closed-form
    method.

    It is built on each call from this module's current bindings, so a
    wrapper installed over a route by name (a tracer, a profiler) is the
    one returned.
    """
    euler = {
        "explicit": table_explicit,
        "binomial": table_binomial,
        "det": table_det,
        "trudi": table_trudi,
    }
    # hg-bernoulli and hg-cauchy have no Trudi route of their own: their
    # ``trudi`` is the determinant route.
    det_only = {"det": table_det, "trudi": table_det}
    return {
        (kind, method): route
        for kind in FamilyKind
        for method, route in (euler if kind in EULER_KINDS else det_only).items()
    }


def _euler_index(N: int, n: int) -> int:
    """n, once N and n are valid for a per-index Euler-type route."""
    if N < 0:
        raise InvalidParameter(f"N must be nonnegative, got {N}")
    if n < 2 or n % 2 != 0:
        raise InvalidParameter(f"index must be even and >= 2, got {n}")
    return n


def _positive_index(N: int, n: int) -> int:
    """n, once N and n are valid for a per-index Bernoulli/Cauchy route."""
    if N < 1:
        raise InvalidParameter(f"N must be positive, got {N}")
    if n < 1:
        raise InvalidParameter(f"n must be positive, got {n}")
    return n


def hg_euler_explicit(N: int, n: int, cap: int = DEFAULT_COMPOSITION_CAP) -> Fraction:
    return table_explicit(FamilyKind.HG_EULER, N, _euler_index(N, n), cap)[n]


def hg_euler_binomial(N: int, n: int) -> Fraction:
    return table_binomial(FamilyKind.HG_EULER, N, _euler_index(N, n))[n]


def hg_euler_det(N: int, n: int) -> Fraction:
    return table_det(FamilyKind.HG_EULER, N, _euler_index(N, n))[n]


def hg_euler_trudi(N: int, n: int, cap: int = DEFAULT_PARTITION_CAP) -> Fraction:
    return table_trudi(FamilyKind.HG_EULER, N, _euler_index(N, n), cap)[n]


def comp_hg_euler_explicit(N: int, n: int, cap: int = DEFAULT_COMPOSITION_CAP) -> Fraction:
    return table_explicit(FamilyKind.COMP_HG_EULER, N, _euler_index(N, n), cap)[n]


def comp_hg_euler_binomial(N: int, n: int) -> Fraction:
    return table_binomial(FamilyKind.COMP_HG_EULER, N, _euler_index(N, n))[n]


def comp_hg_euler_det(N: int, n: int) -> Fraction:
    return table_det(FamilyKind.COMP_HG_EULER, N, _euler_index(N, n))[n]


def comp_hg_euler_trudi(N: int, n: int, cap: int = DEFAULT_PARTITION_CAP) -> Fraction:
    return table_trudi(FamilyKind.COMP_HG_EULER, N, _euler_index(N, n), cap)[n]


def hg_bernoulli_det(N: int, n: int) -> Fraction:
    """(-1)^n n! times the determinant with entries N!/(N+k)!."""
    return table_det(FamilyKind.HG_BERNOULLI, N, _positive_index(N, n))[n]


def bernoulli_det(n: int) -> Fraction:
    return hg_bernoulli_det(1, n)


def hg_cauchy_det(N: int, n: int) -> Fraction:
    """n! times the determinant with entries N/(N+k)."""
    return table_det(FamilyKind.HG_CAUCHY, N, _positive_index(N, n))[n]


def cauchy_det(n: int) -> Fraction:
    return hg_cauchy_det(1, n)


def inverse_pair_check(kind: FamilyKind, N: int, n: int) -> bool:
    """The matrix-inverse pairing: applying the inversion lemma to the column
    of signed numbers (-1)^k v_{2k}/(2k)! must reproduce the factorial-ratio
    column of the defining determinant, entrywise up to index n."""
    if kind not in EULER_KINDS:
        raise InvalidParameter(f"no inverse pairing for {kind.value}")
    if n < 1:
        raise InvalidParameter(f"n must be positive, got {n}")
    tab = table(FamilyId(kind, N), 2 * n)
    signed = [
        Fraction((-1) ** k) * tab[2 * k] / factorial(2 * k) for k in range(1, n + 1)
    ]
    expected = _euler_weights(_euler_top(kind, N), n)[1:]
    return list(toeplitz_inverse(signed)) == expected
