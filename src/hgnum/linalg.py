"""Toeplitz lower-Hessenberg determinants, their partition expansion, and the
inversion pairing of unit lower-triangular Toeplitz matrices.

The matrix of :func:`hessenberg_det` is determined by its first column
a_1..a_m: entry (i, j) is a_{i-j+1} for i >= j, 1 on the superdiagonal, 0
above.  Its determinant satisfies the alternating recurrence

    D_0 = 1,   D_m = sum_{k=1}^m (-1)^{k-1} a_k D_{m-k},

which is O(m^2) rational operations.  The dense fraction-free oracle lives in
the test suite, not here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import InvalidParameter, ONE, multinomial, partition_multiplicities


def hessenberg_det(entries: Sequence[Fraction]) -> Fraction:
    """Determinant of the m x m Toeplitz lower-Hessenberg matrix with first
    column ``entries``."""
    if not entries:
        raise InvalidParameter("hessenberg_det needs at least one entry")
    return hessenberg_det_prefixes(entries)[-1]


def hessenberg_det_prefixes(entries: Sequence[Fraction]) -> list[Fraction]:
    """D_0..D_m for every leading principal size at once."""
    # signed[k] = (-1)^k a_{k+1}
    signed = [-a if k % 2 else a for k, a in enumerate(entries)]
    d = [ONE]
    for m in range(1, len(entries) + 1):
        d.append(sum((signed[k] * d[m - 1 - k] for k in range(m)), Fraction(0)))
    return d


def trudi_expand(entries: Sequence[Fraction], a0: Fraction | int = 1) -> Fraction:
    """Partition expansion of the same determinant shape:

    sum over t_1 + 2 t_2 + ... + m t_m = m of
        multinomial(t) * (-a0)^{m - sum t} * a_1^{t_1} ... a_m^{t_m}.

    With a0 = 1 this equals hessenberg_det(entries).
    """
    m = len(entries)
    if m < 1:
        raise InvalidParameter("trudi_expand needs at least one entry")
    a0 = Fraction(a0)
    total = Fraction(0)
    for ts in partition_multiplicities(m):
        term = multinomial(ts) * (-a0) ** (m - sum(ts))
        for k, t in enumerate(ts, start=1):
            if t:
                term *= entries[k - 1] ** t
        total += term
    return total


def dense_hessenberg(entries: Sequence[Fraction]) -> list[list[Fraction]]:
    """The densified matrix, mainly for oracles and inverse checks."""
    m = len(entries)
    mat = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            mat[i][j] = entries[i - j]
        if i + 1 < m:
            mat[i][i + 1] = ONE
    return mat


def toeplitz_inverse(column: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The paired column R(1)..R(n) of the inversion lemma.

    R is defined by the alternating relation

        sum_{k=0}^n (-1)^{n-k} alpha_k R(n-k) = 0   (n >= 1),

    with alpha_0 = R(0) = 1, which makes R(n) the Hessenberg determinant of
    alpha_1..alpha_n.  The pairing is an involution, and the matrix with
    column (-1)^k alpha_k has inverse with column (-1)^k R(k).
    """
    return tuple(hessenberg_det_prefixes(column)[1:])
