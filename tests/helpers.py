"""Helpers and oracles that only the tests use: the package has no caller for
any of them."""

from fractions import Fraction as F

from hgnum.exact import compositions
from hgnum.families import SPECS, FamilyKind
from hgnum.series import TruncatedSeries

EULER_KINDS = tuple(kind for kind in FamilyKind if SPECS[kind].stride == 2)


def rising_factorial(x, n):
    """x(x+1)...(x+n-1), with the empty product equal to 1."""
    out = F(1)
    for i in range(n):
        out *= x + i
    return out


def all_compositions(total):
    """The compositions of ``total`` into positive parts, every length from 1
    to ``total``, shortest first."""
    for length in range(1, total + 1):
        yield from compositions(total, 1, length)


def recursive_partition_multiplicities(m):
    """The multiplicity vectors of the partitions of m, t_1 descending first,
    by depth-first recursion: the reference for the iterative enumerator."""
    ts = [0] * m

    # ts[k-1:] is all zero whenever rec(k, rem) is entered, so the vector is
    # complete as soon as rem reaches 0.
    def rec(k, rem):
        if rem == 0:
            yield tuple(ts)
            return
        if k > rem:
            return
        for t in range(rem // k, -1, -1):
            ts[k - 1] = t
            yield from rec(k + 1, rem - k * t)

    yield from rec(1, m)


def dense_hessenberg(entries):
    """The m x m Toeplitz lower-Hessenberg matrix with first column
    ``entries``: a_{i-j+1} on and below the diagonal, 1 on the superdiagonal."""
    m = len(entries)
    mat = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            mat[i][j] = entries[i - j]
        if i + 1 < m:
            mat[i][i + 1] = F(1)
    return mat


def monomial(k, order):
    """t^k as a series truncated at ``order``."""
    return TruncatedSeries(tuple(F(int(i == k)) for i in range(order + 1)))


def is_zero(series):
    return all(c == 0 for c in series.coeffs)
