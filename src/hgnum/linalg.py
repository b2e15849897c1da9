"""Toeplitz lower-Hessenberg determinants and their partition expansion.

The m x m Toeplitz lower-Hessenberg matrix is determined by its first column
a_1..a_m: entry (i, j) is a_{i-j+1} for i >= j, 1 on the superdiagonal, 0
above.  Its determinant satisfies the alternating recurrence

    D_0 = 1,   D_m = sum_{k=1}^m (-1)^{k-1} a_k D_{m-k},

which is O(m^2) rational operations.  Both kernels take the column as integer
numerators over one common denominator (:func:`~hgnum.exact.numerators`) and
add plain ints: each step of the recurrence builds one ``Fraction``, and the
expansion one in all, with each partition's multinomial read off one table of
factorials.  The dense fraction-free oracle lives in the test suite, not
here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

from .exact import InvalidParameter, numerators, over_running_lcm, partition_multiplicities


def hessenberg_det_prefixes(entries: Sequence[Fraction]) -> list[Fraction]:
    """Determinants D_0..D_m of every leading principal block of the
    Toeplitz lower-Hessenberg matrix with first column ``entries``.

    With a_k = x_k / A over the common denominator A, and L the lcm of the
    denominators of D_0..D_{m-1}, step m is the dot product of the ints
    (-1)^k x_{k+1} with L D_{m-1-k}, over A L; :func:`~hgnum.exact.over_running_lcm`
    keeps the ints L D_j.
    """
    nums, den = numerators(entries)
    signed = [-x if k % 2 else x for k, x in enumerate(nums)]
    return list(over_running_lcm(
        len(signed), lambda m, scaled: (sum(map(mul, signed[:m], scaled[::-1])), den)))


def trudi_expand(entries: Sequence[Fraction]) -> Fraction:
    """Partition expansion of the same determinant:

    sum over t_1 + 2 t_2 + ... + m t_m = m of
        multinomial(t) * (-1)^{m - sum t} * a_1^{t_1} ... a_m^{t_m}.

    With a_k = x_k / A, the integer sums S_r of multinomial(t) x_1^{t_1} ...
    x_m^{t_m} over the partitions with r = sum t parts give the value
    sum_r (-1)^{m-r} S_r / A^r, one Fraction in all.  One pass over each
    partition's multiplicities gives r, prod t_k! and the product of powers,
    and the multinomial r! / prod t_k! comes from a table of 0!..m!.  It
    equals hessenberg_det_prefixes(entries)[-1].
    """
    m = len(entries)
    if m < 1:
        raise InvalidParameter("trudi_expand needs at least one entry")
    nums, den = numerators(entries)
    fact = list(accumulate(range(1, m + 1), mul, initial=1))
    by_parts = [0] * (m + 1)
    for ts in partition_multiplicities(m):
        r, ways, term = 0, 1, 1
        for x, t in zip(nums, ts):
            if t:
                r += t
                ways *= fact[t]
                term *= x**t
        by_parts[r] += term * (fact[r] // ways)
    # (-1)^{m-r} / A^r = (-A)^{m-r} / A^m
    total = sum(s * (-den) ** (m - r) for r, s in enumerate(by_parts) if s)
    return Fraction(total, den**m)
