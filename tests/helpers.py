"""Helpers and oracles that only the tests use: the package has no caller for
any of them."""

import math
from fractions import Fraction as F

from hgnum.exact import compositions
from hgnum.families import (
    SPECS,
    FamilyKind,
    comp_hg_euler_recurrence,
    hg_euler_recurrence,
)
from hgnum.identities import FailureWitness, IdentityReport
from hgnum.series import TruncatedSeries, gen_cosh, gen_f, gen_fk, gen_fstar

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


def series_identities_oracle(N, M):
    """``check_series_identities`` on ``TruncatedSeries`` arithmetic: every
    identity as two whole series, compared coefficient by coefficient in the
    same order, with the divided-power derivative summed term by term."""
    f = gen_f(N, M)
    fstar = gen_fstar(N, M)
    inv_f = TruncatedSeries.from_egf(hg_euler_recurrence(N, M).values)
    inv_fstar = TruncatedSeries.from_egf(comp_hg_euler_recurrence(N - 1, M).values)
    checks = [
        ("scaled-derivative", f.scale(2 * N) + f.derivative().times_t(), fstar.scale(2 * N), M - 1)
    ]
    for k in range(1, 2 * N + 1):
        fk = gen_fk(k, M)
        lhs = fk.scale(k) + fk.derivative().times_t()
        checks.append((f"ladder(k={k})", lhs, gen_fk(k - 1, M).scale(k), M - 1))
    cosh = gen_cosh(M)
    for k in range(0, 2 * N + 1):
        fk = gen_fk(k, M)
        acc = TruncatedSeries.zero(M - k if M >= k else 0)
        for i in range(k + 1):
            term = fk.hasse_teichmuller(i).scale(math.comb(k, i))
            for _ in range(i):
                term = term.times_t()
            acc = acc + term
        checks.append((f"cosh-expansion(k={k})", acc, cosh, M - k))
    checks.append(("reciprocal-derivative", f.derivative(), -(f * f * inv_f.derivative()), M - 1))
    rhs = inv_fstar * (inv_f - inv_f.derivative().times_t().scale(F(1, 2 * N)))
    checks.append(("inv-square", inv_f * inv_f, rhs, M - 1))
    inv_f2 = inv_f * inv_f
    rhs3 = inv_fstar * (inv_f2 - inv_f2.derivative().times_t().scale(F(1, 4 * N)))
    checks.append(("inv-cube", inv_f * inv_f2, rhs3, M - 1))

    witness = None
    for label, lhs, rhs, upto in checks:
        for k in range(min(lhs.order, rhs.order, upto) + 1):
            if lhs[k] != rhs[k]:
                witness = FailureWitness((label, k), lhs[k], rhs[k])
                break
        if witness is not None:
            break
    return IdentityReport(f"series-identities(N={N})", f"order {M}", witness is None, witness)


# The modular oracle: each family's numbers modulo the prime P, from the
# definitions of its weights, on small ints and with no code of the package
# (tests/test_modular_oracle.py says why every exact value has a residue).
P = 2**61 - 1
STRIDE = {"hg-euler": 2, "comp-hg-euler": 2, "hg-bernoulli": 1, "hg-cauchy": 1}


def inverse(x):
    return pow(x, P - 2, P)


def weights_mod_p(family, N, m):
    """a_0..a_m mod p: (2N)!/(2N+2j)! for hg-euler, (2N+1)!/(2N+2j+1)! for
    comp-hg-euler, N!/(N+j)! for hg-bernoulli, (-1)^j N/(N+j) for hg-cauchy."""
    a = [1]
    for j in range(1, m + 1):
        if family == "hg-cauchy":
            a.append((-1) ** j * N * inverse(N + j) % P)
        elif family == "hg-bernoulli":
            a.append(a[-1] * inverse(N + j) % P)
        else:
            w = 2 * N + (family == "comp-hg-euler")
            a.append(a[-1] * inverse((w + 2 * j - 1) * (w + 2 * j)) % P)
    return a


def numbers_mod_p(family, N, nmax):
    """v_0..v_nmax mod p."""
    s = STRIDE[family]
    a = weights_mod_p(family, N, nmax // s)
    r = [1]
    for m in range(1, len(a)):
        r.append(-sum(a[k] * r[m - k] for k in range(1, m + 1)) % P)
    out, fact = [], 1
    for n in range(nmax + 1):
        fact = fact * max(n, 1) % P
        out.append(fact * r[n // s] % P if n % s == 0 else 0)
    return out


def residue(v):
    assert v.denominator % P
    return v.numerator * inverse(v.denominator) % P
