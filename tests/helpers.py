"""Helpers and oracles that only the tests use: the package has no caller for
any of them.  Among them are the ``Fraction`` loops that the integer number
recurrence and the Newton reciprocal replaced, kept as their references; the
``Fraction`` series arithmetic (``TruncatedSeries``, with its products and the
paper's Hasse-Teichmuller derivative, and ``derivative``, ``times_t``,
``scale``, ``from_egf``) that the acceptance criteria and the oracles of the
integer-column identity checkers use; and two checks of the paper's results
that no CLI command runs: its printed closed forms of E_{N,k} and Ehat_{N,k}
for k = 2, 4, 6, 8 (``closed_small``, criterion 2) and the matrix-inverse
pairing of each family's numbers with its weights (``inverse_pair_check``,
criterion 9)."""

import math
from dataclasses import dataclass
from fractions import Fraction as F
from operator import mul

from hgnum import identities
from hgnum.exact import InvalidParameter, compositions, factorial
from hgnum.families import SPECS, FamilyId, FamilyKind, table
from hgnum.identities import FailureWitness, IdentityReport
from hgnum.linalg import hessenberg_det_prefixes
from hgnum.series import gen_ratio, reciprocal

EULER_KINDS = tuple(kind for kind in FamilyKind if SPECS[kind].stride == 2)


def _over_lcm(coeffs):
    """The numerators of ``coeffs`` over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def to_fractions(column):
    """The values of a column (nums, den) as Fractions, each reduced on its own."""
    nums, den = column
    return [F(c, den) for c in nums]


@dataclass(frozen=True)
class TruncatedSeries:
    """A series known exactly to t^order, as the tuple of its coefficients.
    Arithmetic truncates to the smaller order; products are the Cauchy sums
    term by term, and the reciprocal is the package's Newton reciprocal."""

    coeffs: tuple

    @property
    def order(self):
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order):
        return TruncatedSeries((F(0),) * (order + 1))

    def __getitem__(self, k):
        return self.coeffs[k]

    def __add__(self, other):
        return TruncatedSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return TruncatedSeries(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        # the Cauchy sums on int numerators, each factor over its lcm, with
        # no product of the package's, which the checkers' oracles test
        (a, a_den), (b, b_den) = _over_lcm(self.coeffs), _over_lcm(other.coeffs)
        sums = (sum(map(mul, a[: n + 1], b[n::-1])) for n in range(min(len(a), len(b))))
        return TruncatedSeries(tuple(F(c, a_den * b_den) if c else F(0) for c in sums))

    def reciprocal(self):
        return TruncatedSeries(reciprocal(self.coeffs))

    def hasse_teichmuller(self, n):
        """Divided-power derivative: c_m t^m maps to c_m C(m,n) t^{m-n}."""
        if n < 0:
            raise InvalidParameter(f"derivative order must be nonnegative, got {n}")
        if n > self.order:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            tuple(self.coeffs[m] * math.comb(m, n) for m in range(n, self.order + 1))
        )

    def egf_values(self):
        """The numbers n! * c_n: the sequence this series is an EGF of."""
        return tuple(factorial(n) * c for n, c in enumerate(self.coeffs))


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
        yield from compositions(total, length)


def weak_compositions(total, length):
    """Tuples of ``length`` nonnegative integers summing to ``total``, in
    lexicographic order: the compositions of total + length into ``length``
    positive parts, each part less one."""
    for parts in compositions(total + length, length):
        yield tuple(p - 1 for p in parts)


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


def even_convolution_recurrence(w, nmax):
    """The Euler types' numbers in ``Fraction`` arithmetic, v_0 = 1 and
    v_n = -n! w! sum_{i<n/2} v_{2i} / ((w+n-2i)! (2i)!) for even n: the
    reference for the integer binomial recurrence (w = 2N or 2N+1)."""
    w_f = factorial(w)
    values = [F(1)]
    for n in range(1, nmax + 1):
        if n % 2 == 1:
            values.append(F(0))
            continue
        acc = sum(
            (values[2 * i] / (factorial(w + n - 2 * i) * factorial(2 * i)) for i in range(n // 2)),
            F(0),
        )
        values.append(-factorial(n) * w_f * acc)
    return tuple(values)


def forward_reciprocal(coeffs):
    """The reciprocal of the series with coefficients ``coeffs``, as a tuple,
    by the forward recurrence r_0 = 1/c_0, r_n = -(1/c_0) sum_{k=1}^n c_k r_{n-k},
    in ``Fraction`` arithmetic: the reference for the Newton reciprocal."""
    inv0 = 1 / coeffs[0]
    r = [inv0]
    for n in range(1, len(coeffs)):
        r.append(-inv0 * sum((coeffs[k] * r[n - k] for k in range(1, n + 1)), F(0)))
    return tuple(r)


def scale(series, r):
    """r times the series."""
    r = F(r)
    return TruncatedSeries(tuple(r * c for c in series.coeffs))


def derivative(series):
    """d/dt; the order drops by one (a constant differentiates to the zero series)."""
    if series.order == 0:
        return TruncatedSeries.zero(0)
    return TruncatedSeries(tuple((k + 1) * series[k + 1] for k in range(series.order)))


def times_t(series):
    """t times the series, at the same truncation order."""
    return TruncatedSeries((F(0),) + series.coeffs[:-1])


def from_egf(values):
    """The series sum v_n t^n / n! whose EGF values are ``values``."""
    return TruncatedSeries(tuple(F(v) / math.factorial(n) for n, v in enumerate(values)))


def monomial(k, order):
    """t^k as a series truncated at ``order``."""
    return TruncatedSeries(tuple(F(int(i == k)) for i in range(order + 1)))


def is_zero(series):
    return all(c == 0 for c in series.coeffs)


def series_identities_oracle(N, M):
    """``check_series_identities`` on ``TruncatedSeries`` arithmetic: every
    identity as two whole series, compared coefficient by coefficient in the
    same order, with the divided-power derivative summed term by term."""
    def ladder(k):
        return TruncatedSeries(gen_ratio(k, 2, M))

    f, fstar = ladder(2 * N), ladder(2 * N - 1)
    inv_f = from_egf(table(FamilyId(FamilyKind.HG_EULER, N), M).values)
    inv_fstar = from_egf(table(FamilyId(FamilyKind.COMP_HG_EULER, N - 1), M).values)
    checks = [
        ("scaled-derivative", scale(f, 2 * N) + times_t(derivative(f)), scale(fstar, 2 * N), M - 1)
    ]
    for k in range(1, 2 * N + 1):
        fk = ladder(k)
        lhs = scale(fk, k) + times_t(derivative(fk))
        checks.append((f"ladder(k={k})", lhs, scale(ladder(k - 1), k), M - 1))
    cosh = ladder(0)
    for k in range(1, 2 * N + 1):
        fk = ladder(k)
        acc = TruncatedSeries.zero(M - k if M >= k else 0)
        for i in range(k + 1):
            term = scale(fk.hasse_teichmuller(i), math.comb(k, i))
            for _ in range(i):
                term = times_t(term)
            acc = acc + term
        checks.append((f"cosh-expansion(k={k})", acc, cosh, M - k))
    checks.append(("reciprocal-derivative", derivative(f), -(f * f * derivative(inv_f)), M - 1))
    rhs = inv_fstar * (inv_f - scale(times_t(derivative(inv_f)), F(1, 2 * N)))
    checks.append(("inv-square", inv_f * inv_f, rhs, M - 1))
    inv_f2 = inv_f * inv_f
    rhs3 = inv_fstar * (inv_f2 - scale(times_t(derivative(inv_f2)), F(1, 4 * N)))
    checks.append(("inv-cube", inv_f * inv_f2, rhs3, M - 1))

    witness = None
    for label, lhs, rhs, upto in checks:
        for k in range(min(lhs.order, rhs.order, upto) + 1):
            if lhs[k] != rhs[k]:
                witness = FailureWitness((label, k), lhs[k], rhs[k])
                break
        if witness is not None:
            break
    return IdentityReport(f"series-identities(N={N})", f"order {M}", witness)


def sumprod_oracle(N, nmax, trinomial):
    """The first failure of ``check_sumprod_pair(N, nmax)`` (or, with
    ``trinomial``, of ``check_sumprod_trinomial``), or None: both sides of each
    n summed term by term in ``Fraction`` arithmetic, from the tables that
    ``identities.table`` serves, so a table doctored there reaches it too."""
    x = identities.table(FamilyId(FamilyKind.HG_EULER, N), nmax)
    y = identities.table(FamilyId(FamilyKind.COMP_HG_EULER, N - 1), nmax)
    w, fact = 2 * N, math.factorial
    for n in range(nmax + 1):
        if trinomial:
            lhs = sum(
                F(fact(n), fact(i) * fact(j) * fact(n - i - j)) * x[i] * x[j] * x[n - i - j]
                for i in range(n + 1) for j in range(n - i + 1)
            )
            rhs = sum(
                math.comb(n, m) * math.comb(m, k) * F((2 * w - m) * (w - k), 2 * w * w)
                * x[k] * y[n - m] * y[m - k]
                for m in range(n + 1) for k in range(m + 1)
            )
        else:
            lhs = sum(math.comb(n, i) * x[i] * x[n - i] for i in range(n + 1))
            rhs = sum(math.comb(n, k) * F(w - k, w) * x[k] * y[n - k] for k in range(n + 1))
        if lhs != rhs:
            return FailureWitness((n,), lhs, rhs)
    return None


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


def closed_small(kind, N, k):
    """The printed closed-form polynomials in N for indices 2, 4, 6, 8."""
    if k not in (2, 4, 6, 8):
        raise InvalidParameter(f"closed forms exist only for k in 2,4,6,8, got {k}")
    n = F(N)
    if kind is FamilyKind.HG_EULER:
        if N < 0:
            raise InvalidParameter(f"N must be nonnegative, got {N}")
        if k == 2:
            return -2 / ((2 * n + 1) * (2 * n + 2))
        if k == 4:
            return (
                2 * factorial(4) * (4 * n + 5)
                / ((2 * n + 1) ** 2 * (2 * n + 2) ** 2 * (2 * n + 3) * (2 * n + 4))
            )
        if k == 6:
            return (
                4 * factorial(6) * (8 * n**3 - 2 * n**2 - 65 * n - 61)
                / (
                    (2 * n + 1) ** 3 * (2 * n + 2) ** 3
                    * (2 * n + 3) * (2 * n + 4) * (2 * n + 5) * (2 * n + 6)
                )
            )
        return (
            16 * factorial(8)
            * (16 * n**6 - 44 * n**5 - 516 * n**4 - 667 * n**3 + 1283 * n**2 + 3126 * n + 1662)
            / (
                (2 * n + 1) ** 4 * (2 * n + 2) ** 4 * (2 * n + 3) ** 2 * (2 * n + 4) ** 2
                * (2 * n + 6) * (2 * n + 7) * (2 * n + 8)
            )
        )
    if kind is FamilyKind.COMP_HG_EULER:
        if N < 0:
            raise InvalidParameter(f"N must be nonnegative, got {N}")
        if k == 2:
            return -2 / ((2 * n + 2) * (2 * n + 3))
        if k == 4:
            return (
                2 * factorial(4) * (4 * n + 7)
                / ((2 * n + 2) ** 2 * (2 * n + 3) ** 2 * (2 * n + 4) * (2 * n + 5))
            )
        if k == 6:
            return (
                4 * factorial(6) * (8 * n**3 + 10 * n**2 - 61 * n - 93)
                / (
                    (2 * n + 2) ** 3 * (2 * n + 3) ** 3
                    * (2 * n + 4) * (2 * n + 5) * (2 * n + 6) * (2 * n + 7)
                )
            )
        return (
            8 * factorial(8)
            * (32 * n**6 + 8 * n**5 - 1132 * n**4 - 3538 * n**3 - 1063 * n**2 + 7280 * n + 6858)
            / (
                (2 * n + 2) ** 4 * (2 * n + 3) ** 4 * (2 * n + 4) ** 2 * (2 * n + 5) ** 2
                * (2 * n + 7) * (2 * n + 8) * (2 * n + 9)
            )
        )
    raise InvalidParameter(f"no small closed forms for {kind.value}")


def inverse_pair_check(kind, N, n):
    """The matrix-inverse pairing: applying the inversion lemma to the column
    of signed numbers (-1)^k v_{sk}/(sk)! must reproduce the family's weights
    a_1..a_n entrywise, at stride 2 and at stride 1 alike.

    The lemma pairs a column alpha_1..alpha_n with R(1)..R(n), defined by the
    alternating relation

        sum_{k=0}^n (-1)^{n-k} alpha_k R(n-k) = 0   (n >= 1),

    with alpha_0 = R(0) = 1, which makes R(n) the Hessenberg determinant of
    alpha_1..alpha_n.  The pairing is an involution, and the matrix with
    column (-1)^k alpha_k has inverse with column (-1)^k R(k).
    """
    family = FamilyId(kind, N)
    if n < 1:
        raise InvalidParameter(f"n must be positive, got {n}")
    s = family.spec.stride
    tab = table(family, s * n)
    signed = [(-1) ** k * tab[s * k] / factorial(s * k) for k in range(1, n + 1)]
    return hessenberg_det_prefixes(signed)[1:] == family.weights(s * n)[1:]
