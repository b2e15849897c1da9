"""Number tables for the four families, by integer recurrence and by series reciprocal.

Each family is one :class:`FamilySpec` in :data:`SPECS`: v_n = n! [t^n] 1/F(t)
for one hypergeometric denominator F, the tuple of its coefficients
a_0 = 1, a_1, ..., which sit at the multiples of a stride (2 for the Euler
types, 1 otherwise).  Its ``recurrence`` reads F(t) V(t) = 1 in the numbers,
on ints over a running lcm (:func:`~hgnum.exact.over_running_lcm`, which the
determinant route shares); :func:`via_series` takes the Newton reciprocal of F
(:func:`~hgnum.series.reciprocal`) and multiplies its t^n coefficient by n!.
For hg-euler, comp-hg-euler and hg-bernoulli, F is sum w!/(w+sj)! t^{sj}
(:func:`~hgnum.series.gen_ratio`), and each family names its w(N) once:
``_ratio_spec`` builds both its denominator and its recurrence from it.

Tables store the numbers themselves (with the n! factored in), not EGF
coefficients, and keep explicit zeros at odd indices for the two Euler-type
families so that binomial-convolution identities can index over every n.
:func:`table` keeps the longest table of each recently used family (a bounded
memo) and answers shorter requests with a prefix; :func:`via_series` always
computes afresh.  A table's ``column`` is its values as integer numerators over
one denominator (what the identity checkers read), made once per memo entry.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Callable, NamedTuple

from .exact import InvalidParameter, factorial, numerators, over_running_lcm
from .series import gen_hgcauchy_denom, gen_ratio, reciprocal


class FamilyKind(enum.Enum):
    HG_EULER = "hg-euler"
    COMP_HG_EULER = "comp-hg-euler"
    HG_BERNOULLI = "hg-bernoulli"
    HG_CAUCHY = "hg-cauchy"


class FamilySpec(NamedTuple):
    """``denominator(N, order)`` is F up to t^order, the tuple of its
    coefficients.  ``recurrence(N, nmax)`` is the family's table route, a
    recurrence on the numbers themselves."""

    least_N: int
    stride: int
    denominator: Callable[[int, int], tuple[Fraction, ...]]
    recurrence: Callable[[int, int], tuple[Fraction, ...]]


def _check_nmax(nmax: int) -> None:
    if nmax < 0:
        raise InvalidParameter(f"nmax must be nonnegative, got {nmax}")


# The weights hold factorials of N (of 2N for the Euler types), so the cost of
# even two numbers grows without limit in N: past 10^6 it is over a minute.
MAX_N = 10_000


class FamilyId(NamedTuple("FamilyId", [("kind", FamilyKind), ("N", int)])):
    """One family, (kind, N) with N in the family's range; equal to and
    hashed as that tuple, which keys the table memo."""

    __slots__ = ()

    def __new__(cls, kind: FamilyKind, N: int) -> FamilyId:
        least = SPECS[kind].least_N
        if N < least:
            raise InvalidParameter(f"{kind.value} needs N >= {least}, got {N}")
        if N > MAX_N:
            raise InvalidParameter(f"{kind.value} needs N <= {MAX_N}, got {N}")
        return super().__new__(cls, kind, N)

    @property
    def spec(self) -> FamilySpec:
        return SPECS[self.kind]

    def weights(self, nmax: int) -> list[Fraction]:
        """a_0..a_m with m = nmax // stride: the denominator coefficients
        that v_0..v_nmax depend on."""
        _check_nmax(nmax)
        stride = self.spec.stride
        return list(self.spec.denominator(self.N, nmax - nmax % stride)[::stride])


class NumberTable:
    """The values v_0..v_nmax of one family.  ``whole`` is the memo's table
    that this one is a prefix of, if any; two tables are equal when their
    families and values are, whatever their ``whole``."""

    def __init__(self, family: FamilyId, values: tuple[Fraction, ...],
                 whole: NumberTable | None = None) -> None:
        self.family, self.values, self.whole = family, values, whole

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberTable):
            return NotImplemented
        return (self.family, self.values) == (other.family, other.values)

    def __hash__(self) -> int:
        return hash((self.family, self.values))

    def __repr__(self) -> str:
        return f"NumberTable(family={self.family!r}, values={self.values!r})"

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    @property
    def nmax(self) -> int:
        return len(self.values) - 1

    @property
    def column(self) -> tuple[list[int], int]:
        """The values as integer numerators over one positive denominator; a
        prefix of a memo entry slices the entry's column."""
        nums, den = (self.whole or self)._column
        return nums[: len(self.values)], den

    @cached_property
    def _column(self) -> tuple[list[int], int]:
        return numerators(self.values)


def _binomial_recurrence(w: int, stride: int, nmax: int) -> tuple[Fraction, ...]:
    """sum_{k <= n, k = n mod stride} C(w+n, k) v_k = [n = 0]: F(t) V(t) = 1
    read at t^{w+n}, since t^w F(t) is w! times e^t, cosh t or sinh t less
    its Taylor polynomial below degree w.  The values off the stride are 0.
    Each sum is a dot product with the row C(w+n, 0..n), advanced by Pascal's
    rule, on the stride."""
    row = [1]
    def step(n: int, scaled: list[int]) -> tuple[int, int]:
        nonlocal row
        row = [*map(add, row, [0, *row]), row[-1] * (w + n) // n]
        if n % stride:
            return 0, 1
        return -sum(map(mul, row[::stride], scaled[::stride])), row[n]
    return over_running_lcm(nmax, step)


def _cauchy_recurrence(N: int, nmax: int) -> tuple[Fraction, ...]:
    """v_n = -N sum_{k<n} (-1)^{n-k} n!/(k! (N+n-k)) v_k, F(t) V(t) = 1 read at
    t^n, with every 1/(N+j) over D = lcm(N+1..N+n)."""
    den = 1
    def step(n: int, scaled: list[int]) -> tuple[int, int]:
        nonlocal den
        den = math.lcm(den, N + n)
        acc = 0
        for k in range(n):  # Horner in k: term k gets the factor n!/k!
            t = den // (N + n - k) * scaled[k]
            acc = (acc + (t if (n - k) % 2 else -t)) * (k + 1)
        return N * acc, den
    return over_running_lcm(nmax, step)


def _ratio_spec(least_N: int, stride: int, w: Callable[[int], int]) -> FamilySpec:
    """The family whose F is sum w!/(w+sj)! t^{sj}, w = w(N), s = stride:
    its series and its recurrence both read that one w."""
    return FamilySpec(
        least_N=least_N, stride=stride,
        denominator=lambda N, order: gen_ratio(w(N), stride, order),
        recurrence=lambda N, nmax: _binomial_recurrence(w(N), stride, nmax))


# Every callable looks its kernel up by name when called, so a patch or a
# wrapper installed on the module's name reaches it.
SPECS: dict[FamilyKind, FamilySpec] = {
    FamilyKind.HG_EULER: _ratio_spec(0, 2, lambda N: 2 * N),
    FamilyKind.COMP_HG_EULER: _ratio_spec(0, 2, lambda N: 2 * N + 1),
    FamilyKind.HG_BERNOULLI: _ratio_spec(1, 1, lambda N: N),
    FamilyKind.HG_CAUCHY: FamilySpec(
        least_N=1, stride=1, denominator=lambda N, order: gen_hgcauchy_denom(N, order),
        recurrence=lambda N, nmax: _cauchy_recurrence(N, nmax)),
}


def via_series(family: FamilyId, nmax: int) -> NumberTable:
    """Definition route: v_n = n! r_n for the reciprocal r of the denominator."""
    _check_nmax(nmax)
    r = reciprocal(family.spec.denominator(family.N, nmax))
    return NumberTable(family, tuple(factorial(n) * c for n, c in enumerate(r)))


# The longest table built so far for each of the last MEMO_FAMILIES families
# asked for, least recently used first.  The identity checkers read the same
# few families over and over at different lengths; a request no longer than
# the entry is answered with a prefix of it, and every prefix reads the
# entry's column, made on the first request for it.  The lock is there because
# ``table`` is public and may be called from several threads at once.
MEMO_FAMILIES = 32
_memo: OrderedDict[FamilyId, NumberTable] = OrderedDict()
_memo_lock = threading.Lock()


def table(family: FamilyId, nmax: int) -> NumberTable:
    """The family's number recurrence, or a prefix of the memo's entry when
    that is long enough."""
    _check_nmax(nmax)
    with _memo_lock:
        entry = _memo.get(family)
        if entry is not None and entry.nmax >= nmax:
            _memo.move_to_end(family)
            return NumberTable(family, entry.values[: nmax + 1], entry)
    built = NumberTable(family, family.spec.recurrence(family.N, nmax))
    with _memo_lock:
        held = _memo.get(family)
        if held is None or held.nmax < nmax:
            _memo[family] = built
        _memo.move_to_end(family)
        while len(_memo) > MEMO_FAMILIES:
            _memo.popitem(last=False)
    return built
