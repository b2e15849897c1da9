"""Number tables for the four families, by recurrence and by series reciprocal.

Each family is one :class:`FamilySpec` in :data:`SPECS`: v_n = n! [t^n] 1/F(t)
for one hypergeometric denominator F, whose coefficients a_0 = 1, a_1, ... sit
at the multiples of a stride (2 for the Euler types, 1 otherwise).

Tables store the numbers themselves (with the n! factored in), not EGF
coefficients, and keep explicit zeros at odd indices for the two Euler-type
families so that binomial-convolution identities can index over every n.
:func:`table` keeps the longest table of each recently used family (a bounded
memo) and answers shorter requests with a prefix; :func:`via_series` always
computes afresh.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import InvalidParameter, ONE, ZERO, factorial
from .series import (
    TruncatedSeries,
    gen_f,
    gen_fhat,
    gen_hgbernoulli_denom,
    gen_hgcauchy_denom,
)


class FamilyKind(enum.Enum):
    HG_EULER = "hg-euler"
    COMP_HG_EULER = "comp-hg-euler"
    HG_BERNOULLI = "hg-bernoulli"
    HG_CAUCHY = "hg-cauchy"


@dataclass(frozen=True)
class FamilySpec:
    """``denominator(N, order)`` is F up to t^order.  ``recurrence(N, nmax)``,
    if given, is the family's table route, a recurrence on the numbers."""

    least_N: int
    stride: int
    denominator: Callable[[int, int], TruncatedSeries]
    recurrence: Callable[[int, int], tuple[Fraction, ...]] | None = None


def _check_nmax(nmax: int) -> None:
    if nmax < 0:
        raise InvalidParameter(f"nmax must be nonnegative, got {nmax}")


# The weights hold factorials of N (of 2N for the Euler types), so the cost of
# even two numbers grows without limit in N: past 10^6 it is over a minute.
MAX_N = 10_000


@dataclass(frozen=True)
class FamilyId:
    kind: FamilyKind
    N: int

    def __post_init__(self) -> None:
        least = self.spec.least_N
        if self.N < least:
            raise InvalidParameter(f"{self.kind.value} needs N >= {least}, got {self.N}")
        if self.N > MAX_N:
            raise InvalidParameter(f"{self.kind.value} needs N <= {MAX_N}, got {self.N}")

    @property
    def spec(self) -> FamilySpec:
        return SPECS[self.kind]

    def weights(self, nmax: int) -> list[Fraction]:
        """a_0..a_m with m = nmax // stride: the denominator coefficients
        that v_0..v_nmax depend on."""
        _check_nmax(nmax)
        stride = self.spec.stride
        return list(self.spec.denominator(self.N, nmax - nmax % stride).coeffs[::stride])


@dataclass(frozen=True)
class NumberTable:
    family: FamilyId
    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    @property
    def nmax(self) -> int:
        return len(self.values) - 1


def _even_convolution_recurrence(w: int, nmax: int) -> tuple[Fraction, ...]:
    # v_0 = 1; v_n = -n! w! sum_{i<n/2} v_{2i} / ((w+n-2i)! (2i)!) for even n.
    w_f = factorial(w)
    values: list[Fraction] = [ONE]
    for n in range(1, nmax + 1):
        if n % 2 == 1:
            values.append(ZERO)
            continue
        acc = sum(
            (values[2 * i] / (factorial(w + n - 2 * i) * factorial(2 * i)) for i in range(n // 2)),
            ZERO,
        )
        values.append(-factorial(n) * w_f * acc)
    return tuple(values)


# The Euler-type denominators are sum w!/(w+2j)! t^{2j} with w = 2N (hg-euler)
# or 2N+1 (comp-hg-euler); the recurrence takes the same w.
SPECS: dict[FamilyKind, FamilySpec] = {
    FamilyKind.HG_EULER: FamilySpec(
        least_N=0, stride=2, denominator=gen_f,
        recurrence=lambda N, nmax: _even_convolution_recurrence(2 * N, nmax),
    ),
    FamilyKind.COMP_HG_EULER: FamilySpec(
        least_N=0, stride=2, denominator=gen_fhat,
        recurrence=lambda N, nmax: _even_convolution_recurrence(2 * N + 1, nmax),
    ),
    FamilyKind.HG_BERNOULLI: FamilySpec(least_N=1, stride=1, denominator=gen_hgbernoulli_denom),
    FamilyKind.HG_CAUCHY: FamilySpec(least_N=1, stride=1, denominator=gen_hgcauchy_denom),
}


def via_series(family: FamilyId, nmax: int) -> NumberTable:
    """Definition route: EGF extraction of the reciprocal denominator series."""
    _check_nmax(nmax)
    denominator = family.spec.denominator(family.N, nmax)
    return NumberTable(family, denominator.reciprocal().egf_values())


# The longest table built so far for each of the last MEMO_FAMILIES families
# asked for, least recently used first.  The identity checkers read the same
# few families over and over at different lengths; a request no longer than
# the entry is answered with a prefix of it.  The lock is there because
# ``table`` is public and may be called from several threads at once.
MEMO_FAMILIES = 32
_memo: OrderedDict[FamilyId, tuple[Fraction, ...]] = OrderedDict()
_memo_lock = threading.Lock()


def table(family: FamilyId, nmax: int) -> NumberTable:
    """Recurrence route where the family has one, series route otherwise;
    a prefix of the memo's entry when that is long enough."""
    _check_nmax(nmax)
    with _memo_lock:
        values = _memo.get(family)
        if values is not None and len(values) > nmax:
            _memo.move_to_end(family)
            return NumberTable(family, values[: nmax + 1])
    recurrence = family.spec.recurrence
    if recurrence is None:
        values = via_series(family, nmax).values
    else:
        values = recurrence(family.N, nmax)
    with _memo_lock:
        held = _memo.get(family)
        if held is None or len(held) < len(values):
            _memo[family] = values
        _memo.move_to_end(family)
        while len(_memo) > MEMO_FAMILIES:
            _memo.popitem(last=False)
    return NumberTable(family, values)
