"""The bounded table memo behind ``families.table``: a prefix of a longer
table equals a fresh build, the memo never holds more than its bound, and
what it holds never changes an answer or an output byte."""

import contextlib
import io
import sys
import threading

import pytest

from hgnum import families
from hgnum.cli import main
from hgnum.exact import InvalidParameter, numerators
from hgnum.families import MEMO_FAMILIES, FamilyId, FamilyKind, table

from helpers import to_fractions


@pytest.fixture(autouse=True)
def cold_memo():
    families._memo.clear()
    yield
    families._memo.clear()


def fresh(family, nmax):
    """The table as the spec builds it, without the memo."""
    return family.spec.recurrence(family.N, nmax)


def every_family(Nmax=6):
    for kind in FamilyKind:
        for N in range(families.SPECS[kind].least_N, Nmax + 1):
            yield FamilyId(kind, N)


@pytest.mark.parametrize("family", list(every_family()), ids=str)
def test_prefix_equals_fresh_build(family):
    longest = table(family, 40)
    assert longest.values == fresh(family, 40)
    for nmax in (0, 1, 7, 40):
        got = table(family, nmax)
        assert got.family == family and got.nmax == nmax
        assert got.values == fresh(family, nmax)


def test_longer_request_replaces_the_entry():
    family = FamilyId(FamilyKind.HG_EULER, 2)
    table(family, 5)
    assert families._memo[family].nmax == 5
    # one index past the entry is a new build, not a prefix
    assert table(family, 6).values == fresh(family, 6)
    assert families._memo[family].nmax == 6
    assert table(family, 12).values == fresh(family, 12)
    assert families._memo[family].nmax == 12
    table(family, 3)
    assert families._memo[family].nmax == 12


def test_every_request_the_entry_covers_reads_its_column():
    # the column is made once per entry, on the first request for it: a
    # table that no one asks for a column never makes one
    family = FamilyId(FamilyKind.HG_EULER, 2)
    entry = table(family, 8)
    assert families._memo[family] is entry and "_column" not in vars(entry)
    for nmax in (0, 3, 8):
        got = table(family, nmax)
        assert got.whole is entry
        assert to_fractions(got.column) == list(got.values)
    assert vars(entry)["_column"] == numerators(entry.values)


def test_entry_count_stays_at_the_bound():
    for N in range(1, 41):
        table(FamilyId(FamilyKind.HG_CAUCHY, N), 3)
        assert len(families._memo) <= MEMO_FAMILIES
    assert len(families._memo) == MEMO_FAMILIES
    # least recently used first out: the first eight are gone
    assert FamilyId(FamilyKind.HG_CAUCHY, 8) not in families._memo
    assert FamilyId(FamilyKind.HG_CAUCHY, 9) in families._memo


def test_a_hit_keeps_the_entry_alive():
    first = FamilyId(FamilyKind.HG_BERNOULLI, 1)
    table(first, 4)
    for N in range(2, MEMO_FAMILIES + 8):
        table(first, 2)
        table(FamilyId(FamilyKind.HG_BERNOULLI, N), 2)
    assert first in families._memo and families._memo[first].nmax == 4


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_negative_nmax_raises_with_the_memo_warm(kind):
    family = FamilyId(kind, 2)
    table(family, 10)
    with pytest.raises(InvalidParameter, match="nmax must be nonnegative"):
        table(family, -1)
    assert families._memo[family].nmax == 10


def test_concurrent_requests_keep_the_longest_tables():
    wanted = {family: fresh(family, 30) for family in every_family(4)}
    longest = {family: 0 for family in wanted}
    plans = []
    for k in range(8):
        plan = [(family, (7 * i + 5 * k) % 31) for i, family in enumerate(wanted)]
        plans.append(plan)
        for family, nmax in plan:
            longest[family] = max(longest[family], nmax)
    errors = []

    def worker(plan):
        for family, nmax in plan:
            if table(family, nmax).values != wanted[family][: nmax + 1]:
                errors.append((family, nmax))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(plan,)) for plan in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # a lost update would leave a shorter table than the longest one built
    assert {f: v.nmax for f, v in families._memo.items()} == longest


def _verify_all_bytes():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all"])
    return code, out.getvalue()


def test_verify_all_is_the_same_cold_and_warm():
    families._memo.clear()
    cold = _verify_all_bytes()
    warm = _verify_all_bytes()
    assert cold[0] == 0
    assert cold == warm
