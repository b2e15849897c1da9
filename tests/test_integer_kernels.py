"""The integer-numerator kernels against the Fraction loops they replaced,
which are kept here or in ``helpers`` as references."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgnum.closed_forms import _composition_sum
from hgnum.exact import chain_convolve, int_convolve, partition_multiplicities
from hgnum.families import SPECS, FamilyId, FamilyKind
from hgnum.linalg import hessenberg_det_prefixes, trudi_expand
from hgnum.series import gen_hgcauchy_denom, gen_ratio, reciprocal
from helpers import (
    EULER_KINDS, TruncatedSeries, all_compositions, even_convolution_recurrence, forward_reciprocal,
)


def fraction_det_prefixes(entries):
    signed = [-a if k % 2 else a for k, a in enumerate(entries)]
    d = [F(1)]
    for m in range(1, len(entries) + 1):
        d.append(sum((signed[k] * d[m - 1 - k] for k in range(m)), F(0)))
    return d


def fraction_trudi_expand(entries):
    m = len(entries)
    total = F(0)
    for ts in partition_multiplicities(m):
        term = F(1)
        for i in range(2, sum(ts) + 1):
            term *= i
        for t in ts:
            for i in range(2, t + 1):
                term /= i
        term *= (-1) ** (m - sum(ts))
        for k, t in enumerate(ts, start=1):
            term *= entries[k - 1] ** t
        total += term
    return total


def fraction_composition_sum(weights, half):
    total = F(0)
    for parts in all_compositions(half):
        term = F((-1) ** len(parts))
        for p in parts:
            term *= weights[p]
        total += term
    return total


# Zeros, negatives, integers and denominators that share no factor.
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-30, 30).map(F),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    st.builds(F, st.integers(-9, 9), st.sampled_from([2**7, 3**5, 5**4, 7**3, 11 * 13, 97])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=14))
def test_det_prefixes_match_the_fraction_recurrence(entries):
    got = hessenberg_det_prefixes(entries)
    assert got == fraction_det_prefixes(entries)
    assert all(type(d) is F for d in got)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=9))
def test_trudi_expand_matches_the_fraction_loop(entries):
    got = trudi_expand(entries)
    assert got == fraction_trudi_expand(entries)
    assert type(got) is F


def test_trudi_expand_single_entry():
    # one partition, t_1 = 1: the value is a_1
    for a1 in (F(0), F(-2, 9), F(5)):
        assert trudi_expand([a1]) == a1 == fraction_trudi_expand([a1])


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=9, max_size=9), st.integers(1, 8))
def test_composition_sum_matches_the_fraction_loop(tail, half):
    weights = [F(1)] + tail
    assert _composition_sum(weights, half) == fraction_composition_sum(weights, half)


@pytest.mark.parametrize("kind", EULER_KINDS, ids=lambda k: k.value)
def test_composition_sum_on_family_weights(kind):
    for N in (0, 3):
        weights = FamilyId(kind, N).weights(24)
        for half in range(1, 13):
            assert _composition_sum(weights, half) == fraction_composition_sum(weights, half)


# A family: its kind, and N small or at the bound (where the Fraction loops
# reduce numbers of tens of thousands of digits).
@st.composite
def family_ids(draw):
    kind = draw(st.sampled_from(list(FamilyKind)))
    N = draw(st.one_of(st.integers(SPECS[kind].least_N, 12), st.just(10000)))
    return FamilyId(kind, N)


@settings(max_examples=25, deadline=None)
@given(family_ids(), st.integers(0, 120))
def test_number_recurrence_and_newton_reciprocal_match_the_forward_reciprocal(family, nmax):
    # the Fraction reference, most of the cost at N = 10000, built once
    denominator = family.spec.denominator(family.N, nmax)
    want = forward_reciprocal(denominator)
    assert reciprocal(denominator) == want
    got = family.spec.recurrence(family.N, nmax)
    assert got == TruncatedSeries(want).egf_values()
    assert all(type(v) is F for v in got)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(EULER_KINDS), st.integers(0, 12), st.integers(0, 120))
def test_euler_recurrence_matches_the_fraction_convolution(kind, N, nmax):
    w = 2 * N + (kind is FamilyKind.COMP_HG_EULER)
    assert SPECS[kind].recurrence(N, nmax) == even_convolution_recurrence(w, nmax)


@pytest.mark.parametrize("kind", EULER_KINDS, ids=lambda k: k.value)
def test_euler_recurrence_matches_the_fraction_convolution_at_the_N_bound(kind):
    w = 20000 + (kind is FamilyKind.COMP_HG_EULER)
    assert SPECS[kind].recurrence(10000, 24) == even_convolution_recurrence(w, 24)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=40).filter(lambda c: c[0] != 0))
def test_newton_reciprocal_matches_the_forward_loop(coeffs):
    got = reciprocal(tuple(coeffs))
    assert got == forward_reciprocal(coeffs)
    assert all(type(c) is F for c in got)


# The Newton reciprocal doubles the known prefix, p -> q = min(2p, order + 1),
# and computes only e_p..e_{q-1} of self * r: at orders 2^k - 1 the last
# doubling ends exactly, at 2^k it leaves one entry, at 2^k + 1 two.
EDGE_ORDERS = sorted({2**k + d for k in range(8) for d in (-1, 0, 1)})


def edge_series(order):
    """c_0 not a unit, mixed signs and zeros; 1 + t^5, a run of zeros after
    c_0; and both Euler denominators, zero at every odd index."""
    yield (F(-3, 5),) + tuple(F((-1) ** k * (k % 7), k % 4 + 1) for k in range(1, order + 1))
    yield tuple(F(int(k in (0, 5))) for k in range(order + 1))
    yield gen_ratio(6, 2, order)
    yield gen_ratio(7, 2, order)


@pytest.mark.parametrize("order", EDGE_ORDERS)
def test_newton_reciprocal_at_each_doubling_edge(order):
    for series in edge_series(order):
        assert reciprocal(series) == forward_reciprocal(series)


def full_product(a, b, egf):
    """Every coefficient of a * b that can be nonzero, by the double loop."""
    c = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += (math.comb(i + j, i) if egf else 1) * x * y
    return c


# Int columns with zeros and negatives; some zero at every odd index or at
# every even index, which int_convolve steps over or skips.  Ranges of fewer
# than 32 coefficients take its per-term loop, longer ones its dot products.
ints = st.lists(st.one_of(st.just(0), st.integers(-10**12, 10**12)), max_size=40)
columns = st.one_of(
    ints,
    ints.map(lambda xs: [x if i % 2 == 0 else 0 for i, x in enumerate(xs)]),
    ints.map(lambda xs: [x if i % 2 else 0 for i, x in enumerate(xs)]),
)


@settings(max_examples=300, deadline=None)
@given(columns, columns, st.integers(0, 40), st.integers(-1, 80), st.booleans())
# a zero at odd indices, and b nonzero only where a stride-3 slice would
# miss, on each side of the 32-coefficient switch
@example([1, 0, 1], [0, 0, 5], 0, 6, False)
@example([1, 0, 1], [0, 0, 0, 5], 0, 6, True)
@example([1, 0, 1], [0, 0, 5], 0, 40, False)
@example([1, 0, 1], [0, 0, 0, 5], 0, 40, True)
def test_int_convolve_range_is_that_slice_of_the_full_product(a, b, lo, hi, egf):
    full = full_product(a, b, egf) + [0] * (hi + 1)
    got = int_convolve(a, b, lo, hi, egf=egf)
    assert got == full[lo : hi + 1]
    assert all(type(c) is int for c in got)


@st.composite
def chains(draw):
    """(a, s, rho) for chain_convolve: a on the stride s from its last entry
    back, a_{s(j-1)} = rho[j] a_{sj} with nonzero rho[j] of either sign, and
    at stride 2 maybe one more 0 at the end, as a denominator of odd order has."""
    s = draw(st.sampled_from([1, 2]))
    ratios = draw(st.lists(st.integers(-10**4, 10**4).filter(bool), max_size=30))
    on = [draw(st.integers(-10**12, 10**12).filter(bool))]
    for x in reversed(ratios):
        on.insert(0, x * on[0])
    a = [0] * (s * len(on) - s + 1 + draw(st.integers(0, s - 1)))
    a[::s] = on
    return a, s, [0] + ratios


@settings(max_examples=150, deadline=None)
@given(chains(), ints, st.one_of(st.none(), st.tuples(st.integers(0, 70), st.integers(-1, 90))))
def test_chain_convolve_is_int_convolve_on_a_chain(chain, b, window):
    a, s, rho = chain
    # None: the window of the Newton reciprocal's middle product, past b
    lo, hi = window or (len(b), min(2 * len(b), len(a)) - 1)
    got = chain_convolve(a, s, rho, b, lo, hi)
    assert got == int_convolve(a, b, lo, hi)
    assert all(type(c) is int for c in got)


@settings(max_examples=50, deadline=None)
@given(chains(), st.integers(1, 10**6), st.data())
def test_newton_reciprocal_of_a_chain_and_of_one_with_a_zero_on_its_stride(chain, d, data):
    a, s, _ = chain
    coeffs = [F(x, d) for x in a]
    variants = [coeffs]
    if len(a) > s:
        k = s * data.draw(st.integers(1, (len(a) - 1) // s))
        variants.append(coeffs[:k] + [F(0)] + coeffs[k + 1 :])
    for c in variants:
        assert reciprocal(tuple(c)) == forward_reciprocal(c)


def test_the_chain_product_serves_chains_only(monkeypatch):
    calls, real = [], chain_convolve
    monkeypatch.setattr("hgnum.series.chain_convolve", lambda *args: calls.append(1) or real(*args))
    euler, bernoulli = gen_ratio(6, 2, 40), gen_ratio(3, 1, 40)
    for series, chain in (
        (euler, True),
        (bernoulli, True),
        # one zero on the stride
        (euler[:10] + (F(0),) + euler[11:], False),
        (bernoulli[:7] + (F(0),) + bernoulli[8:], False),
        # the term ratio -(N+j)/(N+j-1) is not an integer
        (gen_hgcauchy_denom(3, 40), False),
    ):
        calls.clear()
        assert reciprocal(series) == forward_reciprocal(series)
        assert bool(calls) is chain
