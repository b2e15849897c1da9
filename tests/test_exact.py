import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgnum.exact import (
    InvalidParameter,
    binomial,
    compositions,
    factorial,
    partition_multiplicities,
)
from helpers import all_compositions, recursive_partition_multiplicities, rising_factorial


def iterated_product(n):
    out = 1
    for i in range(1, n + 1):
        out *= i
    return F(out)


def partition_count_oracle(m):
    """p(m) by the pentagonal-number recurrence, independent of the enumerator."""
    p = [F(1)] + [F(0)] * m
    for n in range(1, m + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            p[n] += sign * p[n - g1]
            if g2 <= n:
                p[n] += sign * p[n - g2]
            k += 1
    return int(p[m])


class TestFactorial:
    def test_empty_product(self):
        assert factorial(0) == 1

    def test_small(self):
        assert factorial(6) == 720

    def test_against_iterated_multiplication(self):
        assert factorial(14) == iterated_product(14) == 87178291200

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameter):
            factorial(-1)

    def test_cold_miss_does_not_recurse(self):
        # 5000 is past the interpreter's recursion limit, so a miss that
        # recursed on n - 1 would raise RecursionError here.
        factorial.cache_clear()
        value = factorial(5000)
        assert isinstance(value, F)
        assert value == iterated_product(5000)


class TestBinomial:
    def test_values(self):
        assert binomial(5, 3) == 10
        assert binomial(5, 2) == 10

    def test_boundary(self):
        for n in range(0, 21, 2):
            assert binomial(n, n) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0


class TestRisingFactorial:
    def test_empty(self):
        assert rising_factorial(F(7, 3), 0) == 1

    def test_against_direct_product(self):
        x = F(1, 2)
        assert rising_factorial(x, 3) == x * (x + 1) * (x + 2) == F(15, 8)

    def test_at_one_is_factorial(self):
        for n in range(10):
            assert rising_factorial(F(1), n) == factorial(n)


class TestCompositions:
    def test_all_lengths_of_three(self):
        got = list(all_compositions(3))
        assert got == [(3,), (1, 2), (2, 1), (1, 1, 1)]

    def test_count_is_power_of_two(self):
        for n in range(1, 21):
            assert sum(1 for _ in all_compositions(n)) == 2 ** (n - 1)

    def test_large_count(self):
        assert sum(1 for _ in all_compositions(15)) == 16384

    def test_fixed_length_count(self):
        # C(n-1, r-1) compositions of n into r positive parts
        for n in range(1, 10):
            for r in range(1, n + 1):
                assert sum(1 for _ in compositions(n, r)) == binomial(n - 1, r - 1)

    def test_each_tuple_once_and_valid(self):
        seen = set()
        for parts in all_compositions(8):
            assert sum(parts) == 8 and all(p >= 1 for p in parts)
            assert parts not in seen
            seen.add(parts)

    def test_fixed_length_is_the_sorted_product(self):
        # every tuple of the right length and total, in lexicographic order
        for total in range(8):
            for length in range(1, 6):
                want = [
                    parts
                    for parts in itertools.product(range(1, total + 1), repeat=length)
                    if sum(parts) == total
                ]
                assert list(compositions(total, length)) == want

    def test_needs_length(self):
        with pytest.raises(InvalidParameter):
            list(compositions(2, 0))


class TestPartitionMultiplicities:
    def test_three(self):
        assert list(partition_multiplicities(3)) == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]

    def test_five(self):
        assert sum(1 for _ in partition_multiplicities(5)) == 7

    def test_thirty(self):
        assert sum(1 for _ in partition_multiplicities(30)) == 5604

    def test_counts_match_pentagonal_oracle(self):
        for m in range(1, 41):
            assert sum(1 for _ in partition_multiplicities(m)) == partition_count_oracle(m)

    def test_weight_invariant(self):
        for ts in partition_multiplicities(9):
            assert sum(k * t for k, t in enumerate(ts, start=1)) == 9

    def test_same_order_as_the_recursion(self):
        for m in range(1, 31):
            assert list(partition_multiplicities(m)) == list(recursive_partition_multiplicities(m))


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_rational_sum_and_product_canonical(a, b):
    # Fraction keeps canonical reduced form with positive denominator
    for v in (a + b, a * b):
        assert v.denominator > 0
    assert a + (-a) == F(0, 1)
