import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgnum.exact import InvalidParameter, factorial
from hgnum.series import (
    ZeroConstantTerm,
    gen_cos,
    gen_hgcauchy_denom,
    gen_ratio,
    gen_sin,
    reciprocal,
)
from helpers import (
    TruncatedSeries, derivative, from_egf, is_zero, monomial, rising_factorial, scale, times_t,
)


def series_from_ints(ints):
    return TruncatedSeries(tuple(F(i) for i in ints))


def ratio(w, stride, order):
    return TruncatedSeries(gen_ratio(w, stride, order))


class TestArithmetic:
    def test_add_cancels(self):
        c = ratio(0, 2, 12)
        assert is_zero(c + (-c))

    def test_scale_identity(self):
        c = ratio(0, 2, 12)
        assert scale(c, 1) == c

    def test_sub_f_at_zero_is_cosh(self):
        cosh = from_egf([F(1 - n % 2) for n in range(21)])
        assert is_zero(ratio(0, 2, 20) - cosh)

    def test_mul_by_one(self):
        s = series_from_ints([3, 1, 4, 1, 5])
        assert monomial(0, 4) * s == s

    def test_mul_truncates_to_min_order(self):
        a = series_from_ints([1, 1, 1])
        b = series_from_ints([1, 2])
        assert (a * b).order == 1

    def test_defining_product_of_reciprocal(self):
        f = ratio(6, 2, 16)
        assert f * f.reciprocal() == monomial(0, 16)

    def test_cauchy_product_annihilates_shifted_factor(self):
        # the product defining the main family collapses to a single monomial
        N, M = 2, 18
        inv = ratio(2 * N, 2, M).reciprocal()
        prod = ratio(2 * N, 2, M) * inv
        assert prod[0] == 1
        assert all(prod[n] == 0 for n in range(1, M + 1))


class TestReciprocal:
    def test_geometric(self):
        one_minus_t = series_from_ints([1, -1] + [0] * 9)
        assert one_minus_t.reciprocal().coeffs == (F(1),) * 11

    def test_euler_numbers_from_reciprocal(self):
        values = ratio(0, 2, 14).reciprocal().egf_values()
        assert list(values) == [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0,
                                2702765, 0, -199360981]

    def test_complementary_euler_start(self):
        values = ratio(1, 2, 4).reciprocal().egf_values()
        assert list(values) == [1, 0, F(-1, 3), 0, F(7, 15)]

    def test_from_egf_inverts_egf_values(self):
        s = TruncatedSeries((F(1), F(-2, 3), F(0), F(5, 7), F(1, 9)))
        assert from_egf(s.egf_values()) == s

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            series_from_ints([0, 1]).reciprocal()

    def test_refusals_of_the_function(self):
        with pytest.raises(InvalidParameter):
            reciprocal(())
        with pytest.raises(ZeroConstantTerm):
            reciprocal((F(0), F(1)))

    def test_takes_and_gives_plain_tuples(self):
        # the constructors' tuples go in as they are, and a tuple of
        # Fractions of the same length comes out
        for cs in (gen_ratio(4, 2, 9), gen_ratio(3, 1, 9), gen_hgcauchy_denom(2, 9), gen_cos(9)):
            assert type(cs) is tuple and all(type(c) is F for c in cs)
            r = reciprocal(cs)
            assert type(r) is tuple and len(r) == len(cs) and all(type(c) is F for c in r)
        assert reciprocal((F(2),)) == (F(1, 2),)


class TestDerivative:
    def test_constant(self):
        d = derivative(monomial(0, 0))
        assert is_zero(d) and d.order == 0

    def test_times_t_keeps_the_order(self):
        assert times_t(series_from_ints([3])) == series_from_ints([0])
        assert times_t(series_from_ints([3, 5])) == series_from_ints([0, 3])

    def test_cosh_to_sinh(self):
        d = derivative(ratio(0, 2, 13))
        sinh = times_t(ratio(1, 2, 12))  # sinh t / t, times t
        assert d == sinh

    def test_star_relation(self):
        N, M = 3, 20
        f = ratio(2 * N, 2, M)
        lhs = scale(f, 2 * N) + times_t(derivative(f))
        assert lhs.coeffs[:M] == scale(ratio(2 * N - 1, 2, M), 2 * N).coeffs[:M]


class TestHasseTeichmuller:
    def test_order_zero_is_identity(self):
        s = series_from_ints([2, 7, 1, 8])
        assert s.hasse_teichmuller(0) == s

    def test_at_and_past_the_truncation_order(self):
        s = series_from_ints([2, 7, 1, 8])
        assert s.hasse_teichmuller(3) == series_from_ints([8])
        assert s.hasse_teichmuller(4) == series_from_ints([0])

    def test_cubic(self):
        t3 = monomial(3, 5)
        got = t3.hasse_teichmuller(2)
        assert got[1] == 3 and all(got[k] == 0 for k in range(got.order + 1) if k != 1)

    def test_matches_repeated_derivative_over_factorial(self):
        rng = random.Random(7)
        for _ in range(25):
            s = TruncatedSeries(tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)))
            for n in range(1, 6):
                d = s
                for _ in range(n):
                    d = derivative(d)
                assert s.hasse_teichmuller(n) == scale(d, F(1) / factorial(n))


small_series = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=20),
    min_size=13, max_size=13
).map(lambda cs: TruncatedSeries(tuple(cs)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_series, small_series, small_series)
def test_ring_laws_order_12(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


class TestGenerators:
    @pytest.mark.parametrize("stride", [2, 1])
    def test_ratio_matches_hypergeometric_evaluation(self, stride):
        # at stride 2, w!/(w+2n)! is the 1F2 coefficient with parameters
        # floor((w+2)/2) and floor((w+1)/2)+1/2 at argument t^2/4; at
        # stride 1, w!/(w+n)! is the 1F1(1; w+1; t) coefficient 1/(w+1)_n
        for w in range(11):
            s = ratio(w, stride, 20)
            for n in range(21):
                if stride == 1:
                    assert s[n] == 1 / rising_factorial(F(w + 1), n)
                elif n % 2:
                    assert s[n] == 0
                else:
                    b = F((w + 2) // 2)
                    c = F((w + 1) // 2) + F(1, 2)
                    m = n // 2
                    assert s[n] == (
                        rising_factorial(F(1), m)
                        / (rising_factorial(b, m) * rising_factorial(c, m))
                        * F(1, 4) ** m
                        / factorial(m)
                    )

    def test_bernoulli_denominator_reciprocal(self):
        values = ratio(1, 1, 4).reciprocal().egf_values()
        assert list(values) == [1, F(-1, 2), F(1, 6), 0, F(-1, 30)]

    def test_cauchy_denominator_signs(self):
        s = gen_hgcauchy_denom(2, 5)
        assert s[0] == 1 and s[1] == F(-2, 3) and s[2] == F(2, 4)

    def test_sin_cos_pythagoras(self):
        order = 14
        sin, cos = TruncatedSeries(gen_sin(order)), TruncatedSeries(gen_cos(order))
        assert sin.order == cos.order == order
        lhs = sin * sin + cos * cos
        assert lhs == monomial(0, order)

    def test_parameter_guards(self):
        for stride in (2, 1):
            with pytest.raises(InvalidParameter):
                gen_ratio(-1, stride, 8)
        with pytest.raises(InvalidParameter):
            gen_hgcauchy_denom(0, 8)
