"""Truncated power series: arithmetic, exp/log, and the generating-function
oracle triangle (exponent route vs closed-form binomial routes)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dops.identities import ratio_power_closed_form
from dops.polynomials import Poly, factorial
from dops.series import (
    Series,
    egf_extract,
    gf_ratio_power,
    series_exp,
    series_log1p_scaled,
)

from oracles import gf_binomial_xw, series_log, series_mul

X = Poly.x()

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def exp_xt(order: int) -> Series:
    return series_exp(Series(order, [Poly.zero()] + [X] + [Poly.zero()] * (order - 1))
                      if order >= 1 else Series(0))


class TestMul:
    def test_difference_of_squares(self):
        one_plus = Series.from_scalars(2, [1, 1])
        one_minus = Series.from_scalars(2, [1, -1])
        assert series_mul(one_plus, one_minus) == Series.from_scalars(2, [1, 0, -1])

    def test_identity(self):
        f = Series(3, [Poly([1]), X, Poly([0, 0, F(1, 2)])])
        assert series_mul(f, Series(3, (Poly.one(),))) == f

    def test_exp_square(self):
        # (sum x^n t^n / n!)^2 truncated at order 2 is 1 + 2xt + 2x^2 t^2
        f = exp_xt(2)
        assert series_mul(f, f) == Series(2, [Poly.one(), X * 2, X * X * 2])

    def test_truncates_to_min_order(self):
        assert series_mul(Series(5, (Poly.one(),)), Series(2, (Poly.one(),))).order == 2


class TestExpLog:
    def test_exp_xt(self):
        got = exp_xt(3)
        assert got.coeffs == (Poly.one(), X, X * X / 2, X * X * X / 6)

    def test_exp_zero(self):
        assert series_exp(Series(4)) == Series(4, (Poly.one(),))

    def test_exp_with_cubic_term(self):
        # exp(xt + x t^3/3) at order 3: 1 + xt + x^2 t^2/2 + (x^3/6 + x/3) t^3
        f = Series(3, [Poly.zero(), X, Poly.zero(), X / 3])
        got = series_exp(f)
        assert got.coeffs[3] == Poly([0, F(1, 3), 0, F(1, 6)])
        assert got.coeffs[:3] == (Poly.one(), X, X * X / 2)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_exp(Series(2, (Poly.one(),)))

    def test_log1p_scaled(self):
        assert series_log1p_scaled(1, 3) == Series.from_scalars(3, [0, -1, F(-1, 2), F(-1, 3)])
        assert series_log1p_scaled(0, 4) == Series(4)
        assert series_log1p_scaled(-1, 2) == Series.from_scalars(2, [0, 1, F(-1, 2)])

    @settings(max_examples=30)
    @given(st.lists(st.lists(rationals, min_size=0, max_size=3).map(Poly),
                    min_size=1, max_size=8))
    def test_exp_log_inverse(self, tail):
        f = Series(len(tail), [Poly.one()] + tail)
        assert series_exp(series_log(f)) == f


class TestRatioPower:
    def test_symmetric_case(self):
        got = gf_ratio_power(1, -1, 3)
        assert got.coeffs == (Poly.one(), X, X * X / 2, Poly([0, F(1, 3), 0, F(1, 6)]))

    def test_beta_zero_reduces_to_binomial(self):
        # (1 - 2t)^(-x/2) is the step-(-2) factorial generating function
        got = gf_ratio_power(2, 0, 4)
        assert got == gf_binomial_xw(-2, 1, 4)
        assert got.coeffs[1] == X

    def test_constant_coefficient_is_one(self):
        assert gf_ratio_power(F(2, 3), F(-1, 5), 5).coeffs[0] == Poly.one()

    def test_rejects_equal_parameters(self):
        with pytest.raises(ValueError):
            gf_ratio_power(F(1, 2), F(1, 2), 3)

    @settings(max_examples=25, deadline=None)
    @given(rationals, rationals, st.integers(min_value=1, max_value=6))
    def test_oracle_triangle(self, alpha, beta, order):
        # exponent route == product of the two closed-form binomial factors
        # == the convolution closed form; three independent routes.
        if alpha == beta:
            return
        w = alpha - beta
        ratio = gf_ratio_power(alpha, beta, order)
        product = series_mul(gf_binomial_xw(w, -beta / w, order),
                             gf_binomial_xw(-w, alpha / w, order))
        assert ratio == product
        closed = ratio_power_closed_form(alpha, beta, order)
        for n in range(order + 1):
            assert ratio.coeffs[n] * factorial(n) == closed[n]


class TestBinomialXw:
    def test_matches_falling_factorials(self):
        from oracles import falling_factorial
        got = gf_binomial_xw(1, 1, 4)
        for n in range(5):
            assert got.coeffs[n] == falling_factorial(1, n) / factorial(n)

    def test_order_one(self):
        s = F(-3, 7)
        assert gf_binomial_xw(2, s, 1) == Series(1, [Poly.one(), X * s])

    def test_scaled_case(self):
        got = gf_binomial_xw(2, F(-1, 2), 2)
        assert got.coeffs[2] == Poly([0, F(-1, 4), F(1, 8)])  # (x^2 - 2x)/8

    def test_rejects_zero_w(self):
        with pytest.raises(ValueError):
            gf_binomial_xw(0, 1, 2)


class TestEgfExtract:
    def test_classical_sequence(self):
        got = egf_extract(gf_ratio_power(1, -1, 4))
        assert got == [Poly.one(), X, Poly([0, 0, 1]), Poly([0, 2, 0, 1]), Poly([0, 0, 8, 0, 1])]

    def test_constant_series(self):
        assert egf_extract(Series(3, (Poly.one(),))) == [Poly.one(), Poly.zero(), Poly.zero(), Poly.zero()]

    def test_exponential(self):
        assert egf_extract(exp_xt(4)) == [Poly.monomial(n) for n in range(5)]

    @settings(max_examples=20, deadline=None)
    @given(rationals, rationals, st.integers(min_value=0, max_value=6))
    def test_monic_extraction(self, alpha, beta, order):
        if alpha == beta:
            return
        for n, p in enumerate(egf_extract(gf_ratio_power(alpha, beta, order))):
            assert p.degree == n
            assert p.is_monic()
