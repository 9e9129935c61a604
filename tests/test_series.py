"""Truncated power series: arithmetic, exp/log, the EGF exponential against
the ordinary-form convolution, and the generating-function oracle triangle
(exponent route vs closed-form binomial routes).  Every exponent the library
takes or gives is in EGF form, entry k being k! times the t**k coefficient;
the oracles work in ordinary coefficients, and ``egf_extract`` and
``ordinary`` convert between the two."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dops.identities import ratio_power_closed_form
from dops.polynomials import Poly
from dops import families, polynomials, series
from dops.families import LagParams, MLParams, ml_by_gf, ml_by_recurrence
from dops.series import egf_exp, ratio_power_exponent

from oracles import (egf_extract, exp_by_convolution, gf_binomial_xw, laguerre_by_gf,
                     series_log, series_log1p_scaled, series_mul)

X = Poly.x()

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def scalars(values) -> list[Poly]:
    return [Poly.const(v) for v in values]


def ordinary(f: list[Poly]) -> list[Poly]:
    """The ordinary coefficients f_k = F_k / k! of an EGF-form series F."""
    return [c / factorial(k) for k, c in enumerate(f)]


def ratio_power(alpha, beta, order: int) -> list[Poly]:
    """The sequence read off ((1 - beta t)/(1 - alpha t)) ** (x/w)."""
    return egf_exp(ratio_power_exponent(alpha, beta, order))


def exp_xt(order: int) -> list[Poly]:
    return exp_by_convolution(([Poly.zero(), X] + [Poly.zero()] * (order - 1))[:order + 1])


class TestMul:
    def test_difference_of_squares(self):
        one_plus = scalars([1, 1, 0])
        one_minus = scalars([1, -1, 0])
        assert series_mul(one_plus, one_minus) == scalars([1, 0, -1])

    def test_identity(self):
        f = [Poly([1]), X, Poly([0, 0, F(1, 2)]), Poly.zero()]
        assert series_mul(f, scalars([1, 0, 0, 0])) == f

    def test_exp_square(self):
        # (sum x^n t^n / n!)^2 truncated at order 2 is 1 + 2xt + 2x^2 t^2
        f = exp_xt(2)
        assert series_mul(f, f) == [Poly.one(), X * 2, X * X * 2]

    def test_truncates_to_min_order(self):
        assert len(series_mul(scalars([1, 0, 0, 0, 0, 0]), scalars([1, 0, 0]))) == 3


class TestExpLog:
    def test_exp_xt(self):
        got = egf_exp([Poly.zero(), X, Poly.zero(), Poly.zero()])
        assert got == [Poly.one(), X, X * X, X * X * X]
        assert ordinary(got) == exp_xt(3)

    def test_exp_zero(self):
        assert egf_exp(scalars([0] * 5)) == scalars([1, 0, 0, 0, 0])

    def test_exp_with_cubic_term(self):
        # exp(xt + x t^3/3) at order 3: 1 + xt + x^2 t^2/2 + (x^3/6 + x/3) t^3;
        # in EGF form the exponent is (0, x, 0, 2x) and P_3 = x^3 + 2x
        got = egf_exp([Poly.zero(), X, Poly.zero(), X * 2])
        assert got[3] == Poly([0, 2, 0, 1])
        assert got[:3] == [Poly.one(), X, X * X]

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            egf_exp(scalars([1, 0, 0]))

    def test_log1p_scaled(self):
        assert series_log1p_scaled(1, 3) == scalars([0, -1, F(-1, 2), F(-1, 3)])
        assert series_log1p_scaled(0, 4) == scalars([0] * 5)
        assert series_log1p_scaled(-1, 2) == scalars([0, 1, F(-1, 2)])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=1, max_size=3).map(Poly)
                    .filter(lambda p: not p.is_zero()), min_size=0, max_size=9),
           st.lists(rationals, max_size=4))
    def test_multiplier_never_changes_the_result(self, tail, den_tail):
        # exponent entries nonzero at every order, of degree <= 2 in x
        f = [Poly.zero()] + tail
        den = [1] + den_tail
        assert egf_exp(f, den) == egf_exp(f) == \
            egf_extract(exp_by_convolution(ordinary(f)))

    @pytest.mark.parametrize("den", [(), (2,), (0, 1), (F(1, 2), 3)])
    def test_exp_rejects_a_multiplier_without_constant_term_one(self, den):
        with pytest.raises(ValueError, match="multiplier whose constant term is 1"):
            egf_exp([Poly.zero(), X, X], den)

    @settings(max_examples=30)
    @given(st.lists(st.lists(rationals, min_size=0, max_size=3).map(Poly),
                    min_size=1, max_size=8))
    def test_exp_log_inverse(self, tail):
        f = [Poly.one()] + tail
        assert egf_exp(egf_extract(series_log(f))) == egf_extract(f)


class TestRatioPower:
    def test_symmetric_case(self):
        # n! times 1, x t, x^2 t^2/2, (x^3/6 + x/3) t^3
        got = ratio_power(1, -1, 3)
        assert got == [Poly.one(), X, X * X, Poly([0, 2, 0, 1])]

    def test_beta_zero_reduces_to_binomial(self):
        # (1 - 2t)^(-x/2) is the step-(-2) factorial generating function
        got = ratio_power(2, 0, 4)
        assert got == egf_extract(gf_binomial_xw(-2, 1, 4))
        assert got[1] == X

    def test_constant_coefficient_is_one(self):
        assert ratio_power(F(2, 3), F(-1, 5), 5)[0] == Poly.one()

    @pytest.mark.parametrize("a", [F(1, 2), -1, F(-2, 3)])
    def test_equal_parameters_give_the_confluent_sequence(self, a):
        # at alpha = beta = a the ratio power is exp(x t/(1 - a t)), the
        # Laguerre-type family at beta_exp = theta = 0 and b = 0
        assert ratio_power(a, a, 8) == laguerre_by_gf(LagParams(1, a), 8)

    @settings(max_examples=25, deadline=None)
    @given(rationals, rationals, st.integers(min_value=1, max_value=6))
    def test_oracle_triangle(self, alpha, beta, order):
        # exponent route == product of the two closed-form binomial factors
        # == the convolution closed form; three independent routes.
        if alpha == beta:
            return
        w = alpha - beta
        ratio = ratio_power(alpha, beta, order)
        product = series_mul(gf_binomial_xw(w, -beta / w, order),
                             gf_binomial_xw(-w, alpha / w, order))
        assert ratio == egf_extract(product)
        assert ratio == ratio_power_closed_form(alpha, beta, order)


class TestRatioPowerExponent:
    """The one exponent both families' generating functions are built on, in
    EGF form, against the two-logarithm form, its confluent limit and sympy."""

    @settings(max_examples=30, deadline=None)
    @given(rationals, st.integers(min_value=0, max_value=8))
    def test_confluent_case_is_x_t_over_1_minus_a_t(self, a, order):
        assert ratio_power_exponent(a, a, order) == \
            [Poly.zero()] + [X * a ** (n - 1) * factorial(n) for n in range(1, order + 1)]

    @settings(max_examples=30, deadline=None)
    @given(rationals, rationals, st.integers(min_value=0, max_value=8))
    def test_matches_the_difference_of_logarithms(self, alpha, beta, order):
        if alpha == beta:
            return
        scale = X / (alpha - beta)
        logs = zip(series_log1p_scaled(beta, order), series_log1p_scaled(alpha, order))
        assert ratio_power_exponent(alpha, beta, order) == \
            egf_extract([(lb - la) * scale for lb, la in logs])

    @pytest.mark.parametrize("alpha,beta", [
        (F(1, 2), F(-1, 3)), (0, F(-2, 5)), (F(3, 4), 0), (F(2, 3), F(2, 3)), (-1, -1),
    ])
    def test_matches_sympy(self, alpha, beta):
        sympy = pytest.importorskip("sympy")
        x, t = sympy.symbols("x t")
        al, be = (sympy.Rational(v.numerator, v.denominator) for v in map(F, (alpha, beta)))
        if alpha == beta:
            expr = x * t / (1 - al * t)
        else:
            expr = x / (al - be) * (sympy.log(1 - be * t) - sympy.log(1 - al * t))
        order = 7
        expansion = sympy.expand(sympy.series(expr, t, 0, order + 1).removeO())
        expected = []
        for n in range(order + 1):
            coeffs = sympy.Poly(expansion.coeff(t, n), x).all_coeffs()[::-1]
            expected.append(Poly(F(int(c.p), int(c.q)) for c in coeffs))
        assert ratio_power_exponent(alpha, beta, order) == egf_extract(expected)


class TestBinomialXw:
    def test_matches_falling_factorials(self):
        from oracles import falling_factorial
        got = gf_binomial_xw(1, 1, 4)
        for n in range(5):
            assert got[n] == falling_factorial(1, n) / factorial(n)

    def test_order_one(self):
        s = F(-3, 7)
        assert gf_binomial_xw(2, s, 1) == [Poly.one(), X * s]

    def test_scaled_case(self):
        got = gf_binomial_xw(2, F(-1, 2), 2)
        assert got[2] == Poly([0, F(-1, 4), F(1, 8)])  # (x^2 - 2x)/8

    def test_rejects_zero_w(self):
        with pytest.raises(ValueError):
            gf_binomial_xw(0, 1, 2)


class TestEgfExtract:
    def test_classical_sequence(self):
        got = ratio_power(1, -1, 4)
        assert got == [Poly.one(), X, Poly([0, 0, 1]), Poly([0, 2, 0, 1]), Poly([0, 0, 8, 0, 1])]

    def test_constant_series(self):
        assert egf_exp(scalars([0, 0, 0, 0])) == [Poly.one(), Poly.zero(), Poly.zero(), Poly.zero()]

    def test_exponential(self):
        assert egf_exp([Poly.zero(), X, Poly.zero(), Poly.zero(), Poly.zero()]) == \
            [Poly([0] * n + [1]) for n in range(5)]

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            egf_exp(scalars([1, 0, 0]))

    @settings(max_examples=20, deadline=None)
    @given(rationals, rationals, st.integers(min_value=0, max_value=6))
    def test_monic_extraction(self, alpha, beta, order):
        if alpha == beta:
            return
        for n, p in enumerate(ratio_power(alpha, beta, order)):
            assert p.degree == n
            assert p.is_monic()


def route_exponent(monkeypatch, params, order):
    """The exponent and the multiplier the generating-function route hands
    to ``egf_exp``."""
    seen = []
    monkeypatch.setattr(families, "egf_exp", lambda f, den: seen.append((f, den)) or egf_exp(f, den))
    ml_by_gf(params, order)
    monkeypatch.undo()
    (call,) = seen
    return call


class TestEgfExpDifferential:
    """The EGF exponential, P_n = sum C(n-1, k-1) F_k P_{n-k}, against the
    ordinary-form convolution g_n = sum (k/n) f_k g_{n-k}, f_k = F_k / k!,
    read out as n! g_n, exactly, on the exponents the generating-function
    route builds for each family kind, with and without the multiplier the
    route passes."""

    PARAMS = {
        "ml": MLParams(3, F(2, 3), F(-1, 2), [F(1, 2), F(-3, 4)]),
        "charlier": MLParams(2, 0, F(-3, 2), [F(2, 5)]),
        "laguerre": LagParams(3, F(-1, 2), F(5, 4), F(1, 7), [F(2, 3), F(-1, 3), F(1, 5)]),
    }

    @pytest.mark.parametrize("order", range(21))
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    def test_route_exponent(self, monkeypatch, params, order):
        exponent, den = route_exponent(monkeypatch, params, order)
        assert len(exponent) == order + 1
        assert egf_exp(exponent) == egf_extract(exp_by_convolution(ordinary(exponent))) == \
            egf_exp(exponent, den) == ml_by_gf(params, order)

    @pytest.mark.parametrize("d", [1, 3])
    def test_route_cost_is_linear_in_order(self, monkeypatch, d):
        # With the multiplier the route makes one lincomb for A_n and one for
        # P_{n+1}, each of at most d + 4 terms; the convolution would make
        # P_n of n terms, and a Poly sum per exponent entry one call more.
        params = LagParams(d, F(1, 2), F(-3, 2), F(1, 7), [1, F(1, 3), F(1, 5)][:d])
        sizes, kernel = [], polynomials.lincomb

        def counting(terms):
            terms = list(terms)
            sizes.append(len(terms))
            return kernel(terms)

        for module in (series, polynomials):
            monkeypatch.setattr(module, "lincomb", counting)
        n_max = 48
        got = ml_by_gf(params, n_max)
        monkeypatch.undo()
        assert got == ml_by_recurrence(params, n_max)
        assert len(sizes) <= 2 * n_max + 2
        assert max(sizes) <= d + 4

    @pytest.mark.parametrize("params", [PARAMS["ml"], PARAMS["charlier"]], ids=str)
    def test_ml_exponent_is_the_egf_form_of_its_series(self, monkeypatch, params):
        # log of ((1-beta t)/(1-alpha t))**(x/w) exp(sum c_i t**i), entry n
        # being n! times its t**n coefficient
        exponent, _ = route_exponent(monkeypatch, params, 6)
        scalar = scalars([0, *params.c] + [0] * (6 - len(params.c)))
        assert ordinary(exponent) == [r + c for r, c in zip(
            ordinary(ratio_power_exponent(params.alpha, params.beta, 6)), scalar)]

    @pytest.mark.parametrize("order", range(21))
    def test_scalar_series(self, order):
        f = scalars([0, F(1, 2), F(-2, 3), 3, F(5, 7), -1, F(1, 9)] * 3)[:order + 1]
        assert egf_exp(egf_extract(f)) == egf_extract(exp_by_convolution(f))
        assert ordinary(egf_exp(f)) == exp_by_convolution(ordinary(f))
