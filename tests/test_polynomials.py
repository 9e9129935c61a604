"""Exact scalar and polynomial arithmetic."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dops.orthogonality import MomentTable
from dops.polynomials import (
    Poly,
    as_rational,
    binomial,
    delta_w,
    derivative,
    format_coeffs,
    format_rational,
    lincomb,
    parse_rational,
    shift,
)
from oracles import falling_factorial, fraction_add, fraction_delta_w

X = Poly.x()

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)
nonzero_rationals = rationals.filter(lambda f: f != 0)
polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)


class TestRationalStrings:
    def test_round_trip(self):
        for text in ["0", "3", "-5", "7/3", "-11/4"]:
            assert format_rational(parse_rational(text)) == text

    def test_normalizes(self):
        assert format_rational(parse_rational("4/2")) == "2"
        assert format_rational(parse_rational("-6/4")) == "-3/2"

    def test_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")
        with pytest.raises(ValueError):
            parse_rational("1e3")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    # Spellings outside "3", "-5", "p/q"; int() takes each part of the first nine.
    OFF_GRAMMAR = ["1_0", "1/1_0", "\u0663", "1/\u0663", "\uff11", "1 /2", "1/ 2", "3/-7", "3/+7",
                   "- 3", "1//2", "/2", "1/", "--1", "0x10", ""]

    @pytest.mark.parametrize("text", OFF_GRAMMAR)
    def test_rejects_spellings_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_as_rational_refuses_a_bool(self, value):
        # a JSON true or false is not a number, although Python counts it as an int
        with pytest.raises(TypeError, match=f"cannot interpret {value} as an exact rational"):
            as_rational(value)

    def test_benchmark_parameters_stay_valid(self):
        values = ["1", "-1", "1/2", "-1/2", "3/2", "-3/2", "1/7", "1/3", "-1/3", "1/5", "-1/5",
                  "1/4", "-1/4", "2"]
        assert [parse_rational(text) for text in values] == [F(text) for text in values]
        assert parse_rational(" -3/2 ") == F(-3, 2)


class TestPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()
        assert Poly([0]).degree == -1

    def test_sub_and_scalar_ops(self):
        p = Poly([1, 2, 3])
        assert p - p == Poly.zero()
        assert (p * F(1, 3)).coeffs == (F(1, 3), F(2, 3), 1)
        assert p / 2 == p * F(1, 2)
        assert p + Poly.zero() == p
        assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])
        assert Poly([0, 0, 1]) * Poly([0, 0, 0, 1]) == Poly([0, 0, 0, 0, 0, 1])

    @given(polys, st.integers(min_value=-50, max_value=50))
    @example(Poly([F(1, 2), F(-3, 4)]), -6)
    @example(Poly.zero(), -1)
    def test_int_scalars_act_as_their_fraction(self, p, m):
        assert p * m == p * F(m) == m * p == Poly([c * m for c in p.coeffs])
        if m:
            assert p / m == p / F(m) == Poly([c / m for c in p.coeffs])
        for zero in (0, F(0)):
            with pytest.raises(ZeroDivisionError):
                p / zero

    def test_int_and_fraction_coefficients_build_no_fraction(self, monkeypatch):
        half, two_thirds, built = F(1, 2), F(2, 3), []
        new = F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(args)
                            or new(cls, *args, **kw))
        p, c, q = Poly([1, half, -3]), Poly.const(5), Poly((two_thirds, 1))
        assert built == []
        monkeypatch.undo()
        assert (p.nums, p.den, c.nums, c.den, q.nums, q.den) == ((2, 1, -6), 2, (5,), 1, (2, 3), 3)

    def test_other_coefficients_are_read_by_as_rational(self):
        assert Poly(["1/2", " -3 ", 0]) == Poly([F(1, 2), -3]) == Poly.const("1/2") + Poly([0, -3])
        for bad, error in ((0.5, TypeError), (None, TypeError), ("1.5", ValueError)):
            with pytest.raises(error):
                Poly([1, bad])

    def test_str(self):
        assert str(Poly([0, 2, 0, 1])) == "x^3 + 2*x"
        assert str(Poly([F(-1, 2), -1])) == "-x - 1/2"
        assert str(Poly.zero()) == "0"


class TestShift:
    def test_square(self):
        assert shift(Poly([0, 0, 1]), 2) == Poly([4, 4, 1])

    def test_identity(self):
        p = Poly([3, F(1, 2), 7])
        assert shift(p, 0) == p

    def test_cubic(self):
        # (x+2)^3 + 2(x+2) = x^3 + 6x^2 + 14x + 12
        assert shift(Poly([0, 2, 0, 1]), 2) == Poly([12, 14, 6, 1])

    @given(polys, rationals, rationals)
    def test_shift_composes(self, p, a, b):
        assert shift(shift(p, a), b) == shift(p, a + b)


def horner_shift(p, h):
    """Reference p(x+h) by Horner composition on Fraction coefficient lists."""
    acc = []
    for c in reversed(p.coeffs):
        out = [F(0)] * (len(acc) + 1)
        for k, a in enumerate(acc):
            out[k] += h * a
            out[k + 1] += a
        out[0] += c
        acc = out
    return Poly(acc)


def naive_mul(p, q):
    """Reference p*q by Fraction convolution."""
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


# Wide denominators, so that lcm denominators exceed every single one.
kernel_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
kernel_polys = st.lists(kernel_rationals, max_size=12).map(Poly)
COPRIME = Poly([F(1, 2), F(-1, 3), F(1, 5), F(-1, 7), F(1, 11)])


class TestIntegerKernels:
    """shift and Poly*Poly work on integer numerators; they must agree with
    the Fraction references exactly and still store Fractions."""

    @given(kernel_polys, kernel_rationals)
    @example(Poly.zero(), F(-5, 6))
    @example(Poly.const(F(-7, 3)), F(5, 6))
    @example(COPRIME, F(-5, 6))
    @example(COPRIME, F(7, 4))
    def test_shift_matches_horner(self, p, h):
        q = shift(p, h)
        assert q == horner_shift(p, h)
        assert all(type(c) is F for c in q.coeffs)

    @given(kernel_polys, kernel_polys)
    @example(COPRIME, Poly([F(1, 13), F(-1, 17)]))
    @example(Poly.zero(), COPRIME)
    @example(Poly.const(F(2, 9)), COPRIME)
    def test_mul_matches_fraction_convolution(self, p, q):
        r = p * q
        assert r == naive_mul(p, q)
        assert all(type(c) is F for c in r.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(kernel_rationals, max_size=13).map(Poly), kernel_rationals)
    @example(COPRIME * COPRIME * COPRIME, F(-5, 6))
    def test_shift_matches_sympy(self, p, h):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k
                   for k, c in enumerate(p.coeffs))
        step = sympy.Rational(h.numerator, h.denominator)
        shifted = sympy.expand(sympy.sympify(expr).subs(x, x + step))
        coeffs = sympy.Poly(shifted, x).all_coeffs()[::-1] if p.coeffs else []
        assert shift(p, h) == Poly(F(int(c.p), int(c.q)) for c in coeffs)


def assert_normal(p):
    """(nums, den) is primitive: a tuple of ints over a positive int, gcd 1,
    no trailing zero numerator, and den 1 for the zero polynomial."""
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0 if p.nums else p.den == 1


def stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


monic_polys = st.lists(kernel_rationals, max_size=8).map(lambda cs: Poly([*cs, 1]))
storage_polys = kernel_polys | monic_polys


class TestStorage:
    """Poly holds integer numerators over one denominator; every operation
    must leave that pair primitive and agree with the coefficientwise
    Fraction arithmetic of the oracles."""

    @given(storage_polys, storage_polys, kernel_rationals)
    @example(Poly([F(1, 2), F(1, 2)]), Poly([F(1, 2), F(-1, 2)]), F(2))
    @example(COPRIME, COPRIME * -1, F(0))
    @example(Poly([F(1, 6)]), Poly([F(1, 3), F(5, 7)]), F(-7, 6))
    def test_operations_match_fraction_oracle(self, p, q, f):
        a, b = p.coeffs, q.coeffs
        cases = [
            (p + q, fraction_add(a, b)),
            (p - q, fraction_add(a, tuple(-c for c in b))),
            (p * f, stripped(c * f for c in a)),
            (f * p, stripped(c * f for c in a)),
            (derivative(p), tuple(k * c for k, c in enumerate(a) if k)),
        ]
        if f:
            cases.append((p / f, tuple(c / f for c in a)))
        for result, expected in cases:
            assert_normal(result)
            assert result.coeffs == expected
            assert all(type(c) is F for c in result.coeffs)

    @given(storage_polys, storage_polys, kernel_rationals)
    def test_every_result_is_primitive(self, p, q, h):
        assert_normal(p)
        for result in (p * q, shift(p, h), Poly.const(h), Poly([0, 0, 0, h]),
                       p * 0, p - p, Poly.zero(), Poly.one(), Poly.x()):
            assert_normal(result)
        if h:
            assert_normal(delta_w(p, h))

    @given(storage_polys)
    @example(Poly.zero())
    @example(Poly([F(1, 3), 1]))
    @example(Poly([F(1, 3), F(2, 2)]))
    def test_readers_match_fraction_oracle(self, p):
        a = p.coeffs
        for k in range(-1, len(a) + 2):
            assert p.coefficient(k) == (a[k] if 0 <= k < len(a) else 0)
        assert p.coefficient(p.degree) == (a[-1] if a else 0)
        assert p.is_monic() == (bool(a) and a[-1] == 1)
        assert p.degree == len(a) - 1
        assert p.is_zero() == (not a)

    @given(storage_polys)
    @example(Poly([0, F(1, 6), F(2, 3), 1]))
    def test_format_coeffs_matches_format_rational(self, p):
        assert format_coeffs(p) == [format_rational(c) for c in p.coeffs]

    @given(storage_polys)
    def test_coeffs_round_trip(self, p):
        again = Poly(p.coeffs)
        assert again == p
        assert hash(again) == hash(p)
        assert (again.nums, again.den) == (p.nums, p.den)
        assert p.coeffs == tuple(F(c, p.den) for c in p.nums)

    @given(storage_polys, storage_polys)
    @example(Poly([1, 2]), Poly([F(1, 3), F(2, 3)]))
    def test_equality_is_coefficientwise(self, p, q):
        assert (p == q) == (p.coeffs == q.coeffs)

    @given(storage_polys)
    def test_immutable(self, p):
        for name in ("nums", "den", "coeffs", "_coeffs", "degree"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert Poly(p.coeffs) == p

    @pytest.mark.parametrize("den", [1, 6, -6])
    @pytest.mark.parametrize("k", range(6))
    def test_all_zero_numerators_are_the_zero_polynomial(self, k, den):
        zero = Poly._make([0] * k, den)
        assert zero == Poly.zero()
        assert (zero.nums, zero.den) == ((), 1)

    def test_readers_leave_coeffs_unbuilt(self):
        p = Poly([F(1, 2), F(-2, 3), 1])
        table = MomentTable(d=1, n_max=3, rows=(((35, 7, -15, 70), 35),))
        assert table.apply(0, p) == F(1, 2) + F(-2, 3) * F(1, 5) + F(-3, 7)
        p.degree, p.is_zero(), p.is_monic(), p.coefficient(1), str(p), format_coeffs(p)
        p + p, p * p, p * 2, p / 3, shift(p, F(1, 2)), derivative(p)
        assert not hasattr(p, "_coeffs")


def left_fold(terms):
    """Reference sum of (c, p) and (c, p, q) terms, folded in Fraction
    coefficients with ``naive_mul`` and ``fraction_add``: no ``lincomb`` and
    no ``Poly`` operator, both of which are ``lincomb`` underneath."""
    acc = ()
    for c, p, *q in terms:
        c = as_rational(c)
        acc = fraction_add(acc, tuple(c * a for a in (naive_mul(p, q[0]) if q else p).coeffs))
    return Poly(acc)


big_rationals = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
# int, Fraction (narrow and wide denominators) and "p/q" coefficients, the
# strings with a signed numerator and the unsigned denominator of the grammar.
coefficients = (st.integers(-20, 20) | kernel_rationals | big_rationals
                | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)))
term_polys = kernel_polys | st.lists(big_rationals, max_size=5).map(Poly)
terms_lists = st.lists(st.tuples(coefficients, term_polys)
                       | st.tuples(coefficients, term_polys, term_polys), max_size=6)


class TestLincomb:
    """lincomb adds its terms over one common denominator and reduces once;
    it must give the exact (nums, den) pair of the Fraction fold."""

    @settings(deadline=None)
    @given(terms_lists)
    @example([])
    @example([(0, COPRIME), (F(1, 3), Poly.zero()), (2, COPRIME, Poly.zero()), ("0/5", COPRIME)])
    @example([("-3/7", COPRIME), (F(5, 6), COPRIME, Poly([F(1, 13), F(-1, 17)])),
              (-1, Poly.const(F(2, 9)))])
    @example([(F(1, 10**30 + 1), COPRIME), (F(-1, 10**30 + 1), COPRIME, Poly.one())])
    @example([(F(1, 6), Poly([F(1, 2), 1])), (F(-1, 10), Poly([0, F(1, 3)]), COPRIME)])
    def test_matches_left_fold(self, terms):
        result, expected = lincomb(terms), left_fold(terms)
        assert (result.nums, result.den) == (expected.nums, expected.den)
        assert_normal(result)


class TestDeltaW:
    def test_square(self):
        assert delta_w(Poly([0, 0, 1]), 2) == Poly([2, 2])

    def test_kills_constants(self):
        assert delta_w(Poly.one(), F(5, 3)) == Poly.zero()

    def test_cubic(self):
        assert delta_w(Poly([0, 2, 0, 1]), 2) == Poly([6, 6, 3])

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            delta_w(X, 0)

    @given(polys, nonzero_rationals)
    @example(Poly.zero(), F(-3, 7))
    @example(Poly.const(F(5, 2)), F(-1, 2))
    @example(Poly([F(1, 3), F(-2, 5), 0, F(7, 4)]), F(-11, 10))
    def test_matches_fraction_oracle(self, p, w):
        result = delta_w(p, w)
        assert result.coeffs == fraction_delta_w(p.coeffs, w)
        assert_normal(result)
        if p.degree <= 0:
            assert result == Poly.zero()

    @given(polys.filter(lambda p: p.degree >= 1), nonzero_rationals)
    def test_degree_drop_and_leading(self, p, w):
        d = delta_w(p, w)
        assert d.degree == p.degree - 1
        assert d.coefficient(d.degree) == p.degree * p.coefficient(p.degree)

    @given(st.integers(min_value=1, max_value=8), nonzero_rationals)
    def test_monomial_expansion(self, n, w):
        # delta_w(x^n) = sum_{k<n} C(n,k) w^(n-1-k) x^k, the w -> 0 limit of
        # which is the derivative.
        expect = Poly([binomial(n, k) * w ** (n - 1 - k) for k in range(n)])
        assert delta_w(Poly([0] * n + [1]), w) == expect

    @given(polys)
    def test_derivative_is_limit(self, p):
        # coefficientwise: derivative coefficients equal the w-free part
        assert derivative(p) == Poly([k * c for k, c in enumerate(p.coeffs) if k > 0])


class TestDerivative:
    def test_examples(self):
        assert derivative(Poly([0, 0, 0, 1])) == Poly([0, 0, 3])
        assert derivative(Poly.one()) == Poly.zero()
        assert derivative(Poly([4, 4, 1])) == Poly([4, 2])


class TestFactorials:
    def test_falling_base_cases(self):
        assert falling_factorial(F(7, 2), 0) == Poly.one()
        assert falling_factorial(1, 3) == Poly([0, 2, -3, 1])
        assert falling_factorial(2, 2) == Poly([0, -2, 1])

    def test_connection_example(self):
        # x(x+2) is the step-2 falling product x(x-2) shifted by 2
        assert X * (X + Poly.const(2)) == shift(falling_factorial(2, 2), 2)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=20), nonzero_rationals)
    def test_rising_falling_connection(self, n, w):
        rising = Poly.one()
        for j in range(n):
            rising = rising * Poly((j * w, 1))
        assert rising == shift(falling_factorial(w, n), (n - 1) * w)


@given(nonzero_rationals, nonzero_rationals)
def test_exact_inverse_product(a, b):
    assert (a / b) * (b / a) == 1
