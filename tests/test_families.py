"""Family constructors: recurrence and generating-function routes must agree,
companion sequences obey their shifted recurrence, and the hypergeometric
sums match hand-computed values."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dops.families import (
    FamilyParamError,
    HypParams,
    LagParams,
    MLParams,
    read_params,
    write_params,
    hyp_laguerre,
    hyp_quasi,
    ml_by_gf,
    ml_by_recurrence,
    ml_recurrence_table,
    q_sequence,
    terminating_pfq,
)
from dops.orthogonality import fit_recurrence
from dops.polynomials import Poly, binomial, delta_w, derivative
import oracles
from oracles import terminating_pfq as fraction_pfq

X = Poly.x()

ML_GRID = [
    MLParams(1, 1, -1),
    MLParams(1, 2, F(1, 2)),
    MLParams(1, 0, -1),
    MLParams(1, F(1, 3), F(-2, 5)),
    MLParams(2, 1, -1, [1]),
    MLParams(2, 2, F(1, 2), [F(-1, 3)]),
    MLParams(2, 0, -1, [F(1, 2)]),
    MLParams(3, 1, -1, [1, F(1, 2)]),
    MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
    MLParams(3, 0, -1, [F(1, 2), -1]),
]

LAG_GRID = [
    LagParams(1, 1),
    LagParams(1, 1, -1),
    LagParams(2, F(1, 2), F(-3, 2), 0, [1, F(1, 3)]),
    LagParams(2, 1, -2, F(1, 2), [0, 1]),
    LagParams(3, F(2, 3), F(5, 4), F(-1, 3), [1, F(1, 2), F(-2, 5)]),
]


class TestMLParams:
    def test_rejects_equal_ratio_parameters(self):
        with pytest.raises(FamilyParamError, match="alpha must differ from beta"):
            MLParams(1, 1, 1)

    def test_requires_matching_c_length(self):
        with pytest.raises(FamilyParamError):
            MLParams(2, 1, -1)
        with pytest.raises(FamilyParamError):
            MLParams(1, 1, -1, [1])

    def test_exponent_is_egf_form(self):
        p = MLParams(3, 1, -1, [F(1, 2), F(1, 3)])
        assert p.exponent(1) == F(1, 2)       # 1! c_1
        assert p.exponent(2) == 2 * F(1, 3)   # 2! c_2
        assert p.exponent(3) == 0             # zero from d on
        assert p.exponent(6) == 0
        assert p.ratio == (1, -1)


# (kind, d, the values read_params reads, the same parameters built directly)
PARAMETER_SETS = [
    ("ml", 2, {"alpha": "1/2", "beta": -1, "c": "1/3"}, MLParams(2, F(1, 2), -1, [F(1, 3)])),
    ("charlier", 1, {"alpha": 0, "beta": "-2"}, MLParams(1, 0, -2)),
    ("laguerre", 2, {"a": "1/2", "theta": None, "b": [1, "1/3"]},
     LagParams(2, F(1, 2), 0, 0, [1, F(1, 3)])),
    ("hyp-laguerre", 2, {"alphavec": "1/2,1/3", "beta": "1/4", "l": 2},
     HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)),
]
PARAMETER_IDS = [kind for kind, *_ in PARAMETER_SETS]


class TestParameterRecords:
    @pytest.mark.parametrize("kind, d, values, built", PARAMETER_SETS, ids=PARAMETER_IDS)
    def test_read_params_equals_and_hashes_like_the_direct_build(self, kind, d, values, built):
        # Argument-keyed tooling (bench/spans.py) counts parameter sets by value.
        read = read_params(kind, d, values)
        assert read == built and hash(read) == hash(built)

    @pytest.mark.parametrize("kind, d, values, built", PARAMETER_SETS, ids=PARAMETER_IDS)
    def test_write_params_round_trips(self, kind, d, values, built):
        written = write_params(read_params(kind, d, values))
        assert read_params(kind, written.pop("d"), written) == built

    @pytest.mark.parametrize("params, name", [(MLParams(1, 1, -1), "alpha"), (LagParams(1, 1), "b"),
                                              (HypParams(1, [0]), "l")], ids=["ml", "laguerre", "hyp"])
    def test_fields_cannot_be_assigned(self, params, name):
        with pytest.raises(AttributeError):
            setattr(params, name, 3)
        with pytest.raises(AttributeError):
            params.d = 2
        assert params.d == 1


class TestMLFamilies:
    def test_classical_values(self):
        polys = ml_by_recurrence(MLParams(1, 1, -1), 4)
        assert polys[0] == Poly.one()
        assert polys[1] == X
        assert polys[2] == Poly([0, 0, 1])
        assert polys[3] == Poly([0, 2, 0, 1])
        assert polys[4] == Poly([0, 0, 8, 0, 1])

    def test_initial_data(self):
        p = MLParams(2, 2, F(1, 2), [F(3, 7)])
        polys = ml_by_recurrence(p, 1)
        assert polys[0] == Poly.one()
        assert polys[1] == X + Poly.const(p.exponent(1))

    def test_order_zero(self):
        assert ml_by_gf(MLParams(1, 1, -1), 0) == [Poly.one()]

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_routes_agree(self, p):
        assert ml_by_recurrence(p, 15) == ml_by_gf(p, 15)

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_monic_of_full_degree(self, p):
        for n, poly in enumerate(ml_by_recurrence(p, 12)):
            assert poly.degree == n
            assert poly.is_monic()

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_recurrence_table_is_the_fitted_table(self, p):
        table = ml_recurrence_table(p, 10)
        fitted = fit_recurrence(table.regenerate(), p.d)
        assert fitted.beta == table.beta
        assert fitted.gamma == table.gamma

    def test_charlier_limit_is_appell(self):
        p = MLParams(2, 0, -1, [F(1, 2)])
        polys = ml_by_gf(p, 10)
        for n in range(10):
            assert delta_w(polys[n + 1], p.w) == polys[n] * (n + 1)


class TestMLCompanions:
    def test_classical_companions(self):
        p = MLParams(1, 1, -1)
        q = q_sequence(ml_by_recurrence(p, 4), lambda f: delta_w(f, p.w))
        assert q[0] == Poly.one()
        assert q[1] == Poly([1, 1])
        assert q[2] == Poly([2, 2, 1])

    def test_appell_companions_equal_family(self):
        p = MLParams(1, 0, -1)
        polys = ml_by_recurrence(p, 8)
        assert q_sequence(polys, lambda f: delta_w(f, p.w)) == polys[:-1]

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_companion_band_recurrence(self, p):
        # The companion sequence satisfies the same band recurrence with the
        # constant term shifted by alpha and the two-back bracket advanced by
        # one step of alpha*beta.
        n_max = 13
        q = q_sequence(ml_by_recurrence(p, n_max), lambda f: delta_w(f, p.w))
        alpha, beta = p.alpha, p.beta
        for n in range(len(q) - 1):
            nxt = (X + Poly.const((alpha + beta) * n + p.exponent(1) + alpha)) * q[n]
            if n >= 1:
                nxt -= q[n - 1] * (n * (n * alpha * beta + (alpha + beta) * p.exponent(1)
                                        - p.exponent(2)))
            for k in range(2, min(n, p.d) + 1):
                coef = (p.exponent(k + 1) - (alpha + beta) * k * p.exponent(k)
                        + alpha * beta * k * (k - 1) * p.exponent(k - 1))
                nxt += q[n - k] * (binomial(n, k) * coef)
            assert q[n + 1] == nxt, f"companion recurrence broke at n={n}"

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_companions_monic(self, p):
        q = q_sequence(ml_by_recurrence(p, 10), lambda f: delta_w(f, p.w))
        for n, poly in enumerate(q):
            assert poly.degree == n
            assert poly.is_monic()


class TestLaguerreFamilies:
    def test_normalization(self):
        assert ml_by_gf(LagParams(2, 1, 3, F(5, 7), [1, 2]), 0) == [Poly.one()]

    def test_degree_one(self):
        p = LagParams(2, F(1, 2), F(2, 3), F(-1, 5), [4, F(1, 6)])
        expect = X + Poly.const(p.a * (p.theta - p.beta_exp) + p.b[1])
        assert ml_by_gf(p, 1)[1] == expect
        assert ml_by_recurrence(p, 1)[1] == expect

    def test_plain_exponential_case(self):
        assert ml_by_gf(LagParams(1, 1), 2)[2] == Poly([0, 2, 1])

    @pytest.mark.parametrize("p", LAG_GRID, ids=str)
    def test_routes_agree(self, p):
        assert ml_by_recurrence(p, 12) == ml_by_gf(p, 12)

    @pytest.mark.parametrize("p", LAG_GRID, ids=str)
    def test_monic_of_full_degree(self, p):
        for n, poly in enumerate(ml_by_recurrence(p, 10)):
            assert poly.degree == n
            assert poly.is_monic()

    def test_b0_only_affects_removed_constant(self):
        base = LagParams(2, 1, -2, 0, [0, 1])
        moved = LagParams(2, 1, -2, 0, [F(7, 3), 1])
        assert ml_by_gf(base, 8) == ml_by_gf(moved, 8)

    def test_theta_is_an_x_shift(self):
        from dops.polynomials import shift
        p = LagParams(2, 1, -2, F(1, 2), [0, 1])
        base = ml_by_recurrence(LagParams(2, 1, -2, 0, [0, 1]), 8)
        shifted = ml_by_recurrence(p, 8)
        for n in range(9):
            assert shifted[n] == shift(base[n], p.a * p.theta)

    def test_derivative_companions_shift_exponent(self):
        # Q_n = P'_{n+1}/(n+1) is the family with beta_exp lowered by one.
        p = LagParams(2, F(1, 2), F(-3, 2), 0, [1, F(1, 3)])
        lowered = LagParams(2, F(1, 2), F(-5, 2), 0, [1, F(1, 3)])
        q = q_sequence(ml_by_recurrence(p, 9), derivative)
        assert q == ml_by_recurrence(lowered, 8)

    def test_rejects_zero_scale(self):
        with pytest.raises(FamilyParamError, match="a must be nonzero"):
            LagParams(1, 0)


class TestConfluentLimit:
    @pytest.mark.parametrize("d,a,c", [
        (1, F(1, 2), []),
        (2, 1, [F(1, 3)]),
        (2, F(-2, 3), [F(1, 2)]),
    ])
    def test_equal_ratio_parameters_give_laguerre(self, d, a, c):
        # The band recurrence coefficients are polynomial in (alpha, beta), so
        # their value at the confluent point alpha = beta = a is the exact
        # w -> 0 limit; it must coincide with the derivative-operator family
        # under b_i = i! c_i, beta_exp = 0, theta = 0.
        lag_b = [F(0)] + [math.factorial(i) * c[i - 1] for i in range(1, d)]
        p = LagParams(d, a, 0, 0, lag_b)
        confluent = ml_recurrence_table(p, 8).regenerate()
        assert confluent == oracles.laguerre_by_recurrence(p, 8)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def lag_params(draw):
    """Laguerre parameters at d = 1..4 with beta_exp and theta nonzero."""
    d = draw(st.integers(1, 4))
    b = draw(st.lists(small_rationals, min_size=d, max_size=d))
    return LagParams(d, draw(nonzero_rationals), draw(nonzero_rationals), draw(nonzero_rationals), b)


class TestLaguerreDifferential:
    @settings(max_examples=30, deadline=None)
    @given(lag_params())
    @example(LagParams(4, F(-2, 3), F(5, 4), F(1, 3), [1, F(1, 2), F(-2, 5), 3]))
    def test_both_routes_match_the_explicit_recurrence(self, p):
        # The confluent-table route and the generating function route against
        # the Laguerre band recurrence written out term by term.
        expected = oracles.laguerre_by_recurrence(p, 14)
        assert ml_by_recurrence(p, 14) == expected
        assert ml_by_gf(p, 14) == expected

    @settings(max_examples=30, deadline=None)
    @given(lag_params())
    @example(LagParams(4, F(-2, 3), F(5, 4), F(1, 3), [1, F(1, 2), F(-2, 5), 3]))
    def test_gf_route_matches_the_explicit_exponent(self, p):
        # The generating function route reads the family off the confluent
        # ratio-power exponent; the oracle writes the Laguerre exponent out
        # with its own x term and log(1 - a t) series.
        assert ml_by_gf(p, 14) == oracles.laguerre_by_gf(p, 14)


class TestRecurrenceTableHoist:
    """ml_recurrence_table reads each of exponent(1..d+1) once, whatever n_max is."""

    @staticmethod
    def count_exponent_calls(monkeypatch, cls):
        calls = []
        exponent = cls.exponent

        def counting(params, n):
            calls.append(n)
            return exponent(params, n)

        monkeypatch.setattr(cls, "exponent", counting)
        return calls

    @pytest.mark.parametrize("d", range(1, 5))
    def test_ml_reads_the_exponent_at_most_d_plus_one_times(self, monkeypatch, d):
        p = MLParams(d, F(1, 2), F(-1, 3), [F(k + 1, 3) for k in range(d - 1)])
        expected = ml_by_gf(p, 40)
        calls = self.count_exponent_calls(monkeypatch, MLParams)
        assert ml_by_recurrence(p, 40) == expected
        assert len(calls) <= d + 1

    @pytest.mark.parametrize("d", range(1, 5))
    def test_laguerre_reads_the_exponent_at_most_d_plus_one_times(self, monkeypatch, d):
        p = LagParams(d, F(1, 2), F(-3, 2), F(1, 7), [F(1, k + 2) for k in range(d)])
        expected = oracles.laguerre_by_recurrence(p, 40)
        calls = self.count_exponent_calls(monkeypatch, LagParams)
        assert ml_by_recurrence(p, 40) == expected
        assert len(calls) <= d + 1


# The pool entries of the benchmark's laguerre-report (d = 3) and ml-verify
# (d = 2) workloads, as their command lines give them.
LAGUERRE_REPORT_POOL = [
    LagParams(3, a, beta_exp, F(1, 7), b) for a, beta_exp, b in (
        (F(1, 2), F(-3, 2), [1, F(1, 3), F(1, 5)]),
        (F(-1, 2), F(-3, 2), [1, F(-1, 3), F(1, 5)]),
        (F(1, 2), F(3, 2), [-1, F(1, 3), F(-1, 5)]),
        (F(-1, 2), F(3, 2), [-1, F(-1, 3), F(-1, 5)]),
    )
]
ML_VERIFY_POOL = [MLParams(2, 1, -1, [1]), MLParams(2, -1, 1, [-1]),
                  MLParams(2, 1, -1, [-1]), MLParams(2, -1, 1, [1])]


class TestBenchmarkConfigurations:
    @pytest.mark.parametrize("n_max", [48, 64])
    @pytest.mark.parametrize("p", LAGUERRE_REPORT_POOL)
    def test_laguerre_report_routes_agree(self, p, n_max):
        assert ml_by_gf(p, n_max) == ml_by_recurrence(p, n_max)

    @pytest.mark.parametrize("p", ML_VERIFY_POOL)
    def test_ml_verify_routes_agree(self, p):
        assert ml_by_gf(p, 32) == ml_by_recurrence(p, 32)


class TestHypFamilies:
    def test_base_cases(self):
        assert hyp_laguerre(HypParams(2, [0, 0]), 2) == [
            Poly.one(), Poly([1, -1]), Poly([1, -2, F(1, 4)])]

    def test_quasi_base_cases(self):
        assert hyp_quasi(HypParams(1, [1], 0, 1), 1) == [Poly.one(), Poly([1, -1])]

    def test_quasi_reduces_when_first_parameter_aligns(self):
        # With alpha_1 = beta + d*l the extra numerator cancels against the
        # alpha_1 denominator and the combination is the plain family with
        # beta in the first slot.
        p = HypParams(2, [F(5, 2), F(4, 3)])
        beta = p.alphavec[0] - 2  # d*l = 2
        reduced = HypParams(2, [beta, F(4, 3)])
        assert hyp_quasi(HypParams(2, p.alphavec, beta, 1), 6) == hyp_laguerre(reduced, 6)

    def test_rejects_negative_integer_parameters(self):
        with pytest.raises(FamilyParamError):
            HypParams(1, [-2])
        with pytest.raises(FamilyParamError):
            hyp_quasi(HypParams(1, [1], -3, 1), 2)

    def test_degree_and_value_at_zero(self):
        p = HypParams(2, [F(1, 2), F(4, 3)])
        for n, poly in enumerate(hyp_laguerre(p, 7)):
            assert poly.degree == n
            assert poly.coefficient(0) == 1


def pfq_outcome(n_max, extra_num, den):
    """The table of terminating sums for n = 0..n_max, each row reduced with
    Poly._make to its (numerators, denominator) pair, or the text of the
    FamilyParamError it raises.  Row n holds n + 1 numerators, trailing zeros
    kept, over a positive denominator, and reducing it leaves it as it was."""
    try:
        rows = terminating_pfq(n_max, extra_num, den)
    except FamilyParamError as exc:
        return str(exc)
    polys = [row.poly() for row in rows]
    assert [(len(row.nums), row.den > 0) for row in rows] == [(n + 1, True) for n in range(n_max + 1)]
    return [(poly.nums, poly.den) for poly in polys]


def oracle_outcome(n_max, extra_num, den):
    """The same from the Fraction loop, one sum per n; the first n that
    raises names the first vanishing denominator, as the table must."""
    try:
        table = [fraction_pfq(n, extra_num, den) for n in range(n_max + 1)]
    except FamilyParamError as exc:
        return str(exc)
    return [(poly.nums, poly.den) for poly in table]


# A nonpositive integer a_j ends the sum early; a nonpositive integer b_j
# makes a denominator Pochhammer vanish when -b_j < n_max.
pfq_parameters = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=7),
                           st.integers(-12, 0).map(F))


class TestTerminatingPfq:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12), st.lists(pfq_parameters, max_size=2),
           st.lists(pfq_parameters, max_size=2))
    @example(5, [F(1, 2)], [F(2, 3), F(-3)])
    @example(4, [F(1, 2)], [F(2, 3), F(-3)])
    @example(3, [F(1, 2)], [F(2, 3), F(-3)])
    @example(6, [F(-2)], [F(1, 3)])
    @example(12, [F(-5), F(1, 2)], [F(-12), F(7, 3)])
    @example(3, [], [F(5, 4), F(7, 6)])
    @example(0, [], [F(0)])
    def test_integer_term_ratio_matches_fraction_loop(self, n_max, extra_num, den):
        assert pfq_outcome(n_max, extra_num, den) == oracle_outcome(n_max, extra_num, den)

    @pytest.mark.parametrize("extra_num, den", [
        ([F(1, 2)], [F(2, 3), F(5, 4)]),
        ([F(-5), F(1, 2)], [F(-12), F(7, 3)]),
        ([F(1, 2)], [F(2, 3), F(-3)]),
    ])
    def test_orders_in_any_sequence_match_fraction_loop(self, extra_num, den):
        # The signed binomials are shared between tables of one order; orders
        # taken out of sequence in one process must not see each other's.
        for n_max in (12, 3, 0, 20, 5):
            assert pfq_outcome(n_max, extra_num, den) == oracle_outcome(n_max, extra_num, den)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12), st.lists(pfq_parameters, max_size=2),
           st.lists(pfq_parameters, max_size=2))
    @example(3, [F(1, 2)], [F(2, 3), F(-3)])
    @example(6, [F(-2)], [F(1, 3)])
    @example(12, [F(-5), F(1, 2)], [F(-12), F(7, 3)])
    @example(3, [], [F(5, 4), F(7, 6)])
    @example(3, [F(1, 2)], [F(-3, 4), F(-7, 6)])
    def test_row_is_over_the_lcm_of_the_step_products(self, n_max, extra_num, den):
        """Row n's den is lcm(den R_0, ..., den R_n) for the reduced step
        products R_k = prod_{i<k} u_i / v_i, a divisor of prod_{i<n} v_i."""
        try:
            rows = terminating_pfq(n_max, extra_num, den)
        except FamilyParamError:
            return
        steps = [F(math.prod(a + i for a in extra_num)) / math.prod(b + i for b in den)
                 for i in range(n_max)]
        products = [F(1)]
        for step in steps:
            products.append(products[-1] * step)
        for n, row in enumerate(rows):
            assert row.den == math.lcm(*(r.denominator for r in products[:n + 1]))
            assert math.prod(step.denominator for step in steps[:n]) % row.den == 0

    def test_running_lcm_keeps_the_benchmark_rows_small(self):
        # the hyp-verify benchmark's quasi table: d = 2, alphavec 1/2, 1/3,
        # beta = 1/4, l = 2 and N = 80; over prod v_i row 80's den has 1371 bits
        p = HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
        dens = tuple(a + 1 for a in p.alphavec) + (p.beta + 1,)
        rows = terminating_pfq(80, (p.beta + p.d * p.l + 1,), dens)
        assert rows[80].den.bit_length() < 900

    def test_vanishing_denominator_names_its_index(self):
        # (-3)_k vanishes from k = 4 on, so every table reaching n = 4 raises
        for n_max in (4, 5, 12):
            with pytest.raises(FamilyParamError, match="^Pochhammer denominator vanishes at k=4$"):
                terminating_pfq(n_max, [F(1, 2)], [F(2, 3), F(-3)])
        # past the last term a vanishing denominator is never reached
        table = terminating_pfq(3, [], [F(-3)])
        assert [row.poly() for row in table] == [fraction_pfq(n, [], [F(-3)]) for n in range(4)]


class TestSympyOracle:
    """sympy's own series expansion of each generating function is a route
    independent of dops.series; it must give the recurrence route."""

    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.sympy = pytest.importorskip("sympy")
        self.x, self.t = self.sympy.symbols("x t")

    def rational(self, value):
        return self.sympy.Rational(value.numerator, value.denominator)

    def poly(self, expr) -> Poly:
        coeffs = self.sympy.Poly(self.sympy.expand(expr), self.x).all_coeffs()[::-1]
        return Poly(F(int(c.p), int(c.q)) for c in coeffs)

    def egf_polys(self, gf, order: int) -> list[Poly]:
        """n! times the t**n coefficient of gf, for n = 0..order."""
        expansion = self.sympy.series(gf, self.t, 0, order + 1).removeO()
        return [self.poly(self.sympy.factorial(n) * expansion.coeff(self.t, n))
                for n in range(order + 1)]

    def test_ml(self):
        p = MLParams(2, F(1, 2), F(-1, 3), [F(1, 5)])
        alpha, beta, c = self.rational(p.alpha), self.rational(p.beta), self.rational(p.c[0])
        x, t = self.x, self.t
        gf = ((1 - beta * t) / (1 - alpha * t)) ** (x / (alpha - beta)) * self.sympy.exp(c * t)
        assert self.egf_polys(gf, 8) == ml_by_recurrence(p, 8)

    def test_laguerre(self):
        # order 5: sympy needs ~3 s here and close to a minute at order 8
        p = LagParams(3, 1, F(-1, 2), F(1, 3), [0, F(1, 2), F(1, 3)])
        a, theta = self.rational(p.a), self.rational(p.theta)
        x, t = self.x, self.t
        pi = sum(self.rational(p.b_at(i)) * t**i / self.sympy.factorial(i) for i in range(1, p.d))
        # the t = 0 constant exp(theta + b_0) is removed, as in ml_by_gf
        gf = ((1 - a * t) ** self.rational(p.beta_exp)
              * self.sympy.exp((x * t + theta) / (1 - a * t) - theta + pi))
        assert self.egf_polys(gf, 5) == ml_by_recurrence(p, 5)

    def test_hyp_laguerre_d1_is_assoc_laguerre(self):
        alpha = F(1, 2)
        a = self.rational(alpha)
        for n, poly in enumerate(hyp_laguerre(HypParams(1, [alpha]), 8)):
            expected = (self.sympy.factorial(n) / self.sympy.rf(a + 1, n)
                        * self.sympy.assoc_laguerre(n, a, self.x))
            assert poly == self.poly(expected)
