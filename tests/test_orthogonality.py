"""Recurrence fitting, moments by inversion, and the orthogonality pattern.

The moment route gets an independent oracle here: the lowering-operator
representation of the dual functionals (a truncated operator polynomial in
the forward difference applied at 0) must reproduce every inversion moment.
The three integer-numerator kernels are also compared with the ``Poly``
routes in ``tests/oracles.py`` on random graded bases.
"""

import math
from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dops import orthogonality
from dops.families import (
    HypParams,
    LagParams,
    MLParams,
    hyp_laguerre,
    hyp_quasi,
    ml_by_recurrence,
)
from dops.orthogonality import (
    FitError,
    MomentTable,
    RecurrenceTable,
    check_regularity,
    expand_in_basis,
    fit_recurrence,
    moments_by_inversion,
    quasi_orthogonality_order,
    verify_d_orthogonality,
)
from dops.polynomials import Poly, Row, delta_w, lincomb, shift

X = Poly.x()

CLASSICAL = MLParams(1, 1, -1)
REGULAR_D2 = MLParams(2, 1, -1, [1])


def monomials(n_max):
    return [Poly([0] * n + [1]) for n in range(n_max + 1)]


class TestExpandInBasis:
    def test_own_basis_is_unit_vector(self):
        polys = ml_by_recurrence(REGULAR_D2, 6)
        coords = expand_in_basis(polys[4], polys)
        assert coords == Poly([0, 0, 0, 0, 1])

    def test_shifted_square(self):
        polys = ml_by_recurrence(CLASSICAL, 4)
        assert expand_in_basis(shift(polys[2], 2), polys) == Poly([4, 4, 1])

    def test_quasi_support_window(self):
        p = HypParams(2, [F(1, 2), F(4, 3)], F(1, 5), 1)
        basis, quasi = hyp_laguerre(p, 8), hyp_quasi(p, 8)
        for n in range(2, 9):
            coords = expand_in_basis(quasi[n], basis)
            low = next(i for i, c in enumerate(coords.nums) if c != 0)
            assert low == n - 2  # support [n - d*l, n] with d*l = 2
            assert coords.coefficient(n - 2) != 0

    def test_zero_polynomial(self):
        assert expand_in_basis(Poly.zero(), monomials(3)) == Poly.zero()

    def test_needs_enough_basis_elements(self):
        with pytest.raises(ValueError):
            expand_in_basis(Poly([0, 0, 0, 0, 0, 1]), monomials(3))


class TestFitRecurrence:
    def test_classical_table(self):
        table = fit_recurrence(ml_by_recurrence(CLASSICAL, 4), 1)
        assert table.beta == (0, 0, 0, 0)
        assert table.gamma_at(1, 0) == 0
        assert table.gamma_at(2, 0) == -2
        assert table.gamma_at(3, 0) == -6

    def test_monomials(self):
        table = fit_recurrence(monomials(6), 1)
        assert all(b == 0 for b in table.beta)
        assert all(v == 0 for v in table.gamma.values())

    @pytest.mark.parametrize("p", [
        REGULAR_D2,
        MLParams(2, 2, F(1, 2), [F(-1, 3)]),
        MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
    ], ids=str)
    def test_recovers_band_coefficients(self, p):
        # The fitted table must equal the construction coefficients rewritten
        # in the subtracted-gamma sign convention.
        n_max = 10
        table = fit_recurrence(ml_by_recurrence(p, n_max), p.d)
        alpha, beta = p.alpha, p.beta
        for n in range(n_max):
            assert table.beta[n] == -((alpha + beta) * n + p.exponent(1))
        for n in range(1, n_max):
            expect = n * ((n - 1) * alpha * beta + (alpha + beta) * p.exponent(1)
                          - p.exponent(2))
            assert table.gamma_at(n, p.d - 1) == expect
        for k in range(2, p.d + 1):
            bracket = (p.exponent(k + 1) - (alpha + beta) * k * p.exponent(k)
                       + alpha * beta * k * (k - 1) * p.exponent(k - 1))
            for n in range(k, n_max):
                assert table.gamma_at(n - k + 1, p.d - k) == -math.comb(n, k) * bracket

    def test_table_equality_reads_gamma(self):
        # Two tables that differ only in gamma run different recurrences, so
        # they are unequal; equal tables hash equal, gamma being a dict.
        table = RecurrenceTable(1, 2, (0, 0), {(1, 0): 1})
        assert table != RecurrenceTable(1, 2, (0, 0), {(1, 0): 2})
        assert table.regenerate() != RecurrenceTable(1, 2, (0, 0), {(1, 0): 2}).regenerate()
        same = RecurrenceTable(1, 2, (0, 0), {(1, 0): F(1)})
        assert table == same and hash(table) == hash(same)
        assert table != RecurrenceTable(1, 2, (0, 1), {(1, 0): 1})

    def test_round_trip(self):
        polys = ml_by_recurrence(MLParams(3, 1, -1, [1, F(1, 2)]), 9)
        assert fit_recurrence(polys, 3).regenerate() == polys

    def test_inconsistent_sequence_reports_index(self):
        bad = [Poly.one(), X, Poly([0, 0, 1]), Poly([1, 0, 0, 1])]
        with pytest.raises(FitError) as exc:
            fit_recurrence(bad, 1)
        assert exc.value.index == 2

    def test_requires_monic_graded_input(self):
        with pytest.raises(ValueError):
            fit_recurrence([Poly.one(), X * 2, Poly([0, 0, 1])], 1)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_fit_recovers_arbitrary_band_recurrences(d, data):
    # Completeness: fitting is exact for any band recurrence, not only the
    # ones the families produce; zeros anywhere in the table are fine.
    n_max = d + 4
    beta = [data.draw(small_rationals) for _ in range(n_max)]
    gamma = {}
    polys = [Poly.one()]
    for n in range(n_max):
        nxt = (X - Poly.const(beta[n])) * polys[n]
        for nu in range(min(d, n)):
            value = data.draw(small_rationals)
            gamma[(n - nu, d - 1 - nu)] = value
            nxt -= polys[n - 1 - nu] * value
        polys.append(nxt)
    table = fit_recurrence(polys, d)
    assert list(table.beta) == beta
    assert table.gamma == gamma
    assert table.regenerate() == polys


class TestRegularity:
    def test_classical_flags_only_first(self):
        table = fit_recurrence(ml_by_recurrence(CLASSICAL, 10), 1)
        assert check_regularity(table) == [0]

    def test_regular_d2_family(self):
        table = fit_recurrence(ml_by_recurrence(REGULAR_D2, 13), 2)
        assert check_regularity(table) == []

    def test_vanishing_product_flags_everything(self):
        # For d >= 2 the bottom gamma class is a multiple of
        # alpha*beta*b_{d-2}; killing that product kills regularity.
        p = MLParams(2, 1, -1, [0])
        table = fit_recurrence(ml_by_recurrence(p, 13), 2)
        assert check_regularity(table) == list(range(11))  # m = 0..N - 1 - d


class TestMoments:
    def test_monomials_give_identity(self):
        table = moments_by_inversion(monomials(5), 2)
        for r in range(2):
            for k in range(6):
                assert table.moment(r, k) == (1 if r == k else 0)

    def test_biorthogonality(self):
        polys = ml_by_recurrence(REGULAR_D2, 10)
        table = moments_by_inversion(polys, 2)
        for r in range(2):
            for m in range(11):
                assert table.apply(r, polys[m]) == (1 if r == m else 0)

    def test_classical_low_moments_vanish(self):
        table = moments_by_inversion(ml_by_recurrence(CLASSICAL, 6), 1)
        assert table.moment(0, 1) == 0
        assert table.moment(0, 2) == 0

    def test_tables_with_equal_fields_are_equal(self):
        polys = ml_by_recurrence(REGULAR_D2, 6)
        table, again = moments_by_inversion(polys, 2), moments_by_inversion(list(polys), 2)
        assert table is not again and table == again and hash(table) == hash(again)
        assert table == MomentTable(table.d, table.n_max, table.rows)
        assert table != moments_by_inversion(polys, 1)

    def test_low_moments_vanish_below_r(self):
        polys = ml_by_recurrence(MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]), 8)
        table = moments_by_inversion(polys, 3)
        for r in range(3):
            for k in range(r):
                assert table.moment(r, k) == 0


def _sigma_moment(params: MLParams, r: int, f: Poly, order: int) -> F:
    """Independent oracle: the dual functionals act as
    (1/r!) sigma^r exp(-sum c_i sigma^i) at 0, with
    sigma = Delta_w (1 + alpha Delta_w)^(-1) expanded as a truncated operator
    polynomial in Delta_w (Delta_w is nilpotent on polynomials)."""

    def mul(a, b):
        out = [F(0)] * (order + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
        return out

    sigma = [F(0)] + [(-params.alpha) ** (j - 1) for j in range(1, order + 1)]
    op = [F(1)] + [F(0)] * order
    for _ in range(r):
        op = mul(op, sigma)
    exponent = [F(0)] * (order + 1)
    for i, ci in enumerate(params.c, start=1):
        spow = [F(1)] + [F(0)] * order
        for _ in range(i):
            spow = mul(spow, sigma)
        for j in range(order + 1):
            exponent[j] -= ci * spow[j]
    eser = [F(1)] + [F(0)] * order
    term = [F(1)] + [F(0)] * order
    for k in range(1, order + 1):
        term = mul(term, exponent)
        if all(t == 0 for t in term):
            break
        for j in range(order + 1):
            eser[j] += term[j] / factorial(k)
    op = mul(op, eser)
    acc = F(0)
    g = f
    for j in range(order + 1):
        acc += op[j] * g.coefficient(0)
        if g.is_zero():
            break
        g = delta_w(g, params.w)
    return acc / factorial(r)


@pytest.mark.parametrize("p", [
    CLASSICAL,
    REGULAR_D2,
    MLParams(2, 2, F(1, 2), [F(-1, 3)]),
    MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
], ids=str)
def test_moments_match_lowering_operator_route(p):
    n_max = 8
    table = moments_by_inversion(ml_by_recurrence(p, n_max), p.d)
    for r in range(p.d):
        for k in range(n_max + 1):
            assert table.moment(r, k) == _sigma_moment(p, r, Poly([0] * k + [1]), n_max + 2)


class TestOrthogonalityPattern:
    def test_regular_d2_full_pattern(self):
        polys = ml_by_recurrence(REGULAR_D2, 10)
        table = moments_by_inversion(polys, 2)
        report = verify_d_orthogonality(polys, table)
        assert not report.zero_failures
        assert not report.regularity_failures

    def test_classical_regularity_gap_matches_table_flags(self):
        polys = ml_by_recurrence(CLASSICAL, 10)
        table = moments_by_inversion(polys, 1)
        report = verify_d_orthogonality(polys, table)
        assert not report.zero_failures  # vanishing conditions all hold
        assert report.regularity_failures  # but the family is not regular
        flags = check_regularity(fit_recurrence(polys, 1))
        assert bool(flags) == bool(report.regularity_failures)

    def test_monomials_evaluation_functional(self):
        polys = monomials(8)
        table = moments_by_inversion(polys, 1)
        report = verify_d_orthogonality(polys, table)
        assert not report.zero_failures
        bad_m = sorted({c.m for c in report.regularity_failures})
        assert bad_m == list(range(1, max(bad_m) + 1))  # fails beyond m = 0

    def test_detects_pattern_violations(self):
        # Negative control: a graded monic sequence that is not d-orthogonal
        # must produce failing vanishing conditions, not a vacuous pass.
        polys = [Poly.one(), X, Poly([0, 0, 1]), Poly([1, 0, 0, 1]), Poly([0, 0, 0, 0, 1])]
        table = moments_by_inversion(polys, 1)
        report = verify_d_orthogonality(polys, table)
        assert report.zero_failures
        assert any(c.m >= 1 for c in report.zero_failures)


def expansions(q_seq, basis):
    return [expand_in_basis(q, basis) for q in q_seq]


class TestQuasiOrder:
    def test_same_sequence_is_order_zero(self):
        polys = ml_by_recurrence(REGULAR_D2, 8)
        assert quasi_orthogonality_order(expansions(polys, polys), 2) == (0, True)

    def test_visible_support(self):
        polys = ml_by_recurrence(CLASSICAL, 8)
        q = [polys[0]] + [polys[n] + polys[n - 1] for n in range(1, 9)]
        assert quasi_orthogonality_order(expansions(q, polys), 1) == (1, True)

    @pytest.mark.parametrize("d,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_hyp_pairs(self, d, l):
        beta = F(1, 5)
        p = HypParams(d, [F(1, 2), F(4, 3)][:d], beta, l)
        found = quasi_orthogonality_order(expansions(hyp_quasi(p, 8), hyp_laguerre(p, 8)), d)
        assert found == (l, True)

    def test_refuses_a_sequence_that_is_not_graded(self):
        polys = ml_by_recurrence(CLASSICAL, 4)
        with pytest.raises(ValueError, match="element 3 has degree 2"):
            quasi_orthogonality_order(expansions(polys[:3] + polys[2:4], polys), 1)


# Coefficients for random graded bases: often zero inside, and a leading
# coefficient that is often 1 but may be any nonzero rational.
rationals = st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6))
coefficients = st.one_of(st.just(F(0)), rationals)
leading = st.one_of(st.just(F(1)), rationals.filter(bool))


def graded(draw, n):
    return Poly([*draw(st.lists(coefficients, min_size=n, max_size=n)), draw(leading)])


@st.composite
def graded_bases(draw, n_max=None):
    if n_max is None:
        n_max = draw(st.integers(min_value=1, max_value=12))
    return [graded(draw, n) for n in range(n_max + 1)]


def raised(fn, *args):
    try:
        fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return None


class TestKernelsAgainstPolyOracles:
    @settings(max_examples=60, deadline=None)
    @given(graded_bases(), st.data())
    def test_expansion_of_every_degree(self, basis, data):
        assert oracles.expand_in_basis(Poly.zero(), basis) == []
        assert expand_in_basis(Poly.zero(), basis) == Poly.zero()
        for q in data.draw(graded_bases(len(basis) - 1)):
            coords = expand_in_basis(q, basis)
            assert coords == Poly(oracles.expand_in_basis(q, basis))
            assert lincomb(zip(coords.coeffs, basis)) == q

    @settings(max_examples=60, deadline=None)
    @given(graded_bases(), st.data())
    def test_unreduced_row_expands_as_its_poly(self, basis, data):
        # a Row scaled by a common factor and padded with zero numerators
        scale, pad = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 2))

        def row(q):
            return Row([c * scale for c in q.nums] + [0] * pad, q.den * scale)

        assert expand_in_basis(row(Poly.zero()), basis) == Poly.zero()
        for q in data.draw(graded_bases(len(basis) - 1)):
            coords = expand_in_basis(row(q), basis)
            assert coords == expand_in_basis(q, basis) == Poly(oracles.expand_in_basis(q, basis))
        q = graded(data.draw, len(basis) + data.draw(st.integers(min_value=0, max_value=2)))
        error = raised(expand_in_basis, row(q), basis)
        assert error == raised(oracles.expand_in_basis, q, basis) and error[0] is ValueError

    @settings(max_examples=60, deadline=None)
    @given(graded_bases(), st.data())
    def test_moments_and_pattern(self, basis, data):
        n_max = len(basis) - 1
        d = data.draw(st.integers(min_value=1, max_value=n_max))
        table = moments_by_inversion(basis, d)
        assert table == oracles.moments_by_inversion(basis, d)
        assert (verify_d_orthogonality(basis, table)
                == oracles.verify_d_orthogonality(basis, table, d, n_max))

    @settings(max_examples=40, deadline=None)
    @given(graded_bases(), st.data())
    def test_shifted_pairing(self, basis, data):
        n_max = len(basis) - 1
        table = moments_by_inversion(basis, 1)
        shift_by = data.draw(st.integers(min_value=0, max_value=n_max + 1))
        for k, q in enumerate(data.draw(graded_bases(n_max))):
            product = Poly([0] * shift_by + [1]) * q
            if k + shift_by <= n_max:
                assert table.apply(0, q, shift_by) == table.apply(0, product)
            else:
                assert raised(table.apply, 0, q, shift_by) == raised(table.apply, 0, product)
                assert raised(table.apply, 0, q, shift_by)[0] is ValueError

    @settings(max_examples=40, deadline=None)
    @given(graded_bases(), st.data())
    def test_same_errors_on_a_basis_that_is_not_graded(self, basis, data):
        n_max = len(basis) - 1
        bad = data.draw(st.integers(min_value=0, max_value=n_max))
        degree = data.draw(st.sampled_from([-1, *(k for k in range(n_max + 2) if k != bad)]))
        basis[bad] = Poly.zero() if degree < 0 else graded(data.draw, degree)
        q = graded(data.draw, n_max)
        d = data.draw(st.integers(min_value=1, max_value=n_max))
        error = raised(expand_in_basis, q, basis)
        assert error == raised(oracles.expand_in_basis, q, basis)
        assert error[0] is FitError and error[2] == bad
        assert raised(moments_by_inversion, basis, d) == error
        assert raised(oracles.moments_by_inversion, basis, d) == error

    @settings(max_examples=20, deadline=None)
    @given(graded_bases(), st.data())
    def test_same_error_past_the_basis(self, basis, data):
        q = graded(data.draw, len(basis) + data.draw(st.integers(min_value=0, max_value=2)))
        error = raised(expand_in_basis, q, basis)
        assert error == raised(oracles.expand_in_basis, q, basis)
        assert error[0] is ValueError


def test_moments_and_pattern_need_no_expansion_and_no_product(monkeypatch):
    # Forward substitution and shifted pairings are O(d N**2) integer work;
    # a call to either counted function would bring back the O(N**3) route.
    polys = ml_by_recurrence(LagParams(3, F(1, 2), F(-3, 2), F(1, 7), [1, F(1, 3), F(1, 5)]), 24)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orthogonality, "expand_in_basis",
                        counting("expand_in_basis", orthogonality.expand_in_basis))
    monkeypatch.setattr(Poly, "__mul__", counting("Poly.__mul__", Poly.__mul__))
    table = moments_by_inversion(polys, 3)
    report = verify_d_orthogonality(polys, table)
    assert not calls
    assert not report.zero_failures and len(report.checks) > 100
    # both wrappers are live: the fit still expands, and products still count
    fit_recurrence(polys[:6], 3)
    assert X * X == Poly([0, 0, 1])
    assert calls["expand_in_basis"] == 5 and calls["Poly.__mul__"] >= 1
