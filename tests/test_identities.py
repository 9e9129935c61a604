"""Identity catalog checks: hand-verified base cases plus full-range runs on
the parameter grid.  Reconciled identities must pass with the repair pinned
in the notes, never silently."""

import math
import sys
from fractions import Fraction as F
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dops import families, hyp_suites, identities, ml_suites
from dops.families import (
    HypParams,
    LagParams,
    MLParams,
    hyp_laguerre,
    ml_by_recurrence,
    ml_recurrence_table,
    q_sequence,
)
from dops.hyp_suites import verify_hyp_lincomb, _rising
from dops.identities import (
    FamilySetup,
    VerificationReport,
    Witness,
    family_suites,
    ratio_power_closed_form,
)
from dops.laguerre_suites import verify_laguerre_structure
from dops.ml_suites import (
    verify_de,
    verify_de1,
    verify_de2,
    verify_moment_recursion,
    verify_nccd,
    verify_sr2,
    verify_sr_block,
    verify_sz4,
    verify_sz5,
    _hahn_shift,
)
from dops.orthogonality import (FitError, MomentTable, RecurrenceTable, fit_recurrence,
                                moments_by_inversion, quasi_orthogonality_order)
from dops.polynomials import Poly, Row, delta_w, lincomb, shift
import oracles
from oracles import pochhammer

X = Poly.x()

CLASSICAL = MLParams(1, 1, -1)

ML_GRID = [
    CLASSICAL,
    MLParams(1, 2, F(1, 2)),
    MLParams(1, 0, -1),
    MLParams(1, 1, 0),
    MLParams(2, 1, -1, [1]),
    MLParams(2, 2, F(1, 2), [F(-1, 3)]),
    MLParams(2, 0, -1, [F(1, 2)]),
    MLParams(2, 1, 0, [F(1, 2)]),
    MLParams(3, 1, -1, [1, F(1, 2)]),
    MLParams(3, 2, F(1, 2), [F(-1, 3), F(1, 5)]),
    MLParams(3, 0, -1, [F(1, 2), -1]),
]


def ml(p, order):
    """A run of the ml suites on the recurrence family of p."""
    return FamilySetup("ml", order, p)


def single(reports):
    (report,) = reports
    return report


# One parameter set per family kind, and the routes a setup of that kind calls.
ROUTED_KINDS = {
    "ml": (MLParams(2, 1, -1, [1]), ["ml_by_recurrence", "ml_by_gf", "q_sequence"]),
    "charlier": (MLParams(1, 0, -1), ["ml_by_recurrence", "ml_by_gf", "q_sequence"]),
    "laguerre": (LagParams(2, F(1, 2), F(-3, 2), F(1, 7)),
                 ["ml_by_recurrence", "ml_by_gf", "q_sequence"]),
    "hyp-laguerre": (HypParams(2, [F(1, 2), F(1, 3)]), ["hyp_laguerre"]),
}


@pytest.mark.parametrize("kind", ROUTED_KINDS)
def test_setup_calls_the_routes_bound_on_the_modules(monkeypatch, kind):
    """An argument-keyed tracer (bench/spans.py) wraps the package's functions
    by rebinding each wrapper at every module attribute, and every value of a
    module-level dict, that held the original.  A route kept anywhere else,
    such as an attribute of a record built at import, would escape it."""
    routes = [families.ml_by_recurrence, families.ml_by_gf, families.hyp_laguerre,
              families.q_sequence]
    calls, wrappers = [], {}
    for route in routes:
        def wrapper(*args, _route=route):
            calls.append(_route.__name__)
            return _route(*args)
        wrappers[id(route)] = wrapper
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "dops" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        monkeypatch.setitem(value, key, wrappers[id(item)])
    params, expected = ROUTED_KINDS[kind]
    setup = FamilySetup(kind, 4, params)
    setup.polys
    if setup.family.gf is not None:
        setup.gf
    if setup.family.lower is not None:
        setup.q
    assert calls == expected


@pytest.mark.parametrize("rows", [9, 11])
def test_setup_refuses_a_table_of_another_order(rows):
    """The moments and fits read N from the table, so a supplied table holds
    exactly P_0..P_order."""
    p = MLParams(2, 1, -1, [1])
    table = ml(p, 10).polys
    assert FamilySetup("ml", 9, p, table[:10]).polys == table[:10]
    with pytest.raises(ValueError, match=f"a table for order 9 holds 10 rows, not {rows}"):
        FamilySetup("ml", 9, p, table[:rows])


class TestReportInvariants:
    def test_witness_iff_fail(self):
        with pytest.raises(ValueError):
            VerificationReport("x", {}, 0, 1, "fail", witness=None)
        with pytest.raises(ValueError):
            VerificationReport("x", {}, 0, 1, "pass",
                               witness=Witness(0, Poly.one(), Poly.zero()))

    def test_witnesses_with_equal_fields_are_equal(self):
        witness = Witness(2, Poly([1, 2]), Poly([1, 3]), "row 2")
        again = Witness(n=2, expected=Poly(["1", 2]), actual=Poly([1, 3]), context="row 2")
        assert witness == again and hash(witness) == hash(again)
        assert witness != Witness(2, Poly([1, 2]), Poly([1, 3]))
        assert vars(witness) == {"n": 2, "expected": Poly([1, 2]), "actual": Poly([1, 3]),
                                 "context": "row 2"}

    def test_serialization_shape(self):
        rep = single(verify_nccd(ml(CLASSICAL, 5)))
        data = rep.to_dict()
        assert data["identity"] == "nccd"
        assert data["status"] == "pass"
        assert data["witness"] is None
        assert data["range"] == [0, 4]


small_ints = st.integers(-6, 6)
small_polys = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4).map(Poly)
# An unreduced row: any numerators, trailing zeros allowed, over a positive den.
small_rows = st.builds(Row, st.lists(small_ints, max_size=4), st.integers(1, 12))
factors = st.one_of(small_polys, small_rows)
terms = st.one_of(st.tuples(st.fractions(-3, 3, max_denominator=4) | small_ints, factors),
                  st.tuples(small_ints, factors, factors))


def as_poly(side):
    """A side as the all-Poly path reads it: every Row reduced to a Poly
    first, then one lincomb."""
    if isinstance(side, Poly):
        return side
    return lincomb((c, *(f if isinstance(f, Poly) else f.poly() for f in fs)) for c, *fs in side)


@st.composite
def rewritten(draw, side):
    """Another side with the same value: a Poly side as its lincomb term,
    or each term's weight split in two, its factors scaled into unreduced
    Rows, and the terms shuffled."""
    if isinstance(side, Poly):
        return [(1, side)]
    out = []
    for c, *fs in side:
        part = draw(small_ints)
        scaled = []
        for f in fs:
            k = draw(st.integers(1, 4))
            scaled.append(Row([k * m for m in f.nums] + [0] * draw(st.integers(0, 2)), k * f.den))
        out += [(part, *fs), (c - part, *scaled)]
    return draw(st.permutations(out))


@st.composite
def checks(draw):
    """A few (n, actual, expected, context) checks whose sides are Polys or
    term lists, some equal but built from different terms."""
    out = []
    for n in range(draw(st.integers(1, 4))):
        actual = draw(small_polys | st.lists(terms, max_size=3))
        expected = draw(rewritten(actual) if draw(st.booleans()) else
                        small_polys | st.lists(terms, max_size=3))
        out.append((n, actual, expected, f"check {n}"))
    return out


class TestFirstMismatch:
    @settings(max_examples=300, deadline=None)
    @given(checks())
    def test_matches_the_all_poly_path(self, cases):
        reference = [(n, as_poly(a), as_poly(b), context) for n, a, b, context in cases]
        assert identities.first_mismatch(cases) == identities.first_mismatch(reference)
        for (n, a, b, context), (_, pa, pb, _) in zip(cases, reference):
            witness = identities.first_mismatch([(n, a, b, context)])
            assert (witness is None) == (pa == pb)
            if witness is not None:
                assert witness == Witness(n, pb, pa, context)


class TestHahnShift:
    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_family_table_shifts_to_companion_table(self, p):
        # The companions Q_0..Q_10 come from P_0..P_11; their fitted table is
        # the family's table over the same steps, shifted.
        q = q_sequence(ml_by_recurrence(p, 11), lambda f: delta_w(f, p.w))
        q_table = fit_recurrence(q, p.d)
        shifted = _hahn_shift(ml_recurrence_table(p, 10), p.alpha, p.beta)
        assert shifted.beta == q_table.beta
        assert shifted.gamma == q_table.gamma
        # Argument-keyed tooling (bench/spans.py) hashes tables passed to public calls.
        assert hash(shifted) == hash(q_table)


class TestNccd:
    def test_classical_hand_case(self):
        # P_2 = x^2 equals (x^2+2x+2) - 2(x+1)
        polys = ml_by_recurrence(CLASSICAL, 3)
        q = q_sequence(polys, lambda f: delta_w(f, 2))
        assert polys[2] == q[2] - q[1] * 2

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_grid(self, p):
        assert single(verify_nccd(ml(p, 13))).status == "pass"

    def test_appell_note(self):
        rep = single(verify_nccd(ml(MLParams(1, 0, -1), 6)))
        assert rep.status == "pass"
        assert any("alpha = 0" in note for note in rep.notes)


class TestSrBlock:
    def test_classical_hand_cases(self):
        polys = ml_by_recurrence(CLASSICAL, 3)
        q = q_sequence(polys, lambda f: delta_w(f, 2))
        assert shift(polys[2], 2) == q[2] + q[1] * 2           # shift identity at n=2
        assert q[2] * 2 == shift(polys[2], 2) + polys[2]       # cross identity at n=2

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_grid_all_pass(self, p):
        reports = verify_sr_block(ml(p, 13))
        assert {r.identity for r in reports} == {"sr3", "sr4", "sr4-alt", "sr5", "sr6", "sr7"}
        for rep in reports:
            assert rep.status == "pass", (rep.identity, rep.witness)

    def test_sr6_pins_repair_for_generic_parameters(self):
        reports = {r.identity: r for r in verify_sr_block(ml(CLASSICAL, 8))}
        assert any("repaired form pinned" in note for note in reports["sr6"].notes)

    def test_sr6_trivial_base_case(self):
        # At n = 0 the relation (x-c)Q_0 = P_1 - (c+b_0)P_0 holds for any c.
        p = MLParams(2, 2, F(1, 2), [F(3, 4)])
        polys = ml_by_recurrence(p, 1)
        for c in (F(0), F(7, 5), F(-3)):
            assert (X - Poly.const(c)) * Poly.one() == polys[1] - Poly.const(c + p.exponent(1))


class TestImpliedIdentities:
    """The cross identity is an algebraic consequence of the shift identity
    and the two-term connection; the harness must see the implication."""

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=6),
           st.fractions(min_value=-5, max_value=5, max_denominator=6),
           st.integers(min_value=0, max_value=10),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=1, max_size=4).map(Poly),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=1, max_size=4).map(Poly))
    def test_cross_identity_is_forced(self, alpha, beta, n, u, v):
        # With u, v standing for Q_n, Q_{n-1}: substituting the shift identity
        # and the connection into alpha*P_n(x+w) - beta*P_n leaves exactly
        # (alpha - beta) u, whatever u and v are.
        lhs = (u - v * (n * beta)) * alpha - (u - v * (n * alpha)) * beta
        assert lhs == u * (alpha - beta)

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_consequence_holds_on_reports(self, p):
        reports = {r.identity: r for r in verify_sr_block(ml(p, 10))}
        nccd = single(verify_nccd(ml(p, 10)))
        if nccd.status == "pass" and reports["sr5"].status == "pass":
            assert reports["sr3"].status == "pass"


class TestSr2:
    @pytest.mark.parametrize("p", [p for p in ML_GRID if p.d >= 2 and p.alpha != 0], ids=str)
    def test_grid(self, p):
        rep = single(verify_sr2(ml(p, 13)))
        assert rep.status == "pass", rep.witness
        assert any("repaired form pinned" in note for note in rep.notes)

    def test_not_applicable_below_d2(self):
        assert single(verify_sr2(ml(CLASSICAL, 8))).status == "not-applicable"

    def test_not_applicable_at_alpha_zero(self):
        rep = single(verify_sr2(ml(MLParams(2, 0, -1, [F(1, 2)]), 8)))
        assert rep.status == "not-applicable"
        assert "alpha = 0" in rep.notes[0]


class TestDifferenceEquations:
    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_de2_grid(self, p):
        assert verify_de(ml(p, 13)).status == "pass"

    @pytest.mark.parametrize("p", [p for p in ML_GRID if p.d >= 2], ids=str)
    def test_de1_all_depths(self, p):
        for k in range(0, p.d + 1):
            rep = verify_de(ml(p, 12), k)
            assert rep.status == "pass", (k, rep.witness)

    def test_de1_depth_one_exists_for_d1(self):
        assert verify_de(ml(CLASSICAL, 10), 1).status == "pass"

    def test_inadmissible_depth(self):
        rep = verify_de(ml(CLASSICAL, 10), 2)
        assert rep.status == "not-applicable"

    def test_out_of_range_note(self):
        rep = verify_de(ml(MLParams(3, 1, -1, [1, F(1, 2)]), 12))
        assert any("out-of-range" in note for note in rep.notes)


class TestClosedForms:
    def test_sz5_symmetric(self):
        rep = single(verify_sz5(ml(MLParams(1, 1, -1), 6)))
        assert rep.status == "pass"
        assert any("repaired form pinned" in note for note in rep.notes)

    def test_sz5_single_binomial_edge(self):
        assert single(verify_sz5(ml(MLParams(1, 1, 0), 6))).status == "pass"
        assert single(verify_sz5(ml(MLParams(1, 0, -1), 6))).status == "pass"

    def test_sz5_closed_form_values(self):
        # w = 2: first coefficients of exp(x artanh t)
        assert ratio_power_closed_form(1, -1, 3) == [Poly.one(), X, Poly([0, 0, 1]),
                                                     Poly([0, 2, 0, 1])]

    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_sz4_grid(self, p):
        rep = single(verify_sz4(ml(p, 8)))
        assert rep.status == "pass", rep.witness
        assert any("pinned" in note or "stated form verified" in note for note in rep.notes)

    def test_sz4_low_degrees(self):
        # n = 0 gives 1 on both sides, n = 1 gives x + c_1.
        p = MLParams(2, 1, -1, [F(2, 7)])
        polys = ml_by_recurrence(p, 1)
        assert polys[0] == Poly.one()
        assert polys[1] == X + Poly.const(F(2, 7))
        assert ratio_power_closed_form(1, -1, 1)[1] + Poly.const(F(2, 7)) == polys[1]


ratios = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=5))
ratio_pairs = st.tuples(ratios, ratios).filter(lambda ab: ab[0] != ab[1])


@st.composite
def ml_params(draw, max_order=20):
    """ml parameters at d <= 3 with alpha or beta often zero, and an order."""
    d = draw(st.integers(1, 3))
    alpha, beta = draw(ratio_pairs)
    c = draw(st.lists(ratios, min_size=d - 1, max_size=d - 1))
    return MLParams(d, alpha, beta, c), draw(st.integers(0, max_order))


def stated_checks(suite, setup):
    """The stated form a reconciled suite hands to ``_reconciled``: its
    unconsumed checks, or the reason it cannot be evaluated.  The patched
    ``_reconciled`` is an empty check stream."""
    seen = []
    with mock.patch.object(sys.modules[suite.__module__], "_reconciled",
                           lambda *args, **kw: seen.append(args[0]) or ()):
        suite(setup)
    (stated,) = seen
    return stated


class TestRatioWindows:
    """The stepped windows, and every form read off them, against the per-n
    shifted falling factorials of ``tests/oracles.py``."""

    @settings(max_examples=15, deadline=None)
    @given(ratio_pairs, st.integers(0, 20))
    @example((F(0), F(1, 2)), 20)
    @example((F(-2, 3), F(0)), 20)
    @example((F(1, 2), F(-3, 5)), 20)  # w = 11/10: integer windows over 10**(n-1)
    @example((F(1), F(-1)), 32)  # the benchmark's reference pair at its traced order
    def test_windows_and_closed_forms(self, ab, n_max):
        alpha, beta = ab
        w = alpha - beta
        rows = list(identities._ratio_windows(w, n_max))
        assert len(rows) == n_max
        for n, row in enumerate(rows, 1):
            assert [window.poly() for window in row] == [
                oracles.ratio_window(w, n, k) for k in range(n + 1)]
        assert ratio_power_closed_form(alpha, beta, n_max) == [
            oracles.ratio_power_closed_form(alpha, beta, n) for n in range(n_max + 1)]

    @pytest.mark.parametrize("alpha, beta", [(F(1), F(-1)), (F(1, 2), F(-3, 5)), (F(0), F(2, 3))])
    def test_closed_form_loop_builds_no_fraction(self, monkeypatch, alpha, beta):
        """The closed forms' per-n work is in integers: the Fractions built
        for a whole call do not grow with the order."""
        new = F.__new__
        built = []

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        counts = []
        for n_max in (8, 24):
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(F, "__new__", staticmethod(counting_new))
                ratio_power_closed_form(alpha, beta, n_max)
            counts.append(len(built))
        assert counts[0] == counts[1]

    @settings(max_examples=15, deadline=None)
    @given(ratio_pairs, st.integers(0, 20))
    @example((F(0), F(1, 2)), 5)
    @example((F(-2, 3), F(0)), 20)
    def test_sz5_stated_form(self, ab, n_max):
        alpha, beta = ab
        stated = stated_checks(verify_sz5, ml(MLParams(1, alpha, beta), n_max))
        if alpha == 0:
            assert isinstance(stated, str)
            return
        assert [(n, form) for n, form, _, _ in stated] == [
            (n, oracles.ratio_power_stated_form(alpha, beta, n)) for n in range(n_max + 1)]

    @settings(max_examples=6, deadline=None)
    @given(ml_params())
    @example((MLParams(2, F(1, 2), F(-1, 3), [F(1, 3)]), 20))
    @example((MLParams(3, 2, -1, [1, F(-1, 2)]), 12))
    def test_sz4_stated_form_reads_window_n_minus_m_s_minus_m(self, case):
        p, n_max = case
        stated = stated_checks(verify_sz4, ml(p, n_max))
        if p.alpha == 0:
            assert isinstance(stated, str)
            return
        assert [(n, form) for n, form, _, _ in stated] == [
            (n, oracles.sz4_stated_form(p, n)) for n in range(n_max + 1)]

    @settings(max_examples=15, deadline=None)
    @given(ml_params())
    @example((MLParams(2, 0, F(1, 2), [1]), 20))
    def test_deltas(self, case):
        p, n_max = case
        setup = ml(p, n_max)
        assert setup.deltas == [oracles.delta_powers(poly, p.w, p.d + 1) for poly in setup.polys]

    def test_shared_objects_are_built_once(self, monkeypatch):
        p, n_max = MLParams(2, 1, -1, [1]), 24
        setup = ml(p, n_max)
        calls = {name: [] for name in ("shift", "ratio_power_closed_form", "delta_w")}
        for name, seen in calls.items():
            for module in (families, identities, ml_suites):  # every module that binds the name
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *args, _fn=fn, _seen=seen:
                                        _seen.append(args) or _fn(*args))
        reports = [*verify_sz4(setup), *verify_sz5(setup), *verify_moment_recursion(setup)]
        assert len(calls["shift"]) == 0
        reports += [*verify_de1(setup), *verify_de2(setup)]
        # d lowerings per P_m for the deltas, one per Q_n for the companions.
        assert len(calls["delta_w"]) == p.d * (n_max + 1) + n_max
        for suite in family_suites("ml").values():
            reports += suite(setup)
        assert len(calls["ratio_power_closed_form"]) == 1
        assert all(r.status == "pass" for r in reports)


HYP_LEMMA_NOTE = "index-shift lemma verified at a generic non-integer parameter"
HYP_ORDER_L_NOTE = "order-l combination verified"


class TestHypLincomb:
    def test_hand_case(self):
        # 2 L_1^{(1)} - L_0^{(1)} = 1 - x = L_1^{(0)}
        p1 = HypParams(1, [1])
        p0 = HypParams(1, [0])
        lhs = hyp_laguerre(p1, 1)[1] * 2 - hyp_laguerre(p1, 1)[0]
        assert lhs == Poly([1, -1]) == hyp_laguerre(p0, 1)[1]

    @pytest.mark.parametrize("d,l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_grid(self, d, l):
        p = HypParams(d, [F(1, 2), F(4, 3)][:d], F(1, 5), l)
        rep = single(verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p)))
        assert rep.status == "pass", rep.witness
        assert any("lemma verified" in note for note in rep.notes)
        if d >= 2:
            assert any("repaired form pinned" in note for note in rep.notes)
        else:
            assert any("stated l-term window" in note for note in rep.notes)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(Exception):
            verify_hyp_lincomb(FamilySetup("hyp-laguerre", 4, HypParams(1, [1], F(-2), 1)))

    def test_lemma_builds_each_distinct_sum_once(self, monkeypatch):
        p = HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
        setup = FamilySetup("hyp-laguerre", 12, p)
        assert len(setup.polys) == 13  # the run's own family, built before counting
        calls = {"terminating_pfq": [], "hyp_laguerre": []}
        for name, seen in calls.items():
            for module in (identities, hyp_suites):  # every module that binds the name
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *args, _fn=fn, _seen=seen:
                                        _seen.append(args) or _fn(*args))
        results, made = [], []
        monkeypatch.setattr(identities, "lincomb",
                            lambda terms, _fn=identities.lincomb: results.append(_fn(terms)) or results[-1])
        monkeypatch.setattr(Row, "poly", lambda row, _fn=Row.poly: made.append(row) or _fn(row))
        rep = single(verify_hyp_lincomb(setup))
        assert rep.status == "pass", rep.witness
        # 1 + d*l + 1 tables over n = 0..12: the lemma's left side at a2 + 1,
        # its right side at a2 - k + 1 for 1 <= k <= d*l, and the reduced
        # family with alpha_1 - d*l, shared by both reduction windows
        dl, a2 = 4, p.beta + 4 + F(1, 3)
        dens = (F(3, 2), F(4, 3), p.beta + 1)
        assert sorted(calls["terminating_pfq"]) == sorted(
            [(12, (a2 + 1 - k,), dens) for k in range(dl + 1)] + [(12, (), (F(1, 2) - dl + 1, F(4, 3)))])
        assert calls["hyp_laguerre"] == []
        # the only rows made Polys are the quasi family's, n = 0..12
        assert len(made) == 13
        # every check is decided on a zero difference; the only lincomb
        # results that are not zero come from the stated l-term window's
        # first miss at n = 1: the difference, then its two sides reduced,
        # (alpha_1 + 1)_1 / (beta2 + 1)_1 P_1 - 2 / (beta2 + 1)_1 P_0 and the
        # reduced family's P_1
        assert any("first witness at n = 1" in note for note in rep.notes)
        lhs = setup.polys[1] * F(-3, 5) + Poly.const(F(4, 5))
        rhs = hyp_laguerre(HypParams(2, [F(1, 2) - dl, F(1, 3)]), 1)[1]
        assert [poly for poly in results if not poly.is_zero()] == [lhs - rhs, lhs, rhs]
        # lemma (n, k) instances 1 + 2 + 3 + 4 * 8, the stated window's n = 0,
        # 1 and two witness sides, the repaired window; the order-l
        # combination is read off the quasi family's expansions, not lincomb
        assert len(results) == 38 + 4 + 13

    def test_lemma_failure_reports_both_sides_reduced(self, monkeypatch):
        # One numerator of the lemma's left-hand table (first parameter
        # a2 + 1) is off at n = 5; every right-hand side is still the true
        # sum, so the first check to fail is n = 5 at k = 1, and the witness
        # holds both sides as reduced Polys.
        p = HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
        left = (p.beta + 4 + F(1, 3) + 1,)
        build = hyp_suites.terminating_pfq
        sides = {}

        def perturbed(n_max, extra_num, den):
            rows = build(n_max, extra_num, den)
            if extra_num == left:
                nums = list(rows[5].nums)
                nums[2] += 1
                sides["expected"], rows[5] = rows[5].poly(), Row(nums, rows[5].den)
                sides["actual"] = rows[5].poly()
            return rows

        monkeypatch.setattr(hyp_suites, "terminating_pfq", perturbed)
        rep = single(verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p)))
        assert rep.status == "fail"
        assert (rep.witness.n, rep.witness.context) == (5, "index-shift lemma at k = 1")
        expected = Witness(5, sides["expected"], sides["actual"], "index-shift lemma at k = 1")
        assert rep.witness.to_dict() == expected.to_dict()
        assert sides["actual"] != sides["expected"]
        assert rep.notes == ()

    @pytest.mark.parametrize("p, reduction", [
        (HypParams(1, [1], 0, 2), "aligned reduction skipped: alpha_1 - d*l is a negative integer"),
        (HypParams(1, [F(1, 2)], F(1, 5), 2),
         "aligned reduction verified in the stated l-term window"),
    ], ids=["skipped", "stated-window"])
    def test_pass_notes(self, p, reduction):
        rep = single(verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p)))
        assert (rep.status, rep.notes) == ("pass", (HYP_LEMMA_NOTE, HYP_ORDER_L_NOTE, reduction))

    def test_order_l_failure_carries_the_lemma_note(self):
        # The lemma reads only its own terminating sums, so a moved row of the
        # family first fails the order-l combination.
        p = HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
        table = FamilySetup("hyp-laguerre", 8, p).polys
        table[3] = table[3] + Poly.const(F(1, 7))
        rep = single(verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p, table)))
        assert (rep.status, rep.witness.n, rep.witness.context) == (
            "fail", 3, "order-l combination, coefficients over P_0..P_3")
        assert rep.notes == (HYP_LEMMA_NOTE,)

    def test_reduction_failure_carries_every_earlier_note(self, monkeypatch):
        # A moved row of the reduced family fails both reduction windows, and
        # the report holds the repaired window's witness.
        p = HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
        build = hyp_suites.terminating_pfq

        def perturbed(n_max, extra_num, den):
            rows = build(n_max, extra_num, den)
            if extra_num == ():
                rows[3] = Row([rows[3].nums[0] + rows[3].den, *rows[3].nums[1:]], rows[3].den)
            return rows

        monkeypatch.setattr(hyp_suites, "terminating_pfq", perturbed)
        rep = single(verify_hyp_lincomb(FamilySetup("hyp-laguerre", 8, p)))
        assert (rep.status, rep.witness.n, rep.witness.context) == (
            "fail", 3, "aligned reduction, window 4")
        assert rep.notes == (HYP_LEMMA_NOTE, HYP_ORDER_L_NOTE, "stated form fails too (first "
                             "witness at n = 1, aligned reduction, window 2)")

    def test_pochhammer_oracle(self):
        assert pochhammer(3, 4) == 360
        assert pochhammer(F(1, 2), 0) == 1

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=7), st.integers(0, 12))
    def test_rising_tables_are_pochhammer_values(self, y, n_max):
        assert _rising(y, n_max) == [pochhammer(y, n) for n in range(n_max + 1)]


class TestLaguerreStructure:
    def test_classical_case(self):
        # d = 1 with no exponential corrections reduces to the classical
        # derivative relation x P'_n = n P_n - n(n+alpha) P_{n-1}.
        rep = single(verify_laguerre_structure(FamilySetup("laguerre", 10, LagParams(1, 1, -1))))
        assert rep.status == "pass"
        assert "stated form verified" in rep.notes

    def test_d2_with_corrections(self):
        rep = single(verify_laguerre_structure(
            FamilySetup("laguerre", 10, LagParams(2, F(1, 2), F(-3, 2), 0, [1, F(1, 3)]))))
        assert rep.status == "pass"

    def test_theta_shift_repair(self):
        rep = single(verify_laguerre_structure(
            FamilySetup("laguerre", 8, LagParams(2, 1, -2, F(1, 2), [0, 1]))))
        assert rep.status == "pass"
        assert any("x + a*theta" in note for note in rep.notes)

    def test_trivial_base_case(self):
        from dops.families import ml_by_recurrence
        from dops.polynomials import derivative
        polys = ml_by_recurrence(LagParams(1, 1, -1), 1)
        assert X * derivative(polys[0]) == Poly.zero()


class TestMomentRecursion:
    @pytest.mark.parametrize("p", ML_GRID, ids=str)
    def test_grid(self, p):
        rep = single(verify_moment_recursion(ml(p, 8)))
        assert rep.status == "pass", rep.witness
        assert any("vanishing pattern" in note for note in rep.notes)

    def test_d1_collapse(self):
        # With no exponential corrections the left side collapses to the
        # Kronecker case n = r.
        rep = single(verify_moment_recursion(ml(CLASSICAL, 8)))
        assert rep.status == "pass"

    def test_repair_pinned_for_d2(self):
        rep = single(verify_moment_recursion(ml(MLParams(2, 1, -1, [1]), 8)))
        assert any("repaired form pinned" in note for note in rep.notes)

    @settings(max_examples=15, deadline=None)
    @given(ml_params(max_order=10))
    @example((MLParams(4, 2, F(1, 2), [F(-1, 3), F(1, 5), 1]), 9))
    def test_stated_checks_match_the_composition_oracle(self, case):
        p, n_max = case
        if n_max < p.d:
            return
        setup = ml(p, n_max)
        stated = stated_checks(verify_moment_recursion, setup)
        if p.alpha == 0:
            assert isinstance(stated, str)
            return
        table = oracles.moments_by_inversion(setup.polys, p.d)
        assert list(stated) == oracles.moment_recursion_stated(p, table, n_max)


class TestExpCoefficients:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(ratios, max_size=3), st.integers(0, 10))
    @example([F(1, 2), F(-1, 3), F(2, 5)], 10)
    def test_entries_are_composition_sums(self, c, n_max):
        # d <= 4 carries at most three exponent coefficients; the sz4 form
        # reads c and the moment recursion -c, each in EGF form n! c_n at t**n.
        for values in (c, [-ci for ci in c]):
            egf = [0] + [math.factorial(n) * v for n, v in enumerate(values, 1)]
            assert ml_suites._exp_coefficients(lambda n: egf[n] if n < len(egf) else 0, n_max) == [
                math.factorial(m) * oracles.composition_sum(values, m) for m in range(n_max + 1)]


# The row-sensitivity sweep: an N = 9 table with the x**0 coefficient of one
# row moved by 1/7, or the x**1 coefficient where it is not the leading one
# (delta_w and d/dx remove a constant), must fail every suite whose range
# holds that row.  ml covers the delta_w suites, laguerre (the confluent-table
# route) the derivative-operator ones and hyp the hypergeometric ones.
SWEEP_ORDER = 9
SWEEP_FAMILIES = {
    "ml-d1": ("ml", MLParams(1, 2, F(1, 2))),
    "ml-d2": ("ml", MLParams(2, 2, F(1, 2), [F(-1, 3)])),
    "laguerre-d3": ("laguerre", LagParams(3, F(2, 3), F(5, 4), F(-1, 3), [1, F(1, 2), F(-2, 5)])),
    "hyp-d2": ("hyp-laguerre", HypParams(2, [F(1, 2), F(4, 3)])),
}
SWEEP_ROWS = [(k, m) for k in (0, 1) for m in range(2 * k, SWEEP_ORDER + 1)]


def sweep_exemption(family, identity, k, m):
    """Why a report may pass with row m perturbed although m lies in its
    range, or None when it must fail."""
    if identity == "sr4":
        return "sr4 holds for any table"
    if identity == "sz5":
        return "sz5 reads no P_n"
    if (k, m) == (0, 0) and identity in ("d-orthogonality", "quasi-order"):
        return "perturbing P_0 only rescales it, which the orthogonality pattern cannot see"
    if family == "ml-d1" and m == 0 and identity == "sr6":
        return "at d = 1 P_0 enters sr6 only through b_0, which is 0"
    if family == "ml-d1" and k == 1 and identity in ("d-orthogonality", "moment-recursion"):
        return ("at d = 1, b_0 = 0 makes gamma_1 = 0 and u_0 the evaluation at x = 0, "
                "where an x term vanishes")
    return None


# Rows a suite misses because its range stops one short of N; each must fail
# once the range reaches N, and until then is a strict xfail.
ONE_SHORT = [
    ("ml-d1", "sr7", 0, SWEEP_ORDER - 1),
    ("ml-d2", "sr7", 0, SWEEP_ORDER - 1),
    ("laguerre-d3", "laguerre-structure", 0, SWEEP_ORDER),
    ("laguerre-d3", "laguerre-structure", 1, SWEEP_ORDER),
]


@cache
def sweep_table(family):
    kind, params = SWEEP_FAMILIES[family]
    return tuple(FamilySetup(kind, SWEEP_ORDER, params).polys)


def sweep_reports(family, k=None, m=None):
    """Every suite's reports on the family's table, with the x**k
    coefficient of row m moved by 1/7 when k is given."""
    kind, params = SWEEP_FAMILIES[family]
    table = list(sweep_table(family))
    if k is not None:
        table[m] = table[m] + Poly([0] * k + [F(1, 7)])
    setup = FamilySetup(kind, SWEEP_ORDER, params, table)
    return [report for suite in family_suites(kind).values() for report in suite(setup)]


class TestRowSensitivity:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_unperturbed_table_passes(self, family):
        assert {r.status for r in sweep_reports(family)} <= {"pass", "not-applicable"}

    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_every_suite_fails_for_every_row_in_its_range(self, family):
        one_short = {(identity, k, m) for name, identity, k, m in ONE_SHORT if name == family}
        missed = {}
        for k, m in SWEEP_ROWS:
            for r in sweep_reports(family, k, m):
                if (r.status == "pass" and r.n_min <= m <= r.n_max
                        and (r.identity, k, m) not in one_short
                        and sweep_exemption(family, r.identity, k, m) is None):
                    missed.setdefault((k, m), []).append(r.identity)
        assert missed == {}

    @pytest.mark.xfail(strict=True, reason="sr7 and laguerre-structure stop at N-1: a constant "
                       "added to P_{N-1} cancels in sr7 at n = N-1, and laguerre-structure "
                       "never reads P_N")
    @pytest.mark.parametrize("family, identity, k, m", ONE_SHORT,
                             ids=[f"{f}-{identity}-x{k}-row{m}" for f, identity, k, m in ONE_SHORT])
    def test_one_short_ranges(self, family, identity, k, m):
        statuses = {r.identity: r.status for r in sweep_reports(family, k, m)}
        assert statuses[identity] == "fail"


def moved(polys, n):
    """A copy of polys with 1/7 added to entry n."""
    return [p + Poly.const(F(1, 7)) if m == n else p for m, p in enumerate(polys)]


class TestTruthSensitivity:
    """Each suite must fail when the side it compares the family against is
    moved, not only when the table is: routes against the generating-function
    route, hahn against the predicted companion shift of the fitted table,
    sz5 against the exponent-route series, and every suite below against the
    computed object it reads."""

    @staticmethod
    def statuses(setup, identity):
        return {r.status for r in family_suites(setup.kind)[identity](setup)}

    def assert_fail(self, setup, *identities):
        assert [i for i in identities if "fail" not in self.statuses(setup, i)] == []

    @pytest.fixture
    def setup(self):
        return FamilySetup("ml", 10, MLParams(2, 1, -1, [1]))

    @pytest.mark.parametrize("identity", ["routes", "hahn", "sr2", "de1", "de2", "sz4", "sz5",
                                          "d-orthogonality", "moment-recursion"])
    def test_unmoved_truth_passes(self, setup, identity):
        assert self.statuses(setup, identity) == {"pass"}

    def test_routes_reads_the_generating_function(self, setup):
        setup.__dict__["gf"] = moved(setup.gf, 5)
        assert "fail" in self.statuses(setup, "routes")

    def test_hahn_reads_the_family_table(self, setup):
        t = setup.p_table
        beta = tuple(b + F(1, 7) if n == 4 else b for n, b in enumerate(t.beta))
        setup.__dict__["p_table"] = RecurrenceTable(t.d, t.n_max, beta, t.gamma)
        assert "fail" in self.statuses(setup, "hahn")

    def test_sz5_reads_the_exponent_series(self, setup, monkeypatch):
        exponent = ml_suites.ratio_power_exponent
        monkeypatch.setattr(ml_suites, "ratio_power_exponent",
                            lambda *args: moved(exponent(*args), 3))
        assert "fail" in self.statuses(setup, "sz5")

    @staticmethod
    def move_closed_forms(setup):
        setup.__dict__["closed_forms"] = moved(setup.closed_forms, 4)

    @staticmethod
    def move_moment(setup):
        """<u_0, x**6> moved by 1."""
        t = setup.moments
        (nums, den), *rest = t.rows
        nums = nums[:6] + (nums[6] + den,) + nums[7:]
        setup.__dict__["moments"] = MomentTable(t.d, t.n_max, ((nums, den), *rest))

    @staticmethod
    def move_deltas(setup):
        deltas = [list(row) for row in setup.deltas]
        deltas[6][2] += Poly.const(F(1, 7))
        setup.__dict__["deltas"] = deltas

    def test_ratio_power_suites_read_the_closed_forms(self, setup):
        self.move_closed_forms(setup)
        self.assert_fail(setup, "sz4", "sz5", "moment-recursion")

    @pytest.mark.parametrize("entry", ["beta5", "gamma30"])
    def test_companion_suites_read_the_companion_table(self, setup, entry):
        t = setup.q_table
        beta, gamma = list(t.beta), dict(t.gamma)
        if entry == "beta5":
            beta[5] += F(1, 7)
        else:
            gamma[3, 0] += F(1, 7)
        setup.__dict__["q_table"] = RecurrenceTable(t.d, t.n_max, tuple(beta), gamma)
        self.assert_fail(setup, "hahn", "sr2")

    def test_moment_suites_read_the_moments(self, setup):
        self.move_moment(setup)
        self.assert_fail(setup, "d-orthogonality", "moment-recursion")

    def test_exponential_suites_read_the_exponential_factor(self, setup, monkeypatch):
        coefficients = ml_suites._exp_coefficients
        monkeypatch.setattr(ml_suites, "_exp_coefficients", lambda *args: [
            e + F(1, 7) if m == 3 else e for m, e in enumerate(coefficients(*args))])
        self.assert_fail(setup, "sz4", "moment-recursion")

    def test_difference_equations_read_the_deltas(self, setup):
        self.move_deltas(setup)
        self.assert_fail(setup, "de1", "de2")

    @pytest.mark.parametrize("kind, identity", [
        ("hyp-laguerre", "quasi-order"), ("hyp-laguerre", "hyp-lincomb"), ("laguerre", "routes"),
        ("laguerre", "laguerre-structure"), ("laguerre", "d-orthogonality"),
        ("laguerre", "regularity"), ("charlier", "routes"),
        ("charlier", "hahn"), ("charlier", "de1"), ("charlier", "de2"), ("charlier", "sz4"),
        ("charlier", "sz5"), ("charlier", "d-orthogonality"), ("charlier", "moment-recursion")])
    def test_unmoved_truth_passes_beyond_ml(self, kind, identity):
        assert self.statuses(TRUTH_SETUPS[kind](), identity) == {"pass"}

    @pytest.mark.parametrize("field", ["b_1", "b_2", "beta_exp"])
    def test_laguerre_structure_reads_the_parameters(self, field):
        # The d = 3 family table kept, one parameter the relation reads moved by 1/7.
        setup = TRUTH_SETUPS["laguerre"]()
        p = setup.params
        b = [bi + F(1, 7) if field == f"b_{i}" else bi for i, bi in enumerate(p.b)]
        beta_exp = p.beta_exp + F(1, 7) if field == "beta_exp" else p.beta_exp
        moved_params = LagParams(p.d, p.a, beta_exp, p.theta, b)
        self.assert_fail(FamilySetup("laguerre", setup.order, moved_params, setup.polys),
                         "laguerre-structure")

    def test_hyp_suites_read_the_quasi_family(self):
        setup = TRUTH_SETUPS["hyp-laguerre"]()
        setup.__dict__["quasi"] = moved(setup.quasi, 5)
        self.assert_fail(setup, "quasi-order", "hyp-lincomb")

    def test_order_l_witness_holds_p_basis_coefficients(self):
        # quasi[5] + 1/7 adds 1/7 on P_0, below the window P_1..P_5 of the
        # order-l weights (-1)^k C(4, k) 5!/(5-k)! (9/4 + 4)_{5-k} / (5/4)_5
        setup = TRUTH_SETUPS["hyp-laguerre"]()
        setup.__dict__["quasi"] = moved(setup.quasi, 5)
        [report] = family_suites("hyp-laguerre")["hyp-lincomb"](setup)
        weights = ["2048/663", "-25600/663", "92800/663", "-127600/663", "59015/663"]
        assert report.witness.to_dict() == {
            "n": 5, "context": "order-l combination, coefficients over P_0..P_5",
            "actual": ["0", *weights], "expected": ["1/7", *weights]}

    @pytest.mark.parametrize("entry, identities", [(2, ("quasi-order", "hyp-lincomb")),
                                                   (7, ("hyp-lincomb",))],
                             ids=["below-window", "inside-window"])
    def test_hyp_suites_read_the_quasi_expansions(self, entry, identities):
        # quasi[9] lies on P_5..P_9 (d*l = 4)
        setup = TRUTH_SETUPS["hyp-laguerre"]()
        expansions = [list(coeffs) for coeffs in setup.quasi_expansions]
        assert [i for i, c in enumerate(expansions[9]) if c] == list(range(5, 10))
        expansions[9][entry] += F(1, 7)
        setup.__dict__["quasi_expansions"] = expansions
        self.assert_fail(setup, *identities)

    def test_laguerre_orthogonality_reads_the_moments(self):
        setup = TRUTH_SETUPS["laguerre"]()
        t = setup.moments
        (nums, den), *rest = t.rows
        nums = tuple(7 * c + (den if k == 6 else 0) for k, c in enumerate(nums))
        setup.__dict__["moments"] = MomentTable(t.d, t.n_max, ((nums, 7 * den), *rest))
        assert t.moment(0, 6) + F(1, 7) == setup.moments.moment(0, 6)
        self.assert_fail(setup, "d-orthogonality")

    @pytest.mark.parametrize("kind", ["laguerre", "charlier"])
    def test_routes_beyond_ml_read_the_generating_function(self, kind):
        setup = TRUTH_SETUPS[kind]()
        setup.__dict__["gf"] = moved(setup.gf, 5)
        self.assert_fail(setup, "routes")

    def test_charlier_hahn_reads_the_companion_table(self):
        setup = TRUTH_SETUPS["charlier"]()
        t = setup.q_table
        beta = tuple(b + F(1, 7) if n == 5 else b for n, b in enumerate(t.beta))
        setup.__dict__["q_table"] = RecurrenceTable(t.d, t.n_max, beta, t.gamma)
        self.assert_fail(setup, "hahn")

    @pytest.mark.parametrize("move, identities", [
        ("closed_forms", ("sz4", "sz5", "moment-recursion")),
        ("moment", ("d-orthogonality", "moment-recursion")), ("deltas", ("de2",))])
    def test_charlier_suites_read_the_same_truths_as_ml(self, move, identities):
        setup = TRUTH_SETUPS["charlier"]()
        getattr(self, f"move_{move}")(setup)
        self.assert_fail(setup, *identities)

    def test_charlier_de1_never_weighs_the_moved_delta(self):
        # de1 reads L**2 P_6 only at k = 2, n = 8, weighted by multiples of
        # alpha and of gamma^0_7.  Charlier has alpha = 0, and at alpha*beta = 0
        # gamma^0 vanishes identically: the degenerate charlier family of
        # ROADMAP.md item 2.  So de1 passes where ml's fails; de2 sees the move.
        setup = TRUTH_SETUPS["charlier"]()
        self.move_deltas(setup)
        assert self.statuses(setup, "de1") == {"pass"}

    def test_laguerre_regularity_reads_the_fitted_table(self):
        # d = 3, N = 10: the flags cover m = 0..N - 1 - d = 6
        setup = TRUTH_SETUPS["laguerre"]()
        [report] = family_suites("laguerre")["regularity"](setup)
        assert report.notes == ("all regularity conditions hold through m = 6",)
        t = setup.p_table
        setup.__dict__["p_table"] = RecurrenceTable(t.d, t.n_max, t.beta, {**t.gamma, (4, 0): 0})
        [report] = family_suites("laguerre")["regularity"](setup)
        assert (report.status, report.notes) == ("pass", (
            "warning: regularity fails at m = 3 (gamma^0 vanishing); "
            "sequence is not d-orthogonal there",))


# Fresh setups of the other families for TestTruthSensitivity, which moves
# their cached truths.
TRUTH_SETUPS = {
    "hyp-laguerre": lambda: FamilySetup("hyp-laguerre", 10,
                                        HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)),
    "laguerre": lambda: FamilySetup("laguerre", 10,
                                    LagParams(3, F(1, 2), F(-3, 2), F(1, 7), [1, F(1, 3), F(1, 5)])),
    "charlier": lambda: FamilySetup("charlier", 10, MLParams(2, 0, -1, [F(1, 2)])),
}


# The sweep's families and the hyp family whose aligned reduction is skipped.
COUNTED_FAMILIES = {**SWEEP_FAMILIES, "hyp-d1-skip": ("hyp-laguerre", HypParams(1, [1], 0, 2))}


@pytest.mark.parametrize("family", COUNTED_FAMILIES)
@pytest.mark.parametrize("row", [None, 5], ids=["exact", "row5-moved"])
def test_one_report_per_evaluation(monkeypatch, family, row):
    """Every report a suite returns is built once, so nothing evaluates a
    report's checks and throws the report away."""
    kind, params = COUNTED_FAMILIES[family]
    table = FamilySetup(kind, SWEEP_ORDER, params).polys
    if row is not None:
        table[row] = table[row] + Poly.const(F(1, 7))
    built = []
    init = VerificationReport.__init__
    monkeypatch.setattr(VerificationReport, "__init__",
                        lambda *args, **kw: built.append(args) or init(*args, **kw))
    for suite_id, suite in family_suites(kind).items():
        built.clear()
        reports = suite(FamilySetup(kind, SWEEP_ORDER, params, table))
        assert len(built) == len(reports), suite_id


# A table that fails the fit a suite reads: suite id -> (kind, params, row m,
# power k, the fit that the change breaks).  Moving the constant of P_5 keeps
# every Q_n, so the companion replay still passes and the family's own band
# fit fails; moving its x coefficient changes Q_4, which breaks the companion
# fit; an x**4 term in P_3 leaves the basis the moments and the quasi family's
# expansions, read by quasi-order and hyp-lincomb, need.
FIT_ML, FIT_HYP = MLParams(2, 1, -1, [1]), HypParams(2, [F(1, 2), F(1, 3)], F(1, 4), 2)
FIT_FAILURES = {
    "hahn": ("ml", FIT_ML, 5, 0, lambda s: fit_recurrence(s.polys, s.d)),
    "sr2": ("ml", FIT_ML, 5, 1, lambda s: fit_recurrence(s.q, s.d)),
    "de1": ("ml", FIT_ML, 5, 0, lambda s: fit_recurrence(s.polys, s.d)),
    "de2": ("ml", FIT_ML, 5, 0, lambda s: fit_recurrence(s.polys, s.d)),
    "regularity": ("ml", FIT_ML, 5, 0, lambda s: fit_recurrence(s.polys, s.d)),
    "d-orthogonality": ("ml", FIT_ML, 3, 4, lambda s: moments_by_inversion(s.polys, s.d)),
    "moment-recursion": ("ml", FIT_ML, 3, 4, lambda s: moments_by_inversion(s.polys, s.d)),
    "quasi-order": ("hyp-laguerre", FIT_HYP, 3, 4,
                    lambda s: quasi_orthogonality_order(s.quasi_expansions, s.d)),
    "hyp-lincomb": ("hyp-laguerre", FIT_HYP, 3, 4, lambda s: s.quasi_expansions),
}
# Notes a suite writes only when its fitted checks pass.
PASS_NOTES = {"hahn": "fitted companion table shows the predicted shift",
              "quasi-order": "quasi-orthogonality order is exactly 2"}


class TestFitFailureReports:
    """A suite whose fit fails reports a failure at the step the fit names,
    moved into its range, with the fit's error as context and no notes."""

    @pytest.mark.parametrize("suite", FIT_FAILURES)
    def test_failed_fit_report_shape(self, suite):
        kind, params, m, k, fit = FIT_FAILURES[suite]
        table = FamilySetup(kind, SWEEP_ORDER, params).polys
        table[m] = table[m] + Poly([0] * k + [12345])
        setup = FamilySetup(kind, SWEEP_ORDER, params, table)
        with pytest.raises(FitError) as exc:
            fit(setup)
        reports = family_suites(kind)[suite](setup)
        assert reports
        for report in reports:
            assert report.status == "fail"
            assert report.n_min <= report.witness.n <= report.n_max
            assert report.witness.n == min(max(exc.value.index, report.n_min), report.n_max)
            assert report.witness.context == str(exc.value)
            assert report.notes == ()

    @pytest.mark.parametrize("suite", PASS_NOTES)
    def test_verified_note_only_on_a_pass(self, suite):
        kind, params, *_ = FIT_FAILURES[suite]
        [report] = family_suites(kind)[suite](FamilySetup(kind, SWEEP_ORDER, params))
        assert report.status == "pass"
        assert any(note.startswith(PASS_NOTES[suite]) for note in report.notes)
