"""One verification operation per catalog identity, run from one registry.

Every check here is an exact polynomial identity over the rationals: a pass
means coefficientwise equality at every checked index, never a numerical
tolerance.  Reports carry the first failing witness when something breaks.

A run is one ``FamilySetup``: the family, its parameters, the truncation
order and, optionally, a supplied table of P_0..P_N.  The objects the suites
share (the family, its companion sequence, the fitted recurrence tables, the
moments, the generating-function route, the ratio-power closed forms, the
delta_w powers of the difference equations) are computed on first use and
kept for the rest of the run, and every suite reads the family from the
setup, so a supplied table is what gets checked.  Every ratio-power form,
stated or repaired, is a weighted sum over the step-w windows of one
stepper, ``_ratio_windows``, which grows each window by one linear factor
per index, so no form shifts a falling factorial.
``SUITES`` maps each family kind to its suites in run order; a suite is a
function of the setup returning its reports.  A suite whose index range is
empty reports not-applicable.

Seven identities are recorded in two variants.  The "stated" variant is the
original transcription; where that transcription is internally inconsistent
(a misplaced free constant, a flipped summation sign, a missing scale
factor), a "repaired" variant derived from the generating functions is kept
alongside it.  All seven run in reconciliation mode through ``_reconciled``:
the stated form is tried first, the repaired form second.  A stated pass
passes; a repaired pass after a stated failure (or a stated form that cannot
be evaluated) passes with the repair and the stated failure pinned in the
notes; when both fail, the report carries the repaired witness plus one
note saying where the stated form failed.  Silent substitution never happens.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .families import (
    _is_negative_integer,
    hyp_laguerre,
    hyp_quasi,
    laguerre_q_sequence,
    laguerre_type_by_gf,
    laguerre_type_by_recurrence,
    ml_by_gf,
    ml_by_recurrence,
    ml_q_sequence,
    ml_recurrence_table,
    terminating_pfq,
    write_params,
)
from .orthogonality import (
    FitError,
    MomentTable,
    OrthogonalityReport,
    RecurrenceTable,
    check_regularity,
    fit_recurrence,
    moments_by_inversion,
    quasi_orthogonality_order,
    verify_d_orthogonality,
)
from .polynomials import (
    Poly,
    RationalLike,
    Record,
    as_rational,
    binomial,
    delta_w,
    derivative,
    factorial,
    format_rational,
    lincomb,
    shift,
)
from .series import egf_extract, gf_ratio_power, series_exp

__all__ = [
    "Witness",
    "first_mismatch",
    "VerificationReport",
    "FamilySetup",
    "SUITES",
    "verify_routes",
    "verify_hahn",
    "verify_nccd",
    "verify_sr_block",
    "verify_sr2",
    "verify_de",
    "verify_de1",
    "verify_de2",
    "verify_sz4",
    "verify_sz5",
    "verify_regularity",
    "verify_orthogonality",
    "verify_moment_recursion",
    "verify_laguerre_structure",
    "verify_hyp_lincomb",
    "verify_quasi_order",
    "ratio_power_closed_form",
]

# Free constants are linear on both sides of the relations that carry one, so
# two sample values already force the identity; three over-determine it.
FREE_CONSTANT_SAMPLES = (Fraction(0), Fraction(1), Fraction(-2, 3))

# Notes that start with this prefix are warnings: they are counted in a run's
# summary but never change a report's status.
WARNING_PREFIX = "warning: "


class Witness(Record):
    """First failing index of an identity check, with both sides."""

    _fields = ("n", "expected", "actual", "context")

    def __init__(self, n: int, expected: Poly, actual: Poly, context: str = ""):
        self.n, self.expected, self.actual, self.context = n, expected, actual, context

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "context": self.context,
            "expected": [format_rational(c) for c in self.expected.coeffs],
            "actual": [format_rational(c) for c in self.actual.coeffs],
        }


class VerificationReport(Record):
    """Outcome of one identity check over an index range.

    status is "pass", "fail", or "not-applicable"; a witness is present
    exactly when the status is "fail".  Notes carry warnings and pinned
    reconciliation conventions; they never affect the status.
    """

    __slots__ = _fields = ("identity", "params", "n_min", "n_max", "status", "witness", "notes")

    def __init__(self, identity: str, params: dict, n_min: int, n_max: int, status: str,
                 witness: Optional[Witness] = None, notes: tuple[str, ...] = ()):
        if (status == "fail") != (witness is not None):
            raise ValueError("a witness is present exactly when the status is fail")
        self.identity, self.params, self.n_min, self.n_max = identity, params, n_min, n_max
        self.status, self.witness, self.notes = status, witness, notes

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "range": [self.n_min, self.n_max],
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "notes": list(self.notes),
        }


def first_mismatch(checks: Iterable[tuple[int, Poly | list, Poly | list, str]]) -> Optional[Witness]:
    """The first check (n, actual, expected, context) whose sides differ, as a Witness
    of both sides reduced.  A side is a Poly or a list of ``lincomb`` terms: two Polys
    compare as pairs, other sides pass iff lincomb(actual - expected terms) is zero."""
    for n, actual, expected, context in checks:
        if isinstance(actual, Poly) and isinstance(expected, Poly):
            if actual == expected:
                continue
        else:
            plus, minus = ([(1, s)] if isinstance(s, Poly) else s for s in (actual, expected))
            if lincomb(plus + [(-c, *factors) for c, *factors in minus]).is_zero():
                continue
            actual, expected = (s if isinstance(s, Poly) else lincomb(s) for s in (actual, expected))
        return Witness(n=n, expected=expected, actual=actual, context=context)
    return None


def _report(identity: str, params: dict, n_min: int, n_max: int,
            witness: Optional[Witness], notes: Sequence[str] = ()) -> VerificationReport:
    """A pass or fail report; a pass over an empty range is not-applicable."""
    if witness is None and n_max < n_min:
        return _not_applicable(identity, params, n_min, n_max, "empty index range")
    return VerificationReport(
        identity=identity,
        params=params,
        n_min=n_min,
        n_max=n_max,
        status="fail" if witness else "pass",
        witness=witness,
        notes=tuple(notes),
    )


def _not_applicable(identity: str, params: dict, n_min: int, n_max: int,
                    reason: str) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        n_min=n_min,
        n_max=n_max,
        status="not-applicable",
        notes=(reason,),
    )


def _reconciled(identity: str, params: dict, n_min: int, n_max: int,
                stated: Iterable | str, repaired: Iterable, failed: str,
                repair: str | None = None, leading: Sequence[str] = (),
                verified: str = "stated form verified") -> VerificationReport:
    """Reconciliation mode, the one policy for every identity whose stated
    transcription is inconsistent.

    ``stated`` is the stated form's checks, or the reason it cannot be
    evaluated; ``repaired`` is the repaired form's checks, tried only when the
    stated form does not pass.  A repaired pass carries ``failed``, a template
    over the stated form's first witness (``{n}``, ``{context}``, ``{actual}``,
    ``{expected}``), or the not-evaluable reason in its place, then the plain
    ``repair`` note if there is one.  Every report starts with the ``leading``
    notes.  When both forms fail, the report carries the repaired witness,
    since the repaired form is the one the suite pins, and one note saying
    where the stated form failed."""
    if isinstance(stated, str):
        failed = failure = stated
    else:
        witness = first_mismatch(stated)
        if witness is None:
            return _report(identity, params, n_min, n_max, None, (*leading, verified))
        failed = failed.format(**vars(witness))
        failure = f"stated form fails too (first witness at n = {witness.n}, {witness.context})"
    witness = first_mismatch(repaired)
    if witness is None:
        pinned = (failed,) if repair is None else (failed, repair)
        return _report(identity, params, n_min, n_max, None, (*leading, *pinned))
    return _report(identity, params, n_min, n_max, witness, (*leading, failure))


def _scalar_witness(n: int, actual, expected, context: str) -> Witness:
    return Witness(n=n, expected=Poly.const(expected), actual=Poly.const(actual), context=context)


def _fit_witness(exc: FitError, lo: int, hi: int) -> Witness:
    """The step at which a sequence left its band recurrence, moved to the
    nearest end of the report's range [lo, hi]; the context names the row."""
    return _scalar_witness(min(max(exc.index, lo), hi), 1, 0, str(exc))


# ---------------------------------------------------------------------------
# The run object
# ---------------------------------------------------------------------------


class FamilySetup(Record):
    """One verification run.

    ``kind`` is one of ml, charlier, laguerre and hyp-laguerre, and
    ``params`` its parameter set.  ``table`` is a supplied
    P_0..P_order; when present it is the family every suite checks.  The
    cached attributes below are computed at most once per run.
    """

    _fields = ("kind", "order", "params", "table")
    __hash__ = None

    def __init__(self, kind: str, order: int, params, table: Optional[list[Poly]] = None):
        self.kind, self.order, self.params, self.table = kind, order, params, table

    @property
    def d(self) -> int:
        return self.params.d

    def public_params(self, tagged: bool = False) -> dict:
        """The parameters as an artifact writes them; ``tagged`` adds the
        family name identity reports carry (charlier is the ml family)."""
        tag = {"family": "ml" if self.kind == "charlier" else self.kind} if tagged else {}
        return {**tag, **write_params(self.params)}

    def default_suites(self) -> tuple[str, ...]:
        return tuple(SUITES[self.kind])

    def recurrence_route(self) -> list[Poly]:
        """P_0..P_order from the band recurrence (hyp-laguerre: the
        terminating sums, which have no second route)."""
        if self.kind == "laguerre":
            return laguerre_type_by_recurrence(self.params, self.order)
        if self.kind == "hyp-laguerre":
            return hyp_laguerre(self.params, self.order)
        return ml_by_recurrence(self.params, self.order)

    @cached_property
    def polys(self) -> list[Poly]:
        """The family under test: the supplied table, else the recurrence route."""
        return self.table if self.table is not None else self.recurrence_route()

    @cached_property
    def gf(self) -> list[Poly]:
        """P_0..P_order read off the generating function."""
        if self.kind == "laguerre":
            return laguerre_type_by_gf(self.params, self.order)
        return ml_by_gf(self.params, self.order)

    @cached_property
    def q(self) -> list[Poly]:
        """Companion sequence Q_0..Q_{order-1} under the lowering operator."""
        if self.kind == "laguerre":
            return laguerre_q_sequence(self.polys)
        if self.kind == "hyp-laguerre":
            raise ValueError("companion sequence is only defined for the ml, charlier, "
                             "and laguerre families")
        return ml_q_sequence(self.polys, self.params.w)

    @cached_property
    def p_table(self) -> RecurrenceTable:
        return fit_recurrence(self.polys, self.d)

    @cached_property
    def q_table(self) -> RecurrenceTable:
        return fit_recurrence(self.q, self.d)

    @cached_property
    def moments(self) -> MomentTable:
        return moments_by_inversion(self.polys, self.d)

    @cached_property
    def pattern(self) -> OrthogonalityReport:
        return verify_d_orthogonality(self.polys, self.moments, self.d, self.order)

    @cached_property
    def quasi(self) -> list[Poly]:
        return hyp_quasi(self.params, self.order)

    @cached_property
    def closed_forms(self) -> list[Poly]:
        """The ratio-power closed forms P0_0..P0_order at the run's ratio
        parameters."""
        return ratio_power_closed_form(self.params.alpha, self.params.beta, self.order)

    @cached_property
    def deltas(self) -> list[list[Poly]]:
        """deltas[m][j] = delta_w**j P_m for j <= d+1, the powers the
        difference equations read; delta_w P_m is m Q_{m-1}, and 0 for the
        P_0 = 1 that their recurrence fit requires."""
        out = []
        for m, p in enumerate(self.polys):
            row = [p, self.q[m - 1] * m if m else Poly.zero()]
            for _ in range(self.d):
                row.append(delta_w(row[-1], self.params.w))
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Routes, companions and orthogonality
# ---------------------------------------------------------------------------


def verify_routes(setup: FamilySetup) -> list[VerificationReport]:
    """The recurrence route equals the generating-function route, and a
    supplied table equals the recurrence route."""
    rec = setup.recurrence_route() if setup.table is not None else setup.polys
    checks = [(n, rec[n], setup.gf[n], "recurrence route vs generating-function route")
              for n in range(setup.order + 1)]
    if setup.table is not None:
        checks += [(n, setup.table[n], rec[n], "supplied table vs recurrence route")
                   for n in range(setup.order + 1)]
    return [_report("routes", setup.public_params(), 0, setup.order, first_mismatch(checks))]


def _hahn_shift(table: RecurrenceTable, alpha: Fraction, beta: Fraction) -> RecurrenceTable:
    """The table the difference companions Q_n = delta_w P_{n+1}/(n+1) obey:
    beta gains alpha (the table's beta_n, which is subtracted, falls by
    alpha), the top gamma class gains n*alpha*beta, lower classes are unchanged."""
    top = table.d - 1
    gamma = {(m, k): g + m * alpha * beta if k == top else g for (m, k), g in table.gamma.items()}
    return RecurrenceTable(table.d, table.n_max, tuple(b - alpha for b in table.beta), gamma)


def verify_hahn(setup: FamilySetup) -> list[VerificationReport]:
    """Companion-sequence conformance: the difference companions satisfy the
    shifted band recurrence, and their fitted table shows the predicted
    coefficient shift against the family's own table."""
    p = setup.params
    params = setup.public_params()
    if setup.order < p.d + 2:
        return [_not_applicable("hahn", params, 0, setup.order - 1,
                                f"fitting the companion table needs order N >= d + 2 = {p.d + 2}")]
    q = setup.q
    shifted = _hahn_shift(ml_recurrence_table(p.alpha, p.beta, p.b, p.d, len(q) - 1), p.alpha, p.beta)
    witness = first_mismatch((n + 1, q[n + 1], shifted.step(q, n), "companion band recurrence replay")
                             for n in range(len(q) - 1))
    notes = []
    if witness is None:
        try:
            p_table, q_table = setup.p_table, setup.q_table
        except FitError as exc:
            return [_report("hahn", params, 0, len(q) - 1, _fit_witness(exc, 0, len(q) - 1))]
        expected = _hahn_shift(p_table, p.alpha, p.beta)
        checks = [(n, b, expected.beta[n], "companion beta shift by alpha")
                  for n, b in enumerate(q_table.beta)]
        checks += [(m, g, expected.gamma_at(m, k), "top gamma class shifted by n*alpha*beta"
                    if k == p.d - 1 else "lower gamma classes unchanged")
                   for (m, k), g in sorted(q_table.gamma.items())]
        bad = next(((n, a, e, ctx) for n, a, e, ctx in checks if a != e), None)
        if bad is not None:
            witness = _scalar_witness(*bad)
        else:
            notes.append("fitted companion table shows the predicted shift: beta gains alpha, "
                         "the top gamma class gains n*alpha*beta, lower classes are unchanged")
    return [_report("hahn", params, 0, len(q) - 1, witness, notes)]


def verify_regularity(setup: FamilySetup) -> list[VerificationReport]:
    """Fit the band recurrence and flag every vanishing gamma^0; a flag is a
    warning, a sequence that fits no band recurrence is a failure."""
    params = setup.public_params()
    upto = setup.order - 1 - setup.d
    if upto < 0:
        return [_not_applicable("regularity", params, 0, upto,
                                f"fitting the band recurrence needs order N >= d + 1 = {setup.d + 1}")]
    try:
        table = setup.p_table
    except FitError as exc:
        return [_report("regularity", params, 0, setup.order,
                        _fit_witness(exc, 0, setup.order))]
    flags = check_regularity(table, upto)
    if flags:
        note = (WARNING_PREFIX + "regularity fails at m = " + ", ".join(str(m) for m in flags)
                + " (gamma^0 vanishing); sequence is not d-orthogonal there")
    else:
        note = f"all regularity conditions hold through m = {upto}"
    return [_report("regularity", params, 0, upto, None, (note,))]


def verify_orthogonality(setup: FamilySetup) -> list[VerificationReport]:
    """The full d-orthogonality pattern of the dual-functional moments."""
    params = setup.public_params()
    if setup.order < setup.d:
        return [_not_applicable("d-orthogonality", params, 0, setup.order,
                                f"the moments need order N >= d = {setup.d}")]
    try:
        report = setup.pattern
    except FitError as exc:
        return [_report("d-orthogonality", params, 0, setup.order,
                        _fit_witness(exc, 0, setup.order))]
    witness = None
    if report.zero_failures:
        first = report.zero_failures[0]
        witness = _scalar_witness(first.n, first.value, 0,
                                  f"vanishing condition at (r={first.r}, m={first.m}, n={first.n})")
    if report.regularity_failures:
        cells = ", ".join(f"(r={c.r}, m={c.m})" for c in report.regularity_failures)
        note = WARNING_PREFIX + f"regularity conditions fail at {cells}"
    else:
        note = "all regularity conditions in the pattern are nonzero"
    return [_report("d-orthogonality", params, 0, setup.order, witness, (note,))]


# ---------------------------------------------------------------------------
# Connection and structure relations
# ---------------------------------------------------------------------------


def verify_nccd(setup: FamilySetup) -> list[VerificationReport]:
    """P_n = Q_n - n alpha Q_{n-1}: the two-term connection between the family
    and its difference companions.  At alpha = 0 this degenerates to P = Q."""
    p, polys, n_max = setup.params, setup.polys, setup.order
    params = setup.public_params(tagged=True)
    if n_max < 1:
        return [_not_applicable("nccd", params, 0, n_max - 1, "empty index range")]
    q = setup.q

    def checks():
        yield 0, polys[0], q[0], "P_0 = Q_0"
        for n in range(1, n_max):
            yield (n, polys[n], lincomb(((1, q[n]), (-p.lam(n), q[n - 1]))),
                   f"P_{n} vs Q_{n} - {n}*alpha*Q_{n - 1}")

    notes = []
    if p.alpha == 0:
        notes.append("alpha = 0: connection degenerates to P_n = Q_n (difference-Appell case)")
    return [_report("nccd", params, 0, n_max - 1, first_mismatch(checks()), notes)]


def verify_sr_block(setup: FamilySetup) -> list[VerificationReport]:
    """The five displayed recurrences tying the family to its difference
    companions (shift identity, cross identity, difference of a product in
    both displayed forms, and the multiplication relation), each as an exact
    polynomial identity for n below the order."""
    p, polys, q, n_max = setup.params, setup.polys, setup.q, setup.order
    params = setup.public_params(tagged=True)
    alpha, beta, w = p.alpha, p.beta, p.w
    hi = n_max - 1
    shifted = [shift(polys[n], w) for n in range(n_max)]
    product_delta = [delta_w(polys[n + 1] * polys[n], w) for n in range(n_max)]
    reports: list[VerificationReport] = []

    def sr5():
        for n in range(n_max):
            rhs = lincomb(((1, q[n]), (-n * beta, q[n - 1]))) if n >= 1 else q[n]
            yield n, shifted[n], rhs, "P_n(x+w) vs Q_n - n*beta*Q_{n-1}"

    reports.append(_report("sr5", params, 0, hi, first_mismatch(sr5())))

    def sr7():
        for n in range(1, n_max):
            lhs = lincomb(((1, polys[n]), (-beta * n, polys[n - 1])))
            rhs = lincomb(((1, shifted[n]), (-alpha * n, shifted[n - 1])))
            yield n, lhs, rhs, "P_n - beta*n*P_{n-1} vs shifted"

    reports.append(_report("sr7", params, 1, hi, first_mismatch(sr7())))

    def sr3():
        for n in range(n_max):
            yield (n, q[n] * w, lincomb(((alpha, shifted[n]), (-beta, polys[n]))),
                   "w*Q_n vs alpha*P_n(x+w) - beta*P_n")

    reports.append(_report("sr3", params, 0, hi, first_mismatch(sr3())))

    def sr4():
        for n in range(n_max):
            terms = [(n + 1, shifted[n], q[n])]
            if n >= 1:
                terms.append((n, polys[n + 1], q[n - 1]))
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs product form"

    reports.append(_report("sr4", params, 0, hi, first_mismatch(sr4())))

    def sr4_alt():
        for n in range(n_max):
            terms = [(n + 1, q[n], q[n])]
            if n >= 1:
                terms += [(n, polys[n + 1], q[n - 1]), (-n * (n + 1) * beta, q[n], q[n - 1])]
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs squared form"

    reports.append(_report("sr4-alt", params, 0, hi, first_mismatch(sr4_alt())))

    def sr6(variant):
        for n in range(n_max):
            for c in FREE_CONSTANT_SAMPLES:
                lhs, rhs = _sr6_sides(p, polys, q, n, c, variant)
                yield n, lhs, rhs, f"(x - {format_rational(c)})Q_n, variant {variant}"

    reports.append(_reconciled(
        "sr6", params, 0, hi, sr6("stated"), sr6("repaired"),
        "stated form fails (first witness at n = {n}); repaired form pinned: the free "
        "constant multiplies Q_n rather than P_n, and the binomial correction sum "
        "enters with the opposite sign"))
    return reports


def _sr6_sides(p, polys, q, n: int, c: Fraction, variant: str) -> tuple[Poly, Poly]:
    """Both sides of the multiplication relation (x - c) Q_n = ... at one n.

    stated: the free constant multiplies P_n on the right and the correction
    sum enters subtracted.  repaired: the free constant multiplies Q_n (so it
    cancels the same term on the left) and the correction sum enters added;
    the repaired variant is the one consistent with the band recurrences.
    """
    beta = p.beta
    lhs = Poly((-c, 1)) * q[n]
    correction = [(binomial(n, i) * (beta * i * p.b(i - 1) - p.b(i)), polys[n - i])
                  for i in range(1, min(p.d, n + 1))]
    if variant == "stated":
        rhs = lincomb([(1, polys[n + 1]), (-(c + p.b(0) + beta * n), polys[n]),
                       *((-coef, poly) for coef, poly in correction)])
    else:
        rhs = lincomb([(1, polys[n + 1]), (-(p.b(0) + beta * n), polys[n]), (-c, q[n]),
                       *correction])
    return lhs, rhs


def verify_sr2(setup: FamilySetup) -> list[VerificationReport]:
    """The general multiplication relation for d >= 2, assembled entirely from
    the fitted recurrence table of the companion sequence.

    Checked at three values of the free constant, in both displayed forms
    (the plain one and the remark form obtained by stepping the connection
    once).  Needs every lambda_k = k alpha nonzero, so alpha = 0 reports
    not-applicable rather than failure."""
    p, polys = setup.params, setup.polys
    params = setup.public_params(tagged=True)
    lo, hi = p.d + 1, setup.order - 1
    if p.d < 2:
        return [_not_applicable("sr2", params, lo, hi, "requires d >= 2")]
    if p.alpha == 0:
        return [_not_applicable("sr2", params, lo, hi,
                                "lambda_n = n*alpha vanishes identically at alpha = 0")]
    if hi < lo:
        return [_not_applicable("sr2", params, lo, hi, "empty index range")]
    q = setup.q
    try:
        q_table = setup.q_table
    except FitError as exc:
        return [_report("sr2", params, lo, hi, _fit_witness(exc, lo, hi))]

    def correction_sum(n: int) -> Poly:
        terms = []
        for i in range(2, p.d + 1):
            for j in range(i, p.d + 1):
                denom = Fraction(1)
                for s in range(i, j + 1):
                    denom *= p.lam(n - s)
                terms.append((q_table.gamma_at(n - j, p.d - j) / denom, polys[n - i]))
        return lincomb(terms)

    def checks(variant):
        for n in range(lo, hi + 1):
            s = correction_sum(n)
            xi = q_table.beta[n - 1]
            lam = p.lam(n)
            for c in FREE_CONSTANT_SAMPLES:
                lhs = Poly((-c, 1)) * q[n - 1]
                if variant == "stated":
                    rhs = lincomb(((1, polys[n]), (lam + xi - c, polys[n - 1]), (-1, s)))
                else:
                    rhs = lincomb(((1, polys[n]), (lam + xi, polys[n - 1]), (-c, q[n - 1]), (-1, s)))
                yield n, lhs, rhs, f"plain form, c = {format_rational(c)}, variant {variant}"
                lhs2 = Poly((-c, 1)) * q[n]
                if variant == "stated":
                    rhs2 = lincomb(((1, Poly((lam - c, 1)), polys[n]),
                                    (lam * (lam + xi - c), polys[n - 1]), (-lam, s)))
                else:
                    rhs2 = lincomb(((1, Poly((lam, 1)), polys[n]), (-c, q[n]),
                                    (lam * (lam + xi), polys[n - 1]), (-lam, s)))
                yield n, lhs2, rhs2, f"remark form, c = {format_rational(c)}, variant {variant}"

    return [_reconciled(
        "sr2", params, lo, hi, checks("stated"), checks("repaired"),
        "stated form fails (first witness at n = {n}, {context}); repaired form pinned: the "
        "free constant multiplies the companion polynomial on the right, matching the "
        "left-hand side")]


# ---------------------------------------------------------------------------
# Difference equations
# ---------------------------------------------------------------------------


def _de_correction(p, table: RecurrenceTable, n: int, i: int, top: int) -> Fraction:
    """sum_{j<i} C(top-1-j, i-1-j) alpha**(i-1-j) gamma_{n-j}^{(d-1-j)} / perm(n, j+1),
    the correction in the depth-i constant of de1 (top = k) and de2 (top = d)."""
    return sum(binomial(top - 1 - j, i - 1 - j) * p.alpha ** (i - 1 - j)
               * table.gamma_at(n - j, p.d - 1 - j) / math.perm(n, j + 1) for j in range(i))


def _de1_sides(p, deltas, table: RecurrenceTable, n: int, k: int) -> tuple[Poly, Poly]:
    """Both sides at (n, k); deltas[m][j] is delta_w**j P_m."""
    alpha, w, d = p.alpha, p.w, p.d
    beta_n = table.beta[n]
    dw = deltas[n - k]
    terms = [(1, Poly((k * w - k * alpha * (n - k + 2) - beta_n, 1)), dw[0])]
    for i in range(1, k + 1):
        slope = alpha ** i * binomial(k, i)
        const = (slope * (k * w + alpha - beta_n)
                 - alpha ** (i + 1) * binomial(k + 1, i + 1) * (n - k + i + 2)
                 - _de_correction(p, table, n, i, k))
        terms.append((1, Poly((const, slope)), dw[i]))
    for i in range(k, d):
        coef = table.gamma_at(n - i, d - 1 - i) / math.perm(n, k)
        if coef != 0:
            terms.append((-coef, deltas[n - i - 1][k]))
    return deltas[n - k + 1][0], lincomb(terms)


def _de2_sides(p, deltas, table: RecurrenceTable, n: int) -> tuple[Poly, Poly]:
    alpha, w, d = p.alpha, p.w, p.d
    beta_n = table.beta[n]
    dw = deltas[n - d]
    terms = [(1, Poly(((d + 1) * w - (d + 1) * alpha * (n - d + 1) - beta_n, 1)), dw[1])]
    for i in range(1, d + 1):
        slope = alpha ** i * binomial(d, i)
        const = (slope * ((d + 1) * w - beta_n)
                 - alpha ** (i + 1) * binomial(d + 1, i + 1) * (n - d + i + 1)
                 - _de_correction(p, table, n, i, d))
        terms.append((1, Poly((const, slope)), dw[i + 1]))
    return dw[0] * (n - d), lincomb(terms)


def verify_de(setup: FamilySetup, k: Optional[int] = None) -> VerificationReport:
    """Difference equations assembled from the fitted recurrence table.

    ``k=None`` checks de2, the order-(d+1) equation in a single polynomial;
    an int k checks de1, the mixed equation at difference depth k.
    Admissible depths are 0 <= k <= d (k = 0 is the band recurrence itself;
    beyond d the superscript indices leave the table).  Admissible indices
    start at n = d; below that the falling-factorial denominators vanish and
    the indices are reported out-of-range.
    """
    p = setup.params
    params = setup.public_params(tagged=True)
    identity = "de2" if k is None else f"de1:k={k}"
    lo, hi = p.d, setup.order - 1
    if k is not None and not 0 <= k <= p.d:
        return _not_applicable(identity, params, lo, hi,
                               f"difference depth k = {k} outside the admissible range 0..{p.d}")
    if hi < lo:
        return _not_applicable(identity, params, lo, hi, "no admissible indices below n = d")
    try:
        table = setup.p_table
    except FitError as exc:
        return _report(identity, params, lo, hi, _fit_witness(exc, lo, hi))

    def checks():
        for n in range(lo, hi + 1):
            if k is None:
                lhs, rhs = _de2_sides(p, setup.deltas, table, n)
            else:
                lhs, rhs = _de1_sides(p, setup.deltas, table, n, k)
            yield n, lhs, rhs, identity

    notes = (f"indices n < {p.d} skipped as out-of-range",)
    return _report(identity, params, lo, hi, first_mismatch(checks()), notes)


def verify_de1(setup: FamilySetup) -> list[VerificationReport]:
    """The mixed difference equation at every depth k = 1..d."""
    return [verify_de(setup, k) for k in range(1, setup.d + 1)]


def verify_de2(setup: FamilySetup) -> list[VerificationReport]:
    return [verify_de(setup)]


# ---------------------------------------------------------------------------
# Explicit forms
# ---------------------------------------------------------------------------


def _ratio_windows(w: Fraction, n_max: int):
    """The rows W(n, 0..n) for n = 1..n_max of the step-w windows

        W(n, k) = prod_{i=1-k..n-k-1} (x + i w) = <x + (n-k-1) w | w>_{n-1},

    each row from the one before with one linear factor per window:
    W(n+1, k) = W(n, k) (x + (n-k) w) and W(n+1, n+1) = W(n, n) (x - n w).
    Only the current row is kept."""
    row = [Poly.one(), Poly.one()]
    for n in range(1, n_max + 1):
        yield row
        if n < n_max:
            row = [*(window * Poly(((n - k) * w, 1)) for k, window in enumerate(row)),
                   row[n] * Poly((-n * w, 1))]


def ratio_power_closed_form(alpha: RationalLike, beta: RationalLike, n_max: int) -> list[Poly]:
    """P0_0..P0_{n_max}, where P0_n is n! times the t**n coefficient of
    ((1-beta t)/(1-alpha t))**(x/w), in closed form over the windows of
    ``_ratio_windows``:

        P0_n = w**-n sum_{k=0..n} C(n,k) (-beta)**k alpha**(n-k) x W(n, k)

    This is the repaired convolution form; it is the independent cross-check
    for the exponent-route construction and stays valid at alpha = 0 or
    beta = 0, where only one end of the sum survives."""
    alpha = as_rational(alpha)
    beta = as_rational(beta)
    w = alpha - beta
    if w == 0:
        raise ValueError("requires alpha != beta")
    x, forms = Poly.x(), [Poly.one()]
    for n, row in enumerate(_ratio_windows(w, n_max), 1):
        wn = w ** n
        forms.append(lincomb((binomial(n, k) * (-beta) ** k * alpha ** (n - k) / wn, x, window)
                             for k, window in enumerate(row)))
    return forms


def verify_sz5(setup: FamilySetup) -> list[VerificationReport]:
    """Closed-form expansion of the ratio power against the exponent-route
    series, coefficient by coefficient.  Does not read the family.  The
    stated transcription weights the same windows by (beta/alpha)**k
    (-alpha)**n, so it needs alpha != 0."""
    alpha, beta, n_max = setup.params.alpha, setup.params.beta, setup.order
    params = {
        "family": "ratio-power",
        "alpha": format_rational(alpha),
        "beta": format_rational(beta),
    }
    truth = egf_extract(gf_ratio_power(alpha, beta, n_max))

    def stated():
        yield 0, Poly.one(), truth[0], "stated closed form"
        x = Poly.x()
        for n, row in enumerate(_ratio_windows(alpha - beta, n_max), 1):
            scale = (-alpha) ** n
            form = lincomb((binomial(n, k) * (beta / alpha) ** k * scale, x, window)
                           for k, window in enumerate(row))
            yield n, form, truth[n], "stated closed form"

    return [_reconciled(
        "sz5", params, 0, n_max,
        "stated form not evaluable at alpha = 0 (weights divide by alpha)" if alpha == 0
        else stated(),
        ((n, form, truth[n], "repaired closed form") for n, form in enumerate(setup.closed_forms)),
        "stated form fails (first witness at n = {n}); repaired form pinned: weights "
        "(-beta)**k alpha**(n-k) w**-n replace (beta/alpha)**k (-alpha)**n")]


def _exp_coefficients(values: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """Coefficients of exp(sum values[i-1] t**i) through t**n_max.  Entry m
    is the multinomial sum of prod values[i-1]**k_i / k_i! over the tuples
    with sum i k_i = m, the composition sum of the sz4 and moment-recursion
    stated forms."""
    exponent = [Poly.const(values[n - 1] if 0 < n <= len(values) else 0) for n in range(n_max + 1)]
    return [c.coefficient(0) for c in series_exp(exponent)]


def verify_sz4(setup: FamilySetup) -> list[VerificationReport]:
    """Explicit multinomial form of the family, checked against P_n.

    The repaired interpretation composes the closed-form ratio-power
    coefficients with the exponential factor exactly:

        P_n = sum_{m=0..n} n!/(n-m)! A_m P0_{n-m},
        A_m = [t**m] exp(sum c_i t**i)
            = sum over weight-m composition tuples of prod c_i**k_i / k_i!,

    with P0 the repaired closed form.  The stated transcription (multinomial
    weights over parts that do not sum to n, powers (beta/alpha)**s
    (-alpha)**n (-beta)**m) is tried first where evaluable."""
    p, truth, n_max = setup.params, setup.polys, setup.order
    params = setup.public_params(tagged=True)
    alpha, beta, w = p.alpha, p.beta, p.w
    a_coeffs = _exp_coefficients(list(p.c), n_max)

    def repaired(n: int) -> Poly:
        return lincomb((math.perm(n, m) * a_coeffs[m], setup.closed_forms[n - m])
                       for m in range(n + 1) if a_coeffs[m])

    def stated():
        yield 0, Poly.one(), truth[0], "stated multinomial form"
        rows = [None]  # rows[j] = W(j, 0..j), stepped as far as n
        for n, row in enumerate(_ratio_windows(w, n_max), 1):
            rows.append(row)
            terms = []
            for s in range(n + 1):
                for m in range(min(s, n - 1) + 1):  # m = n: window of negative length
                    coef = (Fraction(factorial(n), factorial(n - s) * factorial(s - m) * factorial(m))
                            * a_coeffs[m] * (beta / alpha) ** s * (-alpha) ** n * (-beta) ** m)
                    if coef != 0:
                        terms.append((coef, Poly.x(), rows[n - m][s - m]))
            yield n, lincomb(terms), truth[n], "stated multinomial form"

    if alpha == 0:
        stated_checks = ("stated form not evaluable at alpha = 0; in the repaired form the weight "
                         "alpha**(n-k) simply kills every term but k = n")
    else:
        stated_checks = stated()
    return [_reconciled(
        "sz4", params, 0, n_max, stated_checks,
        ((n, repaired(n), truth[n], "repaired composition form") for n in range(n_max + 1)),
        "stated multinomial form fails (first witness at n = {n})",
        "repaired form pinned: P_n = sum_m n!/(n-m)! A_m P0_{n-m} with A the "
        "exponential-factor coefficients and P0 the repaired ratio-power closed form; "
        "exponent coefficients enter as a_i = c_i = b_{i-1}/i!")]


# ---------------------------------------------------------------------------
# Hypergeometric connections
# ---------------------------------------------------------------------------


def _rising(y: Fraction, n_max: int) -> list[Fraction]:
    """The rising factorials (y)_0, ..., (y)_{n_max} as one running product."""
    out = [Fraction(1)]
    for j in range(n_max):
        out.append(out[-1] * (y + j))
    return out


def verify_hyp_lincomb(setup: FamilySetup) -> list[VerificationReport]:
    """Finite linear combinations between terminating hypergeometric families.

    Three components share the report: the index-shift lemma for terminating
    sums (checked at a generic non-integer second parameter), the order-l
    combination identity defining the quasi-orthogonal family, and its
    reduction to a plain family when the first parameter aligns.  The stated
    reduction sums only l terms; for d >= 2 the consistent window is d*l
    terms, and the repaired variant pins that."""
    p, n_max, basis = setup.params, setup.order, setup.polys
    beta, l = p.beta, p.l
    params = setup.public_params(tagged=True)
    dl = p.d * l
    dens = tuple(ai + 1 for ai in p.alphavec) + (beta + 1,)
    notes: list[str] = []

    # Component 1: the index-shift lemma at a generic second parameter
    # a2 = p2/q2, off the integers where its falling factorials vanish.  Term
    # i at (n, k) weighs (-1)^i C(k, i) n!/(n-i)! (n+a2-i)_(k-i) / (a2)_k =
    # (-1)^i C(k, i) n!/(n-i)! q2^i prod_{j<k-i} ((n-i-j) q2 + p2) / a2_falling[k].
    a2 = beta + dl + Fraction(1, 5 if (beta + Fraction(1, 3)).denominator == 1 else 3)
    p2, q2 = a2.numerator, a2.denominator
    a2_falling = [math.prod(p2 - j * q2 for j in range(k)) for k in range(dl + 1)]

    def lemma_checks():
        # k runs over 1..min(n-1, d*l), empty for n < 2; sums[k] is the table
        # at first parameter a2 + 1 - k, and sums[0] gives the left side.
        sums = [terminating_pfq(n_max, (a2 + 1 - k,), dens)
                for k in range(min(n_max - 1, dl) + 1)]
        for n in range(2, n_max + 1):
            for k in range(1, min(n - 1, dl) + 1):
                terms, run = [], 1
                for i in range(k, -1, -1):  # run = prod_{j<k-i} ((n-i-j) q2 + p2)
                    terms.append((Fraction((-1) ** i * binomial(k, i) * math.perm(n, i) * q2 ** i
                                           * run, a2_falling[k]), sums[k][n - i]))
                    run *= (n - i + 1) * q2 + p2
                yield n, [(1, sums[0][n])], terms, f"index-shift lemma at k = {k}"

    if n_max < 2:
        notes.append("index-shift lemma needs N >= 2")
    else:
        witness = first_mismatch(lemma_checks())
        if witness is not None:
            return [_report("hyp-lincomb", params, 0, n_max, witness, notes)]
        notes.append("index-shift lemma verified at a generic non-integer parameter")

    # Component 2: the order-l combination.
    shifted_rise, beta_rise = _rising(beta + dl + 1, n_max), _rising(beta + 1, n_max)

    def lincomb_checks():
        for n in range(n_max + 1):
            lhs = [((-1) ** k * binomial(dl, k) * math.perm(n, k)
                    * shifted_rise[n - k] / beta_rise[n], basis[n - k])
                   for k in range(min(n, dl) + 1)]
            yield n, lhs, setup.quasi[n], "order-l combination"

    witness = first_mismatch(lincomb_checks())
    if witness is not None:
        return [_report("hyp-lincomb", params, 0, n_max, witness, notes)]
    notes.append("order-l combination verified")

    # Component 3: the aligned reduction, alpha_1 replaced by beta2 = alpha_1 - d*l.
    beta2 = p.alphavec[0] - dl
    if _is_negative_integer(beta2):
        notes.append("aligned reduction skipped: alpha_1 - d*l is a negative integer")
        return [_report("hyp-lincomb", params, 0, n_max, None, notes)]
    alpha_rise, beta2_rise = _rising(p.alphavec[0] + 1, n_max), _rising(beta2 + 1, n_max)
    reduced_family = terminating_pfq(n_max, (), (beta2 + 1,) + dens[1:p.d])

    def reduction_checks(window: int):
        for n in range(n_max + 1):
            lhs = [((-1) ** k * binomial(window, k) * math.perm(n, k)
                    * alpha_rise[n - k] / beta2_rise[n], basis[n - k])
                   for k in range(min(n, window) + 1)]
            yield n, lhs, [(1, reduced_family[n])], f"aligned reduction, window {window}"

    # At n = 0 both windows hold the one term k = 0 and cannot differ.
    verified = "verified in the stated l-term window" if n_max >= 1 else "window needs N >= 1"
    return [_reconciled(
        "hyp-lincomb", params, 0, n_max, reduction_checks(l), reduction_checks(dl),
        "stated l-term reduction window fails (first witness at n = {n}); repaired form "
        "pinned: the window is d*l terms with binomial(d*l, k) weights",
        leading=notes, verified="aligned reduction " + verified)]


def verify_quasi_order(setup: FamilySetup) -> list[VerificationReport]:
    """The quasi-orthogonal combinations have detected order exactly l over
    the family, with a nonzero bottom expansion coefficient."""
    params = setup.public_params()
    d, l = setup.d, setup.params.l
    if setup.order < d * l:
        return [_not_applicable("quasi-order", params, 0, setup.order,
                                f"order l = {l} is detectable only from N >= d*l = {d * l}")]
    try:
        found, exact = quasi_orthogonality_order(setup.quasi, setup.polys, d)
    except FitError as exc:
        return [_report("quasi-order", params, 0, setup.order,
                        _fit_witness(exc, 0, setup.order))]
    witness = None
    notes = []
    if found != l:
        witness = _scalar_witness(found, found, l, "detected quasi-orthogonality order")
    elif not exact:
        witness = _scalar_witness(found, 0, 1, "bottom expansion coefficient vanished somewhere")
    else:
        notes.append(f"quasi-orthogonality order is exactly {found}")
    return [_report("quasi-order", params, 0, setup.order, witness, notes)]


# ---------------------------------------------------------------------------
# Laguerre-type structure relation
# ---------------------------------------------------------------------------


def verify_laguerre_structure(setup: FamilySetup) -> list[VerificationReport]:
    """Derivative structure relation of the Laguerre-type family under the
    exponent convention alpha = -(beta_exp + 1).

    The relation is stated for theta = 0; a nonzero theta shifts the whole
    family by a*theta in x, so the repaired variant carries the matching
    shift on the multiplier of P'_n."""
    p, polys = setup.params, setup.polys
    params = setup.public_params(tagged=True)
    alpha = -(p.beta_exp + 1)
    a = p.a
    hi = setup.order - 1

    def rhs_at(n: int) -> Poly:
        terms = [(n, polys[n])]
        if n >= 1:
            terms.append((-n * (p.b_at(1) + a * (n + alpha)), polys[n - 1]))
        terms += [((a * p.b_at(i - 1) / factorial(i - 2) - p.b_at(i) / factorial(i - 1))
                   * math.perm(n, i), polys[n - i]) for i in range(2, min(n, p.d) + 1)]
        return lincomb(terms)

    def checks(variant):
        lhs_poly = Poly((0 if variant == "stated" else a * p.theta, 1))
        for n in range(hi + 1):
            yield n, lhs_poly * derivative(polys[n]), rhs_at(n), "structure relation"

    return [_reconciled(
        "laguerre-structure", params, 0, hi, checks("stated"), checks("repaired"),
        "stated form fails for theta != 0 (the family is the theta = 0 family shifted by "
        "a*theta in x); repaired form pinned: the derivative multiplier is x + a*theta")]


# ---------------------------------------------------------------------------
# Moment recursion
# ---------------------------------------------------------------------------


def verify_moment_recursion(setup: FamilySetup) -> list[VerificationReport]:
    """Finite linear recursion satisfied by the dual-functional moments.

    The repaired interpretation applies biorthogonality to the exponential
    factorization: for each r < d and n,

        n!/r! * Ainv_{n-r} = <u_r, P0_n>,

    where Ainv are the coefficients of exp(-sum c_i t**i), P0_n is the
    repaired ratio-power closed form, and the right side is evaluated through
    the inversion moments.  The stated transcription (multinomial weights and
    powers (beta/alpha)**k (-alpha)**n against raw monomial moments) is tried
    first where evaluable; disagreement there is recorded as a finding, not a
    failure of the moments themselves."""
    p, n_max = setup.params, setup.order
    params = setup.public_params(tagged=True)
    if n_max < p.d:
        return [_not_applicable("moment-recursion", params, 0, n_max,
                                f"the moments need order N >= d = {p.d}")]
    try:
        table = setup.moments
    except FitError as exc:
        return [_report("moment-recursion", params, 0, n_max, _fit_witness(exc, 0, n_max))]
    alpha, beta = p.alpha, p.beta
    ainv = _exp_coefficients([-ci for ci in p.c], n_max)

    def repaired_checks():
        for r in range(p.d):
            for n in range(n_max + 1):
                lhs = Fraction(factorial(n), factorial(r)) * (ainv[n - r] if n >= r else Fraction(0))
                rhs = table.apply(r, setup.closed_forms[n])
                yield n, Poly.const(lhs), Poly.const(rhs), f"biorthogonal recursion, r = {r}"

    def stated_checks():
        for r in range(p.d):
            for n in range(r, n_max + 1):
                lhs = Fraction(factorial(n - r), factorial(r)) * ainv[n - r]
                rhs = Fraction(0)
                for k in range(r, n + 1):
                    rhs += binomial(n, k) * (beta / alpha) ** k * (-alpha) ** n * table.moment(r, k)
                yield n, Poly.const(lhs), Poly.const(rhs), f"stated recursion, r = {r}"

    zero_witness = first_mismatch(
        (k, Poly.const(table.moment(r, k)), Poly.zero(), f"vanishing moments below r = {r}")
        for r in range(p.d) for k in range(r))
    if zero_witness is not None:
        return [_report("moment-recursion", params, 0, n_max, zero_witness)]

    return [_reconciled(
        "moment-recursion", params, 0, n_max,
        "stated form not evaluable at alpha = 0" if alpha == 0 else stated_checks(),
        repaired_checks(),
        "stated recursion disagrees first at n = {n} ({context}): left {actual} vs right "
        "{expected}",
        "repaired form pinned: n!/r! Ainv_{n-r} = <u_r, P0_n> with Ainv the coefficients of "
        "the inverse exponential factor (weight-(n-r) composition sums in -c_i) and P0 the "
        "repaired ratio-power closed form",
        leading=("vanishing pattern of low moments verified",))]


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

# Suite id -> suite, per family, in the order a full run reports them.
ML_SUITES = {
    "routes": verify_routes,
    "hahn": verify_hahn,
    "nccd": verify_nccd,
    "sr-block": verify_sr_block,
    "sr2": verify_sr2,
    "de1": verify_de1,
    "de2": verify_de2,
    "sz4": verify_sz4,
    "sz5": verify_sz5,
    "regularity": verify_regularity,
    "d-orthogonality": verify_orthogonality,
    "moment-recursion": verify_moment_recursion,
}
LAG_SUITES = {
    "routes": verify_routes,
    "laguerre-structure": verify_laguerre_structure,
    "regularity": verify_regularity,
    "d-orthogonality": verify_orthogonality,
}
HYP_SUITES = {
    "hyp-lincomb": verify_hyp_lincomb,
    "quasi-order": verify_quasi_order,
}
SUITES = {"ml": ML_SUITES, "charlier": ML_SUITES, "laguerre": LAG_SUITES,
          "hyp-laguerre": HYP_SUITES}
