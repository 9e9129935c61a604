"""The verification core: reports, the per-run setup, the shared suites and
the registry of every family's suites.

Every check is an exact polynomial identity over the rationals: a pass
means coefficientwise equality at every checked index, never a numerical
tolerance.  Reports carry the first failing witness when something breaks.

A run is one ``FamilySetup``: the family, its parameters, the truncation
order and, optionally, a supplied table of P_0..P_N.  The objects the suites
share (the family, its companion sequence, the fitted recurrence tables, the
moments, the generating-function route, the ratio-power closed forms, the
lowering-operator powers of the difference equations) are computed on first
use and kept for the rest of the run, and every suite reads the family from
the setup, so a supplied table is what gets checked.  Every ratio-power form,
stated or repaired, is a weighted sum over the step-w windows of one
stepper, ``_ratio_windows``, which grows each window by one integer linear
factor per index and yields the windows as integer rows over a power of w's
denominator, so no form shifts a falling factorial or builds a Fraction per
coefficient; the repaired closed form weighs them by integers too.

A suite is a function of the setup returning its reports.  It hands each
report's checks, (n, actual, expected, context) with scalars as degree-0
Polys, to ``_report``, the one evaluator, as one stream, and ``_report``
builds the report once: the first check whose sides differ is the witness, a
string in the stream is a note the report carries once every check before it
has passed, a fit that fails while the checks run is a failure at the step it
names with no notes, and a pass over an empty index range is not-applicable.
The checks read fitted tables and moments lazily, so a fit fails where a
suite first needs it.  The suites several families
run (routes, regularity, d-orthogonality) are here; each family's own
catalog is in its suite module (``ml_suites`` for ml and charlier,
``laguerre_suites``, ``hyp_suites``), whose ``SUITES`` maps suite id to
suite in run order.  ``families.Family.table()`` names each family kind's
module, and ``family_suites`` imports only the module a run needs.

Seven identities are recorded in two variants.  The "stated" variant is the
original transcription; where that transcription is internally inconsistent
(a misplaced free constant, a flipped summation sign, a missing scale
factor), a "repaired" variant derived from the generating functions is kept
alongside it.  All seven run in reconciliation mode through ``_reconciled``,
a check stream for ``_report``: the stated form is tried first, the repaired
form second.  A stated pass passes; a repaired pass after a stated failure
(or a stated form that cannot be evaluated) passes with the repair and the
stated failure pinned in the notes; when both fail, the report carries the
repaired witness plus one note saying where the stated form failed.  Silent
substitution never happens.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from importlib import import_module
from operator import mul
from typing import Iterable, Optional

from .families import Family, hyp_quasi, q_sequence, write_params
from .orthogonality import (
    FitError,
    MomentTable,
    OrthogonalityReport,
    RecurrenceTable,
    check_regularity,
    expand_in_basis,
    fit_recurrence,
    moments_by_inversion,
    verify_d_orthogonality,
)
from .polynomials import (
    Poly,
    RationalLike,
    Record,
    Row,
    as_rational,
    format_coeffs,
    lincomb,
)

__all__ = [
    "Witness",
    "first_mismatch",
    "VerificationReport",
    "FamilySetup",
    "family_suites",
    "verify_routes",
    "verify_regularity",
    "verify_orthogonality",
    "ratio_power_closed_form",
]

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
            "expected": format_coeffs(self.expected),
            "actual": format_coeffs(self.actual),
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


def first_mismatch(checks: Iterable, notes: Optional[list] = None) -> Optional[Witness]:
    """The first check (n, actual, expected, context) whose sides differ, as a Witness
    of both sides reduced.  A side is a Poly or a list of ``lincomb`` terms: two Polys
    compare as pairs, other sides pass iff lincomb(actual - expected terms) is zero.
    A string among the checks is a note, appended to ``notes`` when given."""
    for check in checks:
        if isinstance(check, str):
            if notes is not None:
                notes.append(check)
            continue
        n, actual, expected, context = check
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
            checks: Iterable) -> VerificationReport:
    """The one evaluator: runs the checks (n, actual, expected, context) through
    ``first_mismatch`` and reports their first witness, or a pass.

    A string among the checks is a note, and the report carries it once every
    check before it has passed.  A pass over an empty range is not-applicable.
    A ``FitError`` raised while the checks run is a failure at the step it
    names, moved into the range."""
    notes: list[str] = []
    try:
        witness = first_mismatch(checks, notes)
    except FitError as exc:
        return _fit_failure(identity, params, n_min, n_max, exc)
    if witness is None and n_max < n_min:
        return _not_applicable(identity, params, n_min, n_max, "empty index range")
    return VerificationReport(identity, params, n_min, n_max, "fail" if witness else "pass",
                              witness, tuple(notes))


def _fit_failure(identity: str, params: dict, n_min: int, n_max: int,
                 exc: FitError) -> VerificationReport:
    """A sequence that left its band recurrence (or the graded basis a fit
    needs) as a failure without notes: the step at fault, moved to the nearest
    end of [n_min, n_max], with the error naming the row as context."""
    witness = Witness(min(max(exc.index, n_min), n_max), Poly.zero(), Poly.one(), str(exc))
    return VerificationReport(identity, params, n_min, n_max, "fail", witness)


def _not_applicable(identity: str, params: dict, n_min: int, n_max: int,
                    reason: str) -> VerificationReport:
    return VerificationReport(identity, params, n_min, n_max, "not-applicable", notes=(reason,))


def _reconciled(stated: Iterable | str, repaired: Iterable, failed: str,
                repair: str | None = None, verified: str = "stated form verified"):
    """Reconciliation mode, the one policy for every identity whose stated
    transcription is inconsistent, as a check stream for ``_report``.

    ``stated`` is the stated form's checks, or the reason it cannot be
    evaluated; ``repaired`` is the repaired form's checks, tried only when the
    stated form does not pass.  A stated pass yields the ``verified`` note.  A
    repaired pass yields ``failed``, a template over the stated form's first
    witness (``{n}``, ``{context}``, ``{actual}``, ``{expected}``), or the
    not-evaluable reason in its place, then the plain ``repair`` note if there
    is one.  When both forms fail, the stream yields one note saying where the
    stated form failed, then the repaired witness as its one failing check,
    since the repaired form is the one the suite pins.  A ``FitError`` in
    either form reaches ``_report``."""
    if isinstance(stated, str):
        failed = failure = stated
    else:
        witness = first_mismatch(stated)
        if witness is None:
            yield verified
            return
        failed = failed.format(**vars(witness))
        failure = f"stated form fails too (first witness at n = {witness.n}, {witness.context})"
    witness = first_mismatch(repaired)
    if witness is not None:
        yield failure
        yield witness.n, witness.actual, witness.expected, witness.context
        return
    yield failed
    if repair is not None:
        yield repair


# ---------------------------------------------------------------------------
# The run object
# ---------------------------------------------------------------------------


class FamilySetup(Record):
    """One verification run.

    ``kind`` is one of ml, charlier, laguerre and hyp-laguerre, and
    ``params`` its parameter set; ``family`` is the kind's row of
    ``Family.table()``.  ``table`` is a supplied P_0..P_order, refused at
    any other length; when present it is the family every suite checks.
    The cached attributes below are computed at most once per run.
    """

    _fields = ("kind", "order", "params", "table")
    __hash__ = None

    def __init__(self, kind: str, order: int, params, table: Optional[list[Poly]] = None):
        if table is not None and len(table) != order + 1:
            raise ValueError(f"a table for order {order} holds {order + 1} rows, not {len(table)}")
        self.kind, self.order, self.params, self.table = kind, order, params, table
        self.family = Family.table()[kind]

    @property
    def d(self) -> int:
        return self.params.d

    def public_params(self, tagged: bool = False) -> dict:
        """The parameters as an artifact writes them; ``tagged`` adds the
        family name identity reports carry (charlier is the ml family)."""
        tag = {"family": self.family.reports_as} if tagged else {}
        return {**tag, **write_params(self.params)}

    @cached_property
    def polys(self) -> list[Poly]:
        """The family under test: the supplied table, else the recurrence route
        (hyp-laguerre: the terminating sums, which have no second route)."""
        if self.table is not None:
            return self.table
        return self.family.recurrence(self.params, self.order)

    @cached_property
    def gf(self) -> list[Poly]:
        """P_0..P_order read off the generating function."""
        return self.family.gf(self.params, self.order)

    @cached_property
    def lower(self):
        """The family's lowering operator, Poly -> Poly."""
        if self.family.lower is None:
            raise ValueError(f"the {self.kind} family has no lowering operator, "
                             "so no companion sequence")
        return partial(self.family.lower, self.params)

    @cached_property
    def q(self) -> list[Poly]:
        """Companion sequence Q_0..Q_{order-1} under the lowering operator."""
        return q_sequence(self.polys, self.lower)

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
        return verify_d_orthogonality(self.polys, self.moments)

    @cached_property
    def quasi(self) -> list[Poly]:
        return hyp_quasi(self.params, self.order)

    @cached_property
    def quasi_expansions(self) -> list[list[Fraction]]:
        """quasi[n] expanded over P_0..P_n, which quasi-order and hyp-lincomb read."""
        return [expand_in_basis(q, self.polys) for q in self.quasi]

    @cached_property
    def closed_forms(self) -> list[Poly]:
        """The ratio-power closed forms P0_0..P0_order at the run's ratio
        parameters."""
        return ratio_power_closed_form(self.params.alpha, self.params.beta, self.order)

    @cached_property
    def deltas(self) -> list[list[Poly]]:
        """deltas[m][j] = L**j P_m for j <= d+1 under the lowering operator
        L (delta_w for ml), the powers the difference equations read; L P_m
        is m Q_{m-1}, and 0 for the P_0 = 1 that their recurrence fit requires."""
        out = []
        for m, p in enumerate(self.polys):
            row = [p, self.q[m - 1] * m if m else Poly.zero()]
            for _ in range(self.d):
                row.append(self.lower(row[-1]))
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Suites shared by several families
# ---------------------------------------------------------------------------

def verify_routes(setup: FamilySetup) -> list[VerificationReport]:
    """The recurrence route equals the generating-function route, and a
    supplied table equals the recurrence route."""
    table = setup.table
    rec = setup.polys if table is None else setup.family.recurrence(setup.params, setup.order)
    checks = [(n, rec[n], setup.gf[n], "recurrence route vs generating-function route")
              for n in range(setup.order + 1)]
    if table is not None:
        checks += [(n, table[n], rec[n], "supplied table vs recurrence route")
                   for n in range(setup.order + 1)]
    return [_report("routes", setup.public_params(), 0, setup.order, checks)]


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
    except FitError as exc:  # the fit spans P_0..P_N, beyond the range of its flags
        return [_fit_failure("regularity", params, 0, setup.order, exc)]
    flags = check_regularity(table)
    if flags:
        note = (WARNING_PREFIX + "regularity fails at m = " + ", ".join(str(m) for m in flags)
                + " (gamma^0 vanishing); sequence is not d-orthogonal there")
    else:
        note = f"all regularity conditions hold through m = {upto}"
    return [_report("regularity", params, 0, upto, (note,))]


def verify_orthogonality(setup: FamilySetup) -> list[VerificationReport]:
    """The full d-orthogonality pattern of the dual-functional moments."""
    params = setup.public_params()
    if setup.order < setup.d:
        return [_not_applicable("d-orthogonality", params, 0, setup.order,
                                f"the moments need order N >= d = {setup.d}")]

    def checks():
        pattern = setup.pattern  # a failed moment fit leaves the report without notes
        cells = ", ".join(f"(r={c.r}, m={c.m})" for c in pattern.regularity_failures)
        yield (WARNING_PREFIX + f"regularity conditions fail at {cells}" if cells
               else "all regularity conditions in the pattern are nonzero")
        for c in pattern.zero_failures:
            yield (c.n, Poly.const(c.value), Poly.zero(),
                   f"vanishing condition at (r={c.r}, m={c.m}, n={c.n})")

    return [_report("d-orthogonality", params, 0, setup.order, checks())]


# ---------------------------------------------------------------------------
# Ratio-power closed forms
# ---------------------------------------------------------------------------

def _ratio_windows(w: Fraction, n_max: int):
    """The rows W(n, 0..n), n = 1..n_max, of the step-w windows
    W(n, k) = prod_{i=1-k..n-k-1} (x + i w) = <x + (n-k-1) w | w>_{n-1} as
    integer ``Row``s: with w = p/q in lowest terms, the integer window
    V(n, k) = prod_{i=1-k..n-k-1} (q x + i p) over q**(n-1).  Row n+1 is row n
    times one linear factor per window: V(n+1, k) = V(n, k) (q x + (n-k) p)
    and V(n+1, n+1) = V(n, n) (q x - n p).  No yielded row changes afterwards."""
    p, q = w.numerator, w.denominator
    row, den = [[1], [1]], 1
    for n in range(1, n_max + 1):
        yield [Row(window, den) for window in row]
        if n < n_max:
            row = [[c * a + q * b for a, b in zip([*v, 0], [0, *v])]  # v (q x + c)
                   for c, v in zip([*range(n * p, -p, -p), -n * p], [*row, row[n]])]
            den *= q


def ratio_power_closed_form(alpha: RationalLike, beta: RationalLike, n_max: int) -> list[Poly]:
    """P0_0..P0_{n_max}, where P0_n is n! times the t**n coefficient of
    ((1-beta t)/(1-alpha t))**(x/w), in closed form over the windows of
    ``_ratio_windows``:

        P0_n = w**-n sum_{k=0..n} C(n,k) (-beta)**k alpha**(n-k) x W(n, k)

    This is the repaired convolution form; it is the independent cross-check
    for the exponent-route construction and stays valid at alpha = 0 or
    beta = 0, where only one end of the sum survives.  With alpha = a/A,
    beta = b/B and w = p/q, it is x sum_k C(n,k) (-bA)**k (aB)**(n-k) V(n, k)
    over (ABp)**n / q (q divides AB), in integers and reduced once per n."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    w = alpha - beta
    if w == 0:
        raise ValueError("requires alpha != beta")
    u, t = -beta.numerator * alpha.denominator, alpha.numerator * beta.denominator
    scale = alpha.denominator * beta.denominator * w.numerator
    forms, weights, den = [Poly.one()], [1], 1
    for n, row in enumerate(_ratio_windows(w, n_max), 1):
        weights = [t * a + u * b for a, b in zip([*weights, 0], [0, *weights])]
        den *= scale
        total = [sum(map(mul, weights, column)) for column in zip(*(window.nums for window in row))]
        forms.append(Poly._make([0, *total], den // w.denominator))
    return forms


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

def family_suites(kind: str) -> dict:
    """Suite id -> suite for one family kind, in the order a full run reports
    them; only that kind's suite module is imported."""
    return import_module(f"{__package__}.{Family.table()[kind].suites}").SUITES

