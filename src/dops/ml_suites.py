"""The Mittag-Leffler catalog: the suites of the ml and charlier families.

The family P_n and its difference companions Q_n = delta_w P_{n+1}/(n+1)
are checked against the companion recurrence (hahn), the two-term
connection (nccd), the five displayed structure relations (sr-block), the
general multiplication relation (sr2), the difference equations (de1, de2),
the explicit multinomial and ratio-power forms (sz4, sz5) and the moment
recursion.  ``SUITES`` maps suite id to suite in the order a full run
reports them, the shared routes, regularity and d-orthogonality included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .families import ml_recurrence_table
from .identities import (FamilySetup, VerificationReport, _not_applicable, _ratio_windows,
                         _reconciled, _report, verify_orthogonality, verify_regularity,
                         verify_routes)
from .orthogonality import RecurrenceTable
from .polynomials import Poly, binomial, delta_w, factorial, format_rational, lincomb, shift
from .series import egf_extract, gf_ratio_power, series_exp

__all__ = ["SUITES", "verify_hahn", "verify_nccd", "verify_sr_block", "verify_sr2", "verify_de",
           "verify_de1", "verify_de2", "verify_sz4", "verify_sz5", "verify_moment_recursion"]

# Free constants are linear on both sides of the relations that carry one, so
# two sample values already force the identity; three over-determine it.
FREE_CONSTANT_SAMPLES = (Fraction(0), Fraction(1), Fraction(-2, 3))


# ---------------------------------------------------------------------------
# Companions
# ---------------------------------------------------------------------------


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

    def checks():
        for n in range(len(q) - 1):
            yield n + 1, q[n + 1], shifted.step(q, n), "companion band recurrence replay"
        expected = _hahn_shift(setup.p_table, p.alpha, p.beta)
        q_table = setup.q_table
        for n, b in enumerate(q_table.beta):
            yield n, Poly.const(b), Poly.const(expected.beta[n]), "companion beta shift by alpha"
        for (m, k), g in sorted(q_table.gamma.items()):
            yield (m, Poly.const(g), Poly.const(expected.gamma_at(m, k)),
                   "top gamma class shifted by n*alpha*beta" if k == p.d - 1
                   else "lower gamma classes unchanged")
        yield ("fitted companion table shows the predicted shift: beta gains alpha, the top "
               "gamma class gains n*alpha*beta, lower classes are unchanged")

    return [_report("hahn", params, 0, len(q) - 1, checks())]


# ---------------------------------------------------------------------------
# Connection and structure relations
# ---------------------------------------------------------------------------


def verify_nccd(setup: FamilySetup) -> list[VerificationReport]:
    """P_n = Q_n - n alpha Q_{n-1}: the two-term connection between the family
    and its difference companions.  At alpha = 0 this degenerates to P = Q."""
    p, polys, n_max = setup.params, setup.polys, setup.order
    params = setup.public_params(tagged=True)
    q = setup.q

    def checks():
        if p.alpha == 0:
            yield "alpha = 0: connection degenerates to P_n = Q_n (difference-Appell case)"
        for n in range(n_max):
            if n == 0:
                yield 0, polys[0], q[0], "P_0 = Q_0"
            else:
                yield (n, polys[n], lincomb(((1, q[n]), (-p.lam(n), q[n - 1]))),
                       f"P_{n} vs Q_{n} - {n}*alpha*Q_{n - 1}")

    return [_report("nccd", params, 0, n_max - 1, checks())]


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

    reports.append(_report("sr5", params, 0, hi, sr5()))

    def sr7():
        for n in range(1, n_max):
            lhs = lincomb(((1, polys[n]), (-beta * n, polys[n - 1])))
            rhs = lincomb(((1, shifted[n]), (-alpha * n, shifted[n - 1])))
            yield n, lhs, rhs, "P_n - beta*n*P_{n-1} vs shifted"

    reports.append(_report("sr7", params, 1, hi, sr7()))

    def sr3():
        for n in range(n_max):
            yield (n, q[n] * w, lincomb(((alpha, shifted[n]), (-beta, polys[n]))),
                   "w*Q_n vs alpha*P_n(x+w) - beta*P_n")

    reports.append(_report("sr3", params, 0, hi, sr3()))

    def sr4():
        for n in range(n_max):
            terms = [(n + 1, shifted[n], q[n])]
            if n >= 1:
                terms.append((n, polys[n + 1], q[n - 1]))
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs product form"

    reports.append(_report("sr4", params, 0, hi, sr4()))

    def sr4_alt():
        for n in range(n_max):
            terms = [(n + 1, q[n], q[n])]
            if n >= 1:
                terms += [(n, polys[n + 1], q[n - 1]), (-n * (n + 1) * beta, q[n], q[n - 1])]
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs squared form"

    reports.append(_report("sr4-alt", params, 0, hi, sr4_alt()))

    def sr6(variant):
        for n in range(n_max):
            for c in FREE_CONSTANT_SAMPLES:
                lhs, rhs = _sr6_sides(p, polys, q, n, c, variant)
                yield n, lhs, rhs, f"(x - {format_rational(c)})Q_n, variant {variant}"

    reports.append(_report("sr6", params, 0, hi, _reconciled(
        sr6("stated"), sr6("repaired"),
        "stated form fails (first witness at n = {n}); repaired form pinned: the free "
        "constant multiplies Q_n rather than P_n, and the binomial correction sum "
        "enters with the opposite sign")))
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
    q = setup.q

    def correction_sum(q_table: RecurrenceTable, n: int) -> Poly:
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
            q_table = setup.q_table  # fitted only when the range holds an index
            s = correction_sum(q_table, n)
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

    return [_report("sr2", params, lo, hi, _reconciled(
        checks("stated"), checks("repaired"),
        "stated form fails (first witness at n = {n}, {context}); repaired form pinned: the "
        "free constant multiplies the companion polynomial on the right, matching the "
        "left-hand side"))]


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

    def checks():
        yield f"indices n < {p.d} skipped as out-of-range"
        table = setup.p_table
        for n in range(lo, hi + 1):
            if k is None:
                lhs, rhs = _de2_sides(p, setup.deltas, table, n)
            else:
                lhs, rhs = _de1_sides(p, setup.deltas, table, n, k)
            yield n, lhs, rhs, identity

    return _report(identity, params, lo, hi, checks())


def verify_de1(setup: FamilySetup) -> list[VerificationReport]:
    """The mixed difference equation at every depth k = 1..d."""
    return [verify_de(setup, k) for k in range(1, setup.d + 1)]


def verify_de2(setup: FamilySetup) -> list[VerificationReport]:
    return [verify_de(setup)]


# ---------------------------------------------------------------------------
# Explicit forms
# ---------------------------------------------------------------------------


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

    return [_report("sz5", params, 0, n_max, _reconciled(
        "stated form not evaluable at alpha = 0 (weights divide by alpha)" if alpha == 0
        else stated(),
        ((n, form, truth[n], "repaired closed form") for n, form in enumerate(setup.closed_forms)),
        "stated form fails (first witness at n = {n}); repaired form pinned: weights "
        "(-beta)**k alpha**(n-k) w**-n replace (beta/alpha)**k (-alpha)**n"))]


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
    return [_report("sz4", params, 0, n_max, _reconciled(
        stated_checks,
        ((n, repaired(n), truth[n], "repaired composition form") for n in range(n_max + 1)),
        "stated multinomial form fails (first witness at n = {n})",
        "repaired form pinned: P_n = sum_m n!/(n-m)! A_m P0_{n-m} with A the "
        "exponential-factor coefficients and P0 the repaired ratio-power closed form; "
        "exponent coefficients enter as a_i = c_i = b_{i-1}/i!"))]


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
    alpha, beta = p.alpha, p.beta
    ainv = _exp_coefficients([-ci for ci in p.c], n_max)

    def repaired_checks():
        table = setup.moments
        for r in range(p.d):
            for n in range(n_max + 1):
                lhs = Fraction(factorial(n), factorial(r)) * (ainv[n - r] if n >= r else Fraction(0))
                rhs = table.apply(r, setup.closed_forms[n])
                yield n, Poly.const(lhs), Poly.const(rhs), f"biorthogonal recursion, r = {r}"

    def stated_checks():
        table = setup.moments
        for r in range(p.d):
            for n in range(r, n_max + 1):
                lhs = Fraction(factorial(n - r), factorial(r)) * ainv[n - r]
                rhs = Fraction(0)
                for k in range(r, n + 1):
                    rhs += binomial(n, k) * (beta / alpha) ** k * (-alpha) ** n * table.moment(r, k)
                yield n, Poly.const(lhs), Poly.const(rhs), f"stated recursion, r = {r}"

    def checks():
        for r in range(p.d):
            for k in range(r):
                yield (k, Poly.const(setup.moments.moment(r, k)), Poly.zero(),
                       f"vanishing moments below r = {r}")
        yield "vanishing pattern of low moments verified"
        yield from _reconciled(
            "stated form not evaluable at alpha = 0" if alpha == 0 else stated_checks(),
            repaired_checks(),
            "stated recursion disagrees first at n = {n} ({context}): left {actual} vs right "
            "{expected}",
            "repaired form pinned: n!/r! Ainv_{n-r} = <u_r, P0_n> with Ainv the coefficients "
            "of the inverse exponential factor (weight-(n-r) composition sums in -c_i) and P0 "
            "the repaired ratio-power closed form")

    return [_report("moment-recursion", params, 0, n_max, checks())]


# Suite id -> suite, in the order a full run reports them.
SUITES = {
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
