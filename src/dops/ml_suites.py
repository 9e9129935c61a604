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
from typing import Optional

from .families import ml_recurrence_table
from .identities import (FamilySetup, VerificationReport, _not_applicable, _ratio_windows,
                         _reconciled, _report, verify_orthogonality, verify_regularity,
                         verify_routes)
from .orthogonality import RecurrenceTable
from .polynomials import Poly, delta_w, format_rational, lincomb, shift
from .series import egf_exp, ratio_power_exponent, ratio_power_multiplier

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
    top, product = table.d - 1, alpha * beta
    gamma = {(m, k): g + m * product if k == top else g for (m, k), g in table.gamma.items()}
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
    shifted = _hahn_shift(ml_recurrence_table(p, len(q) - 1), p.alpha, p.beta)

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
    q, minus_alpha = setup.q, -p.alpha

    def checks():
        if p.alpha == 0:
            yield "alpha = 0: connection degenerates to P_n = Q_n (difference-Appell case)"
        for n in range(n_max):
            if n == 0:
                yield 0, polys[0], q[0], "P_0 = Q_0"
            else:
                yield (n, polys[n], lincomb(((1, q[n]), (n * minus_alpha, q[n - 1]))),
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
    minus_alpha, minus_beta = -alpha, -beta
    hi = n_max - 1
    shifted = [shift(polys[n], w) for n in range(n_max)]
    product_delta = [delta_w(polys[n + 1] * polys[n], w) for n in range(n_max)]

    def sr5():
        for n in range(n_max):
            rhs = lincomb(((1, q[n]), (-n * beta, q[n - 1]))) if n >= 1 else q[n]
            yield n, shifted[n], rhs, "P_n(x+w) vs Q_n - n*beta*Q_{n-1}"

    def sr7():
        for n in range(1, n_max):
            lhs = lincomb(((1, polys[n]), (minus_beta * n, polys[n - 1])))
            rhs = lincomb(((1, shifted[n]), (minus_alpha * n, shifted[n - 1])))
            yield n, lhs, rhs, "P_n - beta*n*P_{n-1} vs shifted"

    def sr3():
        for n in range(n_max):
            yield (n, q[n] * w, lincomb(((alpha, shifted[n]), (minus_beta, polys[n]))),
                   "w*Q_n vs alpha*P_n(x+w) - beta*P_n")

    def sr4():
        for n in range(n_max):
            terms = [(n + 1, shifted[n], q[n])]
            if n >= 1:
                terms.append((n, polys[n + 1], q[n - 1]))
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs product form"

    def sr4_alt():
        for n in range(n_max):
            terms = [(n + 1, q[n], q[n])]
            if n >= 1:
                terms += [(n, polys[n + 1], q[n - 1]), (-n * (n + 1) * beta, q[n], q[n - 1])]
            yield n, product_delta[n], lincomb(terms), "delta_w(P_{n+1} P_n) vs squared form"

    return [_report("sr5", params, 0, hi, sr5()), _report("sr7", params, 1, hi, sr7()),
            _report("sr3", params, 0, hi, sr3()), _report("sr4", params, 0, hi, sr4()),
            _report("sr4-alt", params, 0, hi, sr4_alt()), _report("sr6", params, 0, hi, _reconciled(
                _sr6_checks(p, polys, q, n_max, "stated"), _sr6_checks(p, polys, q, n_max, "repaired"),
                "stated form fails (first witness at n = {n}); repaired form pinned: the free "
                "constant multiplies Q_n rather than P_n, and the binomial correction sum "
                "enters with the opposite sign"))]


def _sr6_checks(p, polys, q, n_max: int, variant: str):
    """The checks of the multiplication relation (x - c) Q_n = ... for n < n_max.

    stated: the free constant multiplies P_n on the right and the correction
    sum enters subtracted.  repaired: the free constant multiplies Q_n (so it
    cancels the same term on the left) and the correction sum enters added;
    the repaired variant is the one consistent with the band recurrences.
    The brackets beta i b_{i-1} - b_i, b_k = p.exponent(k+1), and the factors
    x - c are formed once."""
    beta, b0 = p.beta, p.exponent(1)
    brackets = [Poly.const(beta * i * p.exponent(i) - p.exponent(i + 1)) for i in range(1, p.d)]
    samples = [(c, -c, Poly((-c, 1)), f"(x - {format_rational(c)})Q_n, variant {variant}")
               for c in FREE_CONSTANT_SAMPLES]
    sign = -1 if variant == "stated" else 1
    for n in range(n_max):
        lead = b0 + beta * n
        correction = [(sign * math.comb(n, i), polys[n - i], bracket)
                      for i, bracket in enumerate(brackets[:n], 1)]
        for c, minus_c, x_minus_c, context in samples:
            if variant == "stated":
                rhs = lincomb([(1, polys[n + 1]), (-(c + lead), polys[n]), *correction])
            else:
                rhs = lincomb([(1, polys[n + 1]), (-lead, polys[n]), (minus_c, q[n]), *correction])
            yield n, x_minus_c * q[n], rhs, context


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
    q, alpha, d = setup.q, p.alpha, p.d
    inverse_powers = [alpha ** -e for e in range(d)]  # 1/alpha**(j-i+1), j-i+1 < d

    def correction_sum(q_table: RecurrenceTable, n: int) -> Poly:
        # lambda_{n-i} ... lambda_{n-j} = alpha**(j-i+1) (n-i)!/(n-j-1)!
        return lincomb((q_table.gamma_at(n - j, d - j) * inverse_powers[j - i + 1]
                        / math.perm(n - i, j - i + 1), polys[n - i])
                       for i in range(2, d + 1) for j in range(i, d + 1))

    def checks(variant):
        samples = [(c, -c, Poly((-c, 1)), f"c = {format_rational(c)}, variant {variant}")
                   for c in FREE_CONSTANT_SAMPLES]
        for n in range(lo, hi + 1):
            q_table = setup.q_table  # fitted only when the range holds an index
            s = correction_sum(q_table, n)
            lam = n * alpha
            lam_xi = lam + q_table.beta[n - 1]
            x_lam, lam_lam_xi = Poly((lam, 1)), lam * lam_xi
            for c, minus_c, x_minus_c, label in samples:
                if variant == "stated":
                    rhs = lincomb(((1, polys[n]), (lam_xi - c, polys[n - 1]), (-1, s)))
                else:
                    rhs = lincomb(((1, polys[n]), (lam_xi, polys[n - 1]), (minus_c, q[n - 1]), (-1, s)))
                yield n, x_minus_c * q[n - 1], rhs, "plain form, " + label
                if variant == "stated":
                    rhs2 = lincomb(((1, Poly((lam - c, 1)), polys[n]),
                                    (lam * (lam_xi - c), polys[n - 1]), (-lam, s)))
                else:
                    rhs2 = lincomb(((1, x_lam, polys[n]), (minus_c, q[n]),
                                    (lam_lam_xi, polys[n - 1]), (-lam, s)))
                yield n, x_minus_c * q[n], rhs2, "remark form, " + label

    return [_report("sr2", params, lo, hi, _reconciled(
        checks("stated"), checks("repaired"),
        "stated form fails (first witness at n = {n}, {context}); repaired form pinned: the "
        "free constant multiplies the companion polynomial on the right, matching the "
        "left-hand side"))]


# ---------------------------------------------------------------------------
# Difference equations
# ---------------------------------------------------------------------------


def _de_scalars(alpha: Fraction, w: Fraction, top: int, scale: int, e: Fraction,
               offset: int) -> list[tuple]:
    """The n-free scalars (slope, base, weight, correction weights) of the terms
    (const_i + slope_i x) L**i, i = 0..top, of a difference equation, where

        const_i = base_i - weight_i n - slope_i beta_n
                  - sum_{j<i} C(top-1-j, i-1-j) alpha**(i-1-j) gamma_{n-j}^{(d-1-j)} / perm(n, j+1);

    the head term has slope 1, weight scale alpha and base scale w - weight
    offset, and term i >= 1 slope alpha**i C(top, i), weight
    alpha**(i+1) C(top+1, i+1) and base slope e - weight (offset + i)."""
    powers = [alpha ** m for m in range(top + 2)]
    out = [(1, scale * w - scale * alpha * offset, scale * alpha, ())]
    for i in range(1, top + 1):
        slope, weight = powers[i] * math.comb(top, i), powers[i + 1] * math.comb(top + 1, i + 1)
        out.append((slope, slope * e - weight * (offset + i), weight,
                    [math.comb(top - 1 - j, i - 1 - j) * powers[i - 1 - j] for j in range(i)]))
    return out


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
        table, deltas, w, d = setup.p_table, setup.deltas, p.w, p.d
        # de2: (n-d) P_{n-d} against delta_w**(i+1) P_{n-d}, i = 0..d; de1:
        # P_{n-k+1} against delta_w**i P_{n-k}, i = 0..k, and the tail.
        top, first, scale, e, offset = ((d, 1, d + 1, (d + 1) * w, 1 - d) if k is None
                                        else (k, 0, k, k * w + p.alpha, 2 - k))
        scalars = _de_scalars(p.alpha, w, top, scale, e, offset)
        for n in range(lo, hi + 1):
            beta_n, dw = table.beta[n], deltas[n - top][first:]
            gammas = [table.gamma_at(n - j, d - 1 - j) / math.perm(n, j + 1) for j in range(top)]
            terms = []
            for i, (slope, base, weight, corrections) in enumerate(scalars):
                const = base - weight * n - slope * beta_n
                if corrections:
                    const -= sum(c * g for c, g in zip(corrections, gammas))
                terms.append((1, Poly((const, slope)), dw[i]))
            if k is None:
                lhs = deltas[n - d][0] * (n - d)
            else:
                lhs, perm = deltas[n - k + 1][0], math.perm(n, k)
                for i in range(k, d):
                    coef = table.gamma_at(n - i, d - 1 - i)
                    if coef != 0:
                        terms.append((-coef / perm, deltas[n - i - 1][k]))
            yield n, lhs, lincomb(terms), identity

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
    truth = egf_exp(ratio_power_exponent(alpha, beta, n_max), ratio_power_multiplier(alpha, beta))

    def stated():
        yield 0, Poly.one(), truth[0], "stated closed form"
        x = Poly.x()
        for n, row in enumerate(_ratio_windows(alpha - beta, n_max), 1):
            scale = (-alpha) ** n
            form = lincomb((math.comb(n, k) * (beta / alpha) ** k * scale, x, window)
                           for k, window in enumerate(row))
            yield n, form, truth[n], "stated closed form"

    return [_report("sz5", params, 0, n_max, _reconciled(
        "stated form not evaluable at alpha = 0 (weights divide by alpha)" if alpha == 0
        else stated(),
        ((n, form, truth[n], "repaired closed form") for n, form in enumerate(setup.closed_forms)),
        "stated form fails (first witness at n = {n}); repaired form pinned: weights "
        "(-beta)**k alpha**(n-k) w**-n replace (beta/alpha)**k (-alpha)**n"))]


def _exp_coefficients(s, n_max: int) -> list[Fraction]:
    """E_0..E_{n_max} of exp(sum c_i t**i), read from its exponent in EGF
    form, s(i) = i! c_i at t**i: E_m = m! A_m, where A_m is the multinomial
    sum of prod c_i**k_i / k_i! over the tuples with sum i k_i = m, the
    composition sum of the sz4 and moment-recursion stated forms."""
    exponent = [Poly.zero()] + [Poly.const(s(n)) for n in range(1, n_max + 1)]
    return [e.coefficient(0) for e in egf_exp(exponent)]


def verify_sz4(setup: FamilySetup) -> list[VerificationReport]:
    """Explicit multinomial form of the family, checked against P_n.

    The repaired interpretation composes the closed-form ratio-power
    coefficients with the exponential factor exactly:

        P_n = sum_{m=0..n} n!/(n-m)! A_m P0_{n-m} = sum_m C(n, m) E_m P0_{n-m},
        A_m = E_m / m! = [t**m] exp(sum c_i t**i)
            = sum over weight-m composition tuples of prod c_i**k_i / k_i!,

    with P0 the repaired closed form.  The stated transcription (multinomial
    weights over parts that do not sum to n, powers (beta/alpha)**s
    (-alpha)**n (-beta)**m) is tried first where evaluable."""
    p, truth, n_max = setup.params, setup.polys, setup.order
    params = setup.public_params(tagged=True)
    alpha, beta, w = p.alpha, p.beta, p.w
    e_coeffs = _exp_coefficients(p.exponent, n_max)
    # n!/(n-m)! A_m = C(n, m) E_m, with the n-free E_m = m! A_m formed once
    scaled = [(m, Poly.const(e)) for m, e in enumerate(e_coeffs) if e]

    def repaired(n: int) -> Poly:
        return lincomb((math.comb(n, m), setup.closed_forms[n - m], e)
                       for m, e in scaled if m <= n)

    def stated():
        yield 0, Poly.one(), truth[0], "stated multinomial form"
        rows = [None]  # rows[j] = W(j, 0..j), stepped as far as n
        for n, row in enumerate(_ratio_windows(w, n_max), 1):
            rows.append(row)
            terms = []
            for s in range(n + 1):
                for m in range(min(s, n - 1) + 1):  # m = n: window of negative length
                    # n!/((n-s)! (s-m)! m!) A_m = C(n, s) C(s, m) E_m / m!
                    coef = (Fraction(math.comb(n, s) * math.comb(s, m), math.factorial(m))
                            * e_coeffs[m] * (beta / alpha) ** s * (-alpha) ** n * (-beta) ** m)
                    if coef != 0:
                        terms.append((coef, Poly.x(), rows[n - m][s - m]))
            yield n, lincomb(terms), truth[n], "stated multinomial form"

    return [_report("sz4", params, 0, n_max, _reconciled(
        "stated form not evaluable at alpha = 0; in the repaired form the weight alpha**(n-k) "
        "simply kills every term but k = n" if alpha == 0 else stated(),
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

        n!/r! * Ainv_{n-r} = C(n, r) Einv_{n-r} = <u_r, P0_n>,

    where Ainv_m = Einv_m / m! are the coefficients of exp(-sum c_i t**i), P0_n
    is the repaired ratio-power closed form, and the right side is evaluated
    through the inversion moments.  The stated transcription (multinomial
    weights and powers (beta/alpha)**k (-alpha)**n against raw monomial
    moments) is tried first where evaluable; disagreement there is recorded
    as a finding, not a failure of the moments themselves."""
    p, n_max = setup.params, setup.order
    params = setup.public_params(tagged=True)
    if n_max < p.d:
        return [_not_applicable("moment-recursion", params, 0, n_max,
                                f"the moments need order N >= d = {p.d}")]
    alpha, beta = p.alpha, p.beta
    einv = _exp_coefficients(lambda n: -p.exponent(n), n_max)

    def repaired_checks():
        table = setup.moments
        for r in range(p.d):
            context = f"biorthogonal recursion, r = {r}"
            for n in range(n_max + 1):  # n!/r! Ainv_{n-r} = C(n, r) Einv_{n-r}
                lhs = Poly.const(math.comb(n, r) * einv[n - r]) if n >= r else Poly.zero()
                yield n, lhs, Poly.const(table.apply(r, setup.closed_forms[n])), context

    def stated_checks():
        table = setup.moments
        for r in range(p.d):
            for n in range(r, n_max + 1):
                lhs = einv[n - r] / math.factorial(r)
                rhs = sum(math.comb(n, k) * (beta / alpha) ** k * (-alpha) ** n * table.moment(r, k)
                          for k in range(r, n + 1))
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
