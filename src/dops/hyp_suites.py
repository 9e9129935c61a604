"""The hypergeometric catalog: the suites of the hyp-laguerre family.

The terminating Laguerre sums are checked against their finite linear
combinations (hyp-lincomb) and the order of their quasi-orthogonal
combinations (quasi-order).  ``SUITES`` maps suite id to suite in the order
a full run reports them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .families import _is_negative_integer, terminating_pfq
from .identities import FamilySetup, VerificationReport, _not_applicable, _reconciled, _report
from .orthogonality import quasi_orthogonality_order
from .polynomials import Poly, Row, binomial

__all__ = ["SUITES", "verify_hyp_lincomb", "verify_quasi_order"]


def _rising_nums(y: Fraction, n_max: int) -> list[int]:
    """q**m (y)_m for m = 0..n_max, with y = p/q in lowest terms: the rising
    factorials' integer numerators over q**m, as one running product of p + j q."""
    p, q = y.numerator, y.denominator
    out = [1]
    for j in range(n_max):
        out.append(out[-1] * (p + j * q))
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

    # Component 1: the index-shift lemma at a generic second parameter
    # a2 = p2/q2, off the integers where its falling factorials vanish.  Term
    # i at (n, k) weighs (-1)^i C(k, i) n!/(n-i)! (n+a2-i)_(k-i) / (a2)_k =
    # (-1)^i C(k, i) n!/(n-i)! q2^i prod_{j<k-i} ((n-i-j) q2 + p2) / a2_falling[k].
    # The common 1/|a2_falling[k]| is folded into table k's row denominators
    # and its sign into the weights, which are then integers.
    a2 = beta + dl + Fraction(1, 5 if (beta + Fraction(1, 3)).denominator == 1 else 3)
    p2, q2 = a2.numerator, a2.denominator
    a2_falling = [math.prod(p2 - j * q2 for j in range(k)) for k in range(dl + 1)]

    # One stream for the three components; each one's note joins the report
    # once its checks pass.
    def checks():
        # k runs over 1..min(n-1, d*l), empty for n < 2; sums[k] is the table
        # at first parameter a2 + 1 - k, and sums[0] gives the left side.
        sums = [terminating_pfq(n_max, (a2 + 1 - k,), dens)
                for k in range(min(n_max - 1, dl) + 1)]
        for k in range(1, len(sums)):
            scale = abs(a2_falling[k])
            sums[k] = [Row(row.nums, row.den * scale) for row in sums[k]]
        for n in range(2, n_max + 1):
            for k in range(1, min(n - 1, dl) + 1):
                terms, run = [], -1 if a2_falling[k] < 0 else 1
                for i in range(k, -1, -1):  # run = ±prod_{j<k-i} ((n-i-j) q2 + p2)
                    terms.append(((-1) ** i * binomial(k, i) * math.perm(n, i) * q2 ** i * run,
                                  sums[k][n - i]))
                    run *= (n - i + 1) * q2 + p2
                yield n, [(1, sums[0][n])], terms, f"index-shift lemma at k = {k}"
        yield ("index-shift lemma needs N >= 2" if n_max < 2
               else "index-shift lemma verified at a generic non-integer parameter")

        # Component 2: the order-l combination, as quasi[n]'s coefficients over
        # P_0..P_n.  beta + d*l + 1 and beta + 1 share beta's denominator q, so
        # weight k is (-1)^k C(d*l, k) n!/(n-k)! q^k shifted[n-k] / rise[n] over
        # the integer rising numerators.
        q = beta.denominator
        shifted, rise = _rising_nums(beta + dl + 1, n_max), _rising_nums(beta + 1, n_max)
        for n, coeffs in enumerate(setup.quasi_expansions):
            nums = [(-1) ** k * binomial(dl, k) * math.perm(n, k) * q ** k * shifted[n - k]
                    for k in range(min(n, dl), -1, -1)]
            yield (n, Poly._make([0] * (n + 1 - len(nums)) + nums, rise[n]), Poly(coeffs),
                   f"order-l combination, coefficients over P_0..P_{n}")
        yield "order-l combination verified"

        # Component 3: the aligned reduction, alpha_1 replaced by beta2 = alpha_1 - d*l.
        beta2 = p.alphavec[0] - dl
        if _is_negative_integer(beta2):
            yield "aligned reduction skipped: alpha_1 - d*l is a negative integer"
            return
        # alpha_1 + 1 and beta2 + 1 share alpha_1's denominator q1.
        q1 = beta2.denominator
        alpha_rise = _rising_nums(p.alphavec[0] + 1, n_max)
        beta2_rise = _rising_nums(beta2 + 1, n_max)
        reduced_family = terminating_pfq(n_max, (), (beta2 + 1,) + dens[1:p.d])

        def reduction_checks(window: int):
            for n in range(n_max + 1):
                lhs = [(Fraction((-1) ** k * binomial(window, k) * math.perm(n, k) * q1 ** k
                                 * alpha_rise[n - k], beta2_rise[n]), basis[n - k])
                       for k in range(min(n, window) + 1)]
                yield n, lhs, [(1, reduced_family[n])], f"aligned reduction, window {window}"

        # At n = 0 both windows hold the one term k = 0 and cannot differ.
        verified = "verified in the stated l-term window" if n_max >= 1 else "window needs N >= 1"
        yield from _reconciled(
            reduction_checks(l), reduction_checks(dl),
            "stated l-term reduction window fails (first witness at n = {n}); repaired form "
            "pinned: the window is d*l terms with binomial(d*l, k) weights",
            verified="aligned reduction " + verified)

    return [_report("hyp-lincomb", params, 0, n_max, checks())]


def verify_quasi_order(setup: FamilySetup) -> list[VerificationReport]:
    """The quasi-orthogonal combinations have detected order exactly l over
    the family, with a nonzero bottom expansion coefficient."""
    params = setup.public_params()
    d, l = setup.d, setup.params.l
    if setup.order < d * l:
        return [_not_applicable("quasi-order", params, 0, setup.order,
                                f"order l = {l} is detectable only from N >= d*l = {d * l}")]

    def checks():
        found, exact = quasi_orthogonality_order(setup.quasi_expansions, d)
        yield found, Poly.const(found), Poly.const(l), "detected quasi-orthogonality order"
        yield (found, Poly.const(int(exact)), Poly.one(),
               "bottom expansion coefficient vanished somewhere")
        yield f"quasi-orthogonality order is exactly {l}"

    return [_report("quasi-order", params, 0, setup.order, checks())]


# Suite id -> suite, in the order a full run reports them.
SUITES = {
    "hyp-lincomb": verify_hyp_lincomb,
    "quasi-order": verify_quasi_order,
}
