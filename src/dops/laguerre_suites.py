"""The Laguerre-type catalog: the suites of the laguerre family under the
derivative operator.

``SUITES`` maps suite id to suite in the order a full run reports them: the
shared routes, regularity and d-orthogonality around the derivative
structure relation.
"""

from __future__ import annotations

import math

from .identities import (FamilySetup, VerificationReport, _reconciled, _report,
                         verify_orthogonality, verify_regularity, verify_routes)
from .polynomials import Poly, derivative, factorial, lincomb

__all__ = ["SUITES", "verify_laguerre_structure"]


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

    return [_report("laguerre-structure", params, 0, hi, _reconciled(
        checks("stated"), checks("repaired"),
        "stated form fails for theta != 0 (the family is the theta = 0 family shifted by "
        "a*theta in x); repaired form pinned: the derivative multiplier is x + a*theta"))]


# Suite id -> suite, in the order a full run reports them.
SUITES = {
    "routes": verify_routes,
    "laguerre-structure": verify_laguerre_structure,
    "regularity": verify_regularity,
    "d-orthogonality": verify_orthogonality,
}
