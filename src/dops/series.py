"""Truncated formal power series in t whose coefficients are polynomials in x.

A series of order N is a list of its N+1 ``Poly`` coefficients, the
coefficient of t**n at index n; zero coefficients are kept, so the order is
the length minus one.  Every generating function is built here through the
exp route, and the ``routes`` suite requires the sequence read out of it to
agree coefficientwise with the band recurrence.  Both families share one
exponent, ``ratio_power_exponent``, which is the Mittag-Leffler exponent for
alpha != beta and the confluent Laguerre exponent x t/(1 - a t) at alpha =
beta = a; ``families.ml_by_gf`` writes each family's scalar exponent into
it.  A product of exponentials is built as one exp of the summed exponents,
never as a series product.

Every exponent is written in EGF form, F_k = k! times its t**k coefficient,
and ``egf_exp`` is the one exponential: it reads F as it is and gives P_n =
n! times the t**n coefficient of exp(f), the polynomial sequence a family
reads off its exponential generating function.  It takes an exact scalar
multiplier B, B(0) = 1, and solves B.g' = (B.f').g, whose one solution is
that of g' = f'.g whatever B is: B sets the cost, never the result.
``ratio_power_multiplier`` clears the denominator of the ratio-power
exponent's derivative, so a family of dimension d costs O(N.d) ``lincomb``
terms through order N, where B = 1 costs O(N**2).  All weights are
integers, so no n! enters a denominator.  The closed-form binomial
expansions that cross-check the exponent route are test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import Poly, RationalLike, as_rational, binomial, lincomb

__all__ = ["egf_exp", "ratio_power_exponent", "ratio_power_multiplier"]


def egf_exp(f: list[Poly], den: Sequence[RationalLike] = (1,)) -> list[Poly]:
    """n! times the t**n coefficient of exp(f), for an exponent f in EGF form
    (f[k] = k! times its t**k coefficient) with zero constant term, at the
    order of f.

    Solved from B.g' = A.g, A = B.f', for a scalar multiplier B = ``den`` in
    EGF form with B(0) = 1, which holds exactly when g' = f'.g does, so the
    result does not depend on B.  With P_n = n! g_n and
    A_j = sum_i C(j, i) B_i f[j-i+1],

        P_{n+1} = sum_j C(n, j) A_j P_{n-j} - sum_{i>=1} C(n, i) B_i P_{n+1-i}.

    With B scaled to integers by its common denominator D, each A_n and each
    D P_{n+1} is one ``lincomb`` with integer weights.  Every A_j is formed
    from the entries of f, none assumed zero; the zero ones are then left
    out.  At B = 1 this is the convolution P_n = sum_{k=1..n} C(n-1, k-1)
    f[k] P_{n-k}; a B that makes A a polynomial in t of degree m leaves
    m + len(B) terms per P_{n+1}.
    """
    if not f[0].is_zero():
        raise ValueError("egf_exp requires a zero constant term")
    den = [as_rational(b) for b in den]
    if not den or den[0] != 1:
        raise ValueError("egf_exp requires a multiplier whose constant term is 1")
    scale = math.lcm(*(b.denominator for b in den))
    side = [(i, b.numerator * (scale // b.denominator)) for i, b in enumerate(den) if i and b]
    out, terms = [Poly.one()], []  # terms: (j, D A_j) for the nonzero A_j so far
    for n in range(len(f) - 1):
        if side:
            a = lincomb([(scale, f[n + 1])] + [(binomial(n, i) * b, f[n + 1 - i])
                                               for i, b in side if i <= n])
        else:
            a = f[n + 1]
        if not a.is_zero():
            terms.append((n, a))
        p = lincomb([(binomial(n, j), a_j, out[n - j]) for j, a_j in terms]
                    + [(-binomial(n, i) * b, out[n + 1 - i]) for i, b in side if i <= n])
        out.append(p if scale == 1 else p / scale)
    return out


def ratio_power_multiplier(alpha: RationalLike, beta: RationalLike) -> tuple[Fraction, ...]:
    """(1 - alpha t)(1 - beta t) in EGF form: the multiplier that turns the
    derivative of ``ratio_power_exponent``, x / ((1 - alpha t)(1 - beta t)),
    into the constant x, for ``egf_exp``."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    return Fraction(1), -(alpha + beta), 2 * alpha * beta


def ratio_power_exponent(alpha: RationalLike, beta: RationalLike, order: int,
                         scalar=lambda n: 0) -> list[Poly]:
    """The exponent (x/w) (log(1 - beta t) - log(1 - alpha t)) of the ratio
    power ((1 - beta t)/(1 - alpha t)) ** (x/w), w = alpha - beta, in EGF
    form through t**order.  Its t**n coefficient is x h_{n-1} / n, where
    h_{n-1} = sum_{i<n} alpha**i beta**(n-1-i), so entry n is (n-1)! x h_{n-1}
    and nothing divides by w: at alpha = beta = a, h_{n-1} = n a**(n-1) and
    entry n is n! x a**(n-1), the confluent exponent x t/(1 - a t).  A
    family's scalar exponent, ``scalar(n)`` at t**n in EGF form, is written
    into the same entries as their constant terms."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    # h_{n-1}, beta**(n-1) and (n-1)!
    out, h, beta_power, scale = [Poly.zero()], Fraction(1), Fraction(1), 1
    for n in range(1, order + 1):
        out.append(Poly((scalar(n), scale * h)))
        beta_power *= beta
        h = alpha * h + beta_power
        scale *= n
    return out
