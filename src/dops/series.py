"""Truncated formal power series in t whose coefficients are polynomials in x.

A series of order N is a list of its N+1 ``Poly`` coefficients, the
coefficient of t**n at index n; zero coefficients are kept, so the order is
the length minus one.  Every generating function is built here through the
exp route, and the ``routes`` suite requires the sequence read out of it to
agree coefficientwise with the band recurrence.  Both families share one
exponent, ``ratio_power_exponent``, which is the Mittag-Leffler exponent for
alpha != beta and the confluent Laguerre exponent x t/(1 - a t) at alpha =
beta = a.  A product of exponentials is built as one exp of the summed
exponents, never as a series product.

Every exponent is written in EGF form, F_k = k! times its t**k coefficient,
and ``egf_exp`` is the one exponential: it reads F as it is and gives P_n =
n! times the t**n coefficient of exp(f), the polynomial sequence a family
reads off its exponential generating function.  Each P_n is one ``lincomb``
with integer binomial weights, so no n! enters a denominator.  The
closed-form binomial expansions that cross-check the exponent route are
test oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly, RationalLike, as_rational, binomial, lincomb

__all__ = ["egf_exp", "ratio_power_exponent"]


def egf_exp(f: list[Poly]) -> list[Poly]:
    """n! times the t**n coefficient of exp(f), for an exponent f in EGF form
    (f[k] = k! times its t**k coefficient) with zero constant term, at the
    order of f.

    Solved from g' = f'.g in EGF form: with P_n = n! g_n,
    P_n = sum_{k=1..n} C(n-1, k-1) f[k] P_{n-k}, one ``lincomb`` with integer
    weights per coefficient, reduced once.
    """
    if not f[0].is_zero():
        raise ValueError("egf_exp requires a zero constant term")
    out = [Poly.one()]
    for n in range(1, len(f)):
        out.append(lincomb((binomial(n - 1, k - 1), f[k], out[n - k]) for k in range(1, n + 1)))
    return out


def ratio_power_exponent(alpha: RationalLike, beta: RationalLike, order: int) -> list[Poly]:
    """The exponent (x/w) (log(1 - beta t) - log(1 - alpha t)) of the ratio
    power ((1 - beta t)/(1 - alpha t)) ** (x/w), w = alpha - beta, in EGF
    form through t**order.  Its t**n coefficient is x h_{n-1} / n, where
    h_{n-1} = sum_{i<n} alpha**i beta**(n-1-i), so entry n is (n-1)! x h_{n-1}
    and nothing divides by w: at alpha = beta = a, h_{n-1} = n a**(n-1) and
    entry n is n! x a**(n-1), the confluent exponent x t/(1 - a t)."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    # h_{n-1}, beta**(n-1) and (n-1)!
    out, h, beta_power, scale = [Poly.zero()], Fraction(1), Fraction(1), 1
    for n in range(1, order + 1):
        out.append(Poly((0, scale * h)))
        beta_power *= beta
        h = alpha * h + beta_power
        scale *= n
    return out
