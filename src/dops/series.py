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

The exponential is computed once, in EGF form: ``egf_exp`` gives P_n = n!
times the t**n coefficient of exp(f), which is the polynomial sequence a
family reads off its exponential generating function.  Each P_n is one
``lincomb`` with integer binomial weights, so no n! enters a denominator;
``series_exp`` is the ordinary-coefficient view of it.  The closed-form
binomial expansions that cross-check the exponent route are test oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly, RationalLike, as_rational, binomial, factorial, lincomb

__all__ = ["egf_exp", "series_exp", "ratio_power_exponent", "gf_ratio_power"]


def egf_exp(f: list[Poly]) -> list[Poly]:
    """n! times the t**n coefficient of exp(f), for a series f with zero
    constant term, at the order of f.

    Solved from g' = f'.g in EGF form: with F_k = k! f_k and P_n = n! g_n,
    P_n = sum_{k=1..n} C(n-1, k-1) F_k P_{n-k}, one ``lincomb`` with integer
    weights per coefficient, reduced once.
    """
    if not f[0].is_zero():
        raise ValueError("egf_exp requires a zero constant term")
    scaled = [p * factorial(k) for k, p in enumerate(f)]
    out = [Poly.one()]
    for n in range(1, len(f)):
        out.append(lincomb((binomial(n - 1, k - 1), scaled[k], out[n - k])
                           for k in range(1, n + 1)))
    return out


def series_exp(f: list[Poly]) -> list[Poly]:
    """exp(f) for a series with zero constant term, at the order of f: the
    ordinary coefficients P_n / n! of ``egf_exp``."""
    return [p / factorial(n) for n, p in enumerate(egf_exp(f))]


def ratio_power_exponent(alpha: RationalLike, beta: RationalLike, order: int) -> list[Poly]:
    """The exponent (x/w) (log(1 - beta t) - log(1 - alpha t)) of the ratio
    power ((1 - beta t)/(1 - alpha t)) ** (x/w), w = alpha - beta, through
    t**order.  Its t**n coefficient is x h_{n-1} / n, where h_{n-1} =
    sum_{i<n} alpha**i beta**(n-1-i), so nothing divides by w: at alpha =
    beta = a it is x a**(n-1), the confluent exponent x t/(1 - a t)."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    out, h, beta_power = [Poly.zero()], Fraction(1), Fraction(1)  # h_{n-1}, beta**(n-1)
    for n in range(1, order + 1):
        out.append(Poly((0, h / n)))
        beta_power *= beta
        h = alpha * h + beta_power
    return out


def gf_ratio_power(alpha: RationalLike, beta: RationalLike, order: int) -> list[Poly]:
    """The sequence read off the ratio power ((1 - beta t)/(1 - alpha t))
    ** (x/w), w = alpha - beta != 0, through t**order: ``egf_exp`` of
    ``ratio_power_exponent``, whose n-th entry is monic of degree n."""
    if as_rational(alpha) == as_rational(beta):
        raise ValueError("gf_ratio_power requires alpha != beta")
    return egf_exp(ratio_power_exponent(alpha, beta, order))
