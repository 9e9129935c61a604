"""Truncated formal power series in t whose coefficients are polynomials in x.

Every generating function is built here through the exp/log exponent route,
and the ``routes`` suite requires the sequence read out of it to agree
coefficientwise with the band recurrence.  A product of exponentials is
built as one exp of the summed exponents, never as a series product.  The
closed-form binomial expansions that cross-check the exponent route are test
oracles.  Truncation order is always explicit; binary operations truncate to
the smaller operand order so nothing is silently extended.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .polynomials import (
    Poly,
    RationalLike,
    as_rational,
    factorial,
    lincomb,
)

__all__ = [
    "Series",
    "series_exp",
    "series_log1p_scaled",
    "ratio_power_exponent",
    "gf_ratio_power",
    "egf_extract",
]


class Series:
    """Power series in t, truncated at an explicit order N.

    ``coeffs`` always holds exactly N+1 Poly values, coefficient of t**n at
    index n (zero polynomials are kept, unlike in Poly itself, so the order
    is never ambiguous).
    """

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[Poly, ...]

    def __init__(self, order: int, coeffs: Iterable[Poly] = ()):
        if order < 0:
            raise ValueError("series order must be non-negative")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the stated order allows")
        cs += [Poly.zero()] * (order + 1 - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def from_scalars(cls, order: int, scalars: Iterable[RationalLike]) -> "Series":
        return cls(order, tuple(Poly.const(s) for s in scalars))

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "Series":
        """Multiply every coefficient by a rational or a fixed Poly."""
        if isinstance(factor, Poly):
            return Series(self.order, tuple(c * factor for c in self.coeffs))
        f = as_rational(factor)
        return Series(self.order, tuple(c * f for c in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = ", ".join(f"t^{n}: {c}" for n, c in enumerate(self.coeffs))
        return f"Series(order={self.order}; {terms})"


def series_exp(f: Series) -> Series:
    """exp(f) for a series with zero constant term.

    Solved coefficientwise from g' = f'.g, which keeps every intermediate a
    plain convolution: g_n = sum_{k=1..n} (k/n) f_k g_{n-k}, one ``lincomb``
    of products per coefficient, reduced once.
    """
    if not f.coeffs[0].is_zero():
        raise ValueError("series_exp requires a zero constant term")
    out = [Poly.one()]
    for n in range(1, f.order + 1):
        out.append(lincomb((Fraction(k, n), f.coeffs[k], out[n - k]) for k in range(1, n + 1)))
    return Series(f.order, tuple(out))


def series_log1p_scaled(c: RationalLike, order: int) -> Series:
    """The series of log(1 - c t): sum_{n>=1} -(c**n / n) t**n."""
    c = as_rational(c)
    coeffs = [Poly.zero()]
    power = Fraction(1)
    for n in range(1, order + 1):
        power *= c
        coeffs.append(Poly.const(-power / n))
    return Series(order, tuple(coeffs))


def ratio_power_exponent(alpha: RationalLike, beta: RationalLike, order: int) -> Series:
    """The exponent (x/w) (log(1 - beta t) - log(1 - alpha t)) of the ratio
    power ((1 - beta t)/(1 - alpha t)) ** (x/w), w = alpha - beta."""
    w = as_rational(alpha) - as_rational(beta)
    if w == 0:
        raise ValueError("gf_ratio_power requires alpha != beta")
    logs = series_log1p_scaled(beta, order) - series_log1p_scaled(alpha, order)
    return logs.scale(Poly.x() / w)


def gf_ratio_power(alpha: RationalLike, beta: RationalLike, order: int) -> Series:
    """exp of ``ratio_power_exponent``: its t**n coefficient is a degree-n
    polynomial in x whose x**n coefficient is 1/n!."""
    return series_exp(ratio_power_exponent(alpha, beta, order))


def egf_extract(f: Series) -> list[Poly]:
    """Read a polynomial sequence out of an exponential generating function:
    the n-th entry is n! times the coefficient of t**n."""
    return [f.coeffs[n] * factorial(n) for n in range(f.order + 1)]
