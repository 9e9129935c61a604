"""Exact reference constructions that only the tests compare against.

They sit outside the library on purpose: each one is an independent second
route to an object ``dops.series`` or ``dops.polynomials`` builds another
way.
"""

from fractions import Fraction

from dops.polynomials import Poly, RationalLike, as_rational, factorial, falling_factorial
from dops.series import Series


def fraction_add(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Coefficientwise Fraction sum of two coefficient tuples, trailing
    zeros stripped: the reference for ``Poly.__add__``."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def horner(coeffs: tuple[Fraction, ...], point: Fraction) -> Fraction:
    """Horner's rule on Fraction coefficients: the reference for
    ``Poly.__call__``."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def series_log(f: Series) -> Series:
    """log(f) for a series with constant term 1 (inverse of series_exp)."""
    if f.coeffs[0] != Poly.one():
        raise ValueError("series_log requires constant term exactly 1")
    out = [Poly.zero()]
    for n in range(1, f.order + 1):
        acc = f.coeffs[n] * n
        for k in range(1, n):
            hk = out[k]
            if hk.is_zero():
                continue
            acc = acc - (hk * f.coeffs[n - k]) * k
        out.append(acc / n)
    return Series(f.order, tuple(out))


def gf_binomial_xw(w: RationalLike, sign_scale: RationalLike, order: int) -> Series:
    """Closed-form series of (1 + w * sign_scale * t) ** (x/w) for w != 0.

    The coefficient of t**n is the step-w falling factorial polynomial of
    degree n times sign_scale**n / n!; this is the binomial-series cross-check
    for the exponent-route ratio powers.
    """
    w = as_rational(w)
    if w == 0:
        raise ValueError("gf_binomial_xw requires w != 0")
    s = as_rational(sign_scale)
    coeffs = []
    power = Fraction(1)
    for n in range(order + 1):
        coeffs.append(falling_factorial(w, n) * (power / factorial(n)))
        power *= s
    return Series(order, tuple(coeffs))
