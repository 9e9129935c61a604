"""Exact reference constructions that only the tests compare against.

They sit outside the library on purpose: each one is an independent second
route to an object ``dops.series``, ``dops.polynomials``, ``dops.families``
or ``dops.identities`` builds another way.
"""

from fractions import Fraction
from typing import Sequence

from dops.families import FamilyParamError
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


def pochhammer(y: RationalLike, n: int) -> Fraction:
    """Scalar rising factorial (y)_n = y(y+1)...(y+n-1); 1 for n=0: the
    reference for the running rising-factorial tables of the hyp-lincomb
    suite."""
    y = as_rational(y)
    out = Fraction(1)
    for j in range(n):
        out *= y + j
    return out


def terminating_pfq(n: int, extra_num: Sequence[RationalLike],
                    den: Sequence[RationalLike]) -> Poly:
    """The terminating hypergeometric sum with leading numerator -n, one
    Fraction term at a time: the reference for the integer term-ratio
    ``dops.families.terminating_pfq``, raising the same error."""
    extra_num = [as_rational(v) for v in extra_num]
    den = [as_rational(v) for v in den]
    coeffs = []
    term = Fraction(1)
    for k in range(n + 1):
        coeffs.append(term)
        num_factor = Fraction(-n + k)
        for aj in extra_num:
            num_factor *= aj + k
        den_factor = Fraction(k + 1)
        for bj in den:
            den_factor *= bj + k
        if k < n:
            if den_factor == 0:
                raise FamilyParamError(f"Pochhammer denominator vanishes at k={k + 1}")
            term = term * num_factor / den_factor
    return Poly(coeffs)


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
