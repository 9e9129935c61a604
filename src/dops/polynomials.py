"""Exact arithmetic substrate: rational scalars, dense polynomials in x, and
the shift / divided-difference / derivative operators built on them.

Every scalar in this package is an arbitrary-precision rational
(``fractions.Fraction``), always in lowest terms with a positive denominator.
Polynomials are dense coefficient tuples with no trailing zeros, so two
polynomials are equal exactly when their reduced coefficient sequences are
equal.  That coefficientwise equality is the single pass/fail criterion used
by every identity check in the package; nothing is ever compared numerically.

The two hot kernels, ``Poly * Poly`` and ``shift``, do their inner loops on
Python ints: they put the coefficients over their lcm denominator, work on
the integer numerators, and build one reduced Fraction per output
coefficient at the end.  Stored values are the same reduced Fractions either
way, so equality, hashing and every serialized artifact are unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Poly",
    "as_rational",
    "parse_rational",
    "format_rational",
    "shift",
    "delta_w",
    "derivative",
    "falling_factorial",
    "falling_value",
    "pochhammer",
    "binomial",
    "factorial",
]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational string: "3", "-5", or "p/q"."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"rational literals must be decimal-free p/q strings, got {text!r}")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p" or "p/q" (never a decimal)."""
    f = as_rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    return math.factorial(n)


def falling_value(y: RationalLike, n: int, w: RationalLike = 1) -> Fraction:
    """Scalar step-w falling factorial y(y-w)(y-2w)...(y-(n-1)w); 1 for n=0."""
    y = as_rational(y)
    w = as_rational(w)
    out = Fraction(1)
    for j in range(n):
        out *= y - j * w
    return out


def pochhammer(y: RationalLike, n: int) -> Fraction:
    """Scalar rising factorial (y)_n = y(y+1)...(y+n-1); 1 for n=0."""
    y = as_rational(y)
    out = Fraction(1)
    for j in range(n):
        out *= y + j
    return out


class Poly:
    """Dense univariate polynomial in x over the rationals.

    ``coeffs[k]`` is the coefficient of x**k; trailing zeros are stripped on
    construction, so the zero polynomial has an empty coefficient tuple and
    ``degree`` is -1.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, c: RationalLike) -> "Poly":
        return cls((as_rational(c),))

    @classmethod
    def monomial(cls, k: int, c: RationalLike = 1) -> "Poly":
        return cls((0,) * k + (as_rational(c),))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            a, da = _integer_content(self.coeffs)
            b, db = _integer_content(other.coeffs)
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            den = da * db
            return Poly(Fraction(c, den) for c in out)
        if isinstance(other, (int, Fraction)):
            f = as_rational(other)
            return Poly(tuple(c * f for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        f = as_rational(other)
        if f == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly(tuple(c / f for c in self.coeffs))

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        p = as_rational(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = format_rational(c)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    term = xk
                elif c == -1:
                    term = f"-{xk}"
                else:
                    term = f"{format_rational(c)}*{xk}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _integer_content(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Return (nums, den) with coeffs[k] == nums[k] / den and den the lcm of
    the coefficient denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def shift(p: Poly, h: RationalLike) -> Poly:
    """Return q with q(x) = p(x+h), by an integer Taylor shift.

    With D the lcm of p's denominators, h = a/b and n = deg p, the integer
    polynomial R(y) = D b**n p(y/b) is shifted by the integer a with the
    n(n+1)/2 multiply-adds of repeated synthetic division; then
    q_j = R(y+a)_j / (D b**(n-j)).  The result equals the Horner composition
    of p with x + h coefficient for coefficient.
    """
    h = as_rational(h)
    if h == 0 or p.is_zero():
        return p
    a, b = h.numerator, h.denominator
    r, den = _integer_content(p.coeffs)
    n = len(r) - 1
    for k in range(n):
        r[k] *= b ** (n - k)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r[j] += a * r[j + 1]
    return Poly(Fraction(c, den * b ** (n - j)) for j, c in enumerate(r))


def delta_w(p: Poly, w: RationalLike) -> Poly:
    """Forward divided difference (p(x+w) - p(x)) / w.

    Lowers the degree by exactly one and annihilates constants.  w = 0 is
    rejected; the w -> 0 limit is the formal derivative.
    """
    w = as_rational(w)
    if w == 0:
        raise ValueError("delta_w requires w != 0; use derivative() for the w -> 0 limit")
    return (shift(p, w) - p) / w


def derivative(p: Poly) -> Poly:
    """Formal derivative; coefficientwise w -> 0 limit of delta_w."""
    return Poly(tuple(k * c for k, c in enumerate(p.coeffs) if k > 0))


def falling_factorial(w: RationalLike, n: int) -> Poly:
    """Step-w falling factorial polynomial x(x-w)(x-2w)...(x-(n-1)w); 1 for n=0."""
    w = as_rational(w)
    out = Poly.one()
    for j in range(n):
        out = out * Poly((-j * w, 1))
    return out
