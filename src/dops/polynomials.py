"""Exact arithmetic substrate: rational scalars, dense polynomials in x, and
the shift / divided-difference / derivative operators built on them.

Every scalar in this package is an arbitrary-precision rational
(``fractions.Fraction``), always in lowest terms with a positive denominator.
A polynomial is stored as FLINT's ``fmpq_poly`` is: a tuple of integer
numerators over one positive denominator, in primitive form (the gcd of the
denominator and all numerators is 1) with no trailing zeros.  That form is
unique, so two polynomials are equal exactly when their (numerators,
denominator) pairs are, which is the same as their reduced coefficient
sequences being equal.  That coefficientwise equality is the single
pass/fail criterion used by every identity check in the package; nothing is
ever compared numerically.

``Poly(...)`` is the one way in from rationals and ``_make`` the one way in
from integers.  Every ``Poly`` operation works on the Python-int numerators
and reduces once at the end, so no operation does ``Fraction`` arithmetic
per coefficient.  ``lincomb`` is the one kernel for sums and products: a
whole linear combination of scaled polynomials or scaled products is added
up in integers over one common denominator and reduced once, not once per
term.  ``+``, ``-``, ``Poly`` products and ``delta_w`` are each one
``lincomb`` call; a scalar product or quotient rescales the numerators and
the denominator, and ``shift`` and ``derivative`` have their own integer
loops.  The reduced ``Fraction`` coefficients, ``Poly.coeffs``, are built
only when something reads them; the serializer ``format_coeffs`` does not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Poly",
    "Record",
    "Row",
    "lincomb",
    "as_rational",
    "parse_rational",
    "format_rational",
    "format_coeffs",
    "shift",
    "delta_w",
    "derivative",
]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational; a bool,
    which a JSON true or false gives, is refused like any other type."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational string: "3", "-5", or "p/q", q unsigned, in ASCII digits."""
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"rational literals must be decimal-free p/q strings, got {text!r}")
    num, slash, den = s.partition("/")
    parts = (num[1:] if num[:1] in ("+", "-") else num, den if slash else "1")
    if not all(part.isascii() and part.isdigit() for part in parts) or not int(parts[1]):
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(int(num), int(parts[1]))


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p" or "p/q" (never a decimal)."""
    f = as_rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_coeffs(p: Poly) -> list[str]:
    """p's coefficients as format_rational renders them, "0" for a zero one,
    from the integer numerators by one gcd each."""
    den, out = p.den, []
    for c in p.nums:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


class Poly:
    """Dense univariate polynomial in x over the rationals.

    Stored in FLINT's ``fmpq_poly`` layout: integer numerators ``nums`` over
    one positive denominator ``den``, so the coefficient of x**k is
    ``nums[k] / den``.  The pair is primitive (``gcd(den, *nums) == 1``) and
    has no trailing zero numerators; the zero polynomial is ``((), 1)`` and
    its ``degree`` is -1.  ``_make`` is the one normaliser every result goes
    through, so two polynomials are equal exactly when their pairs are.
    ``coeffs``, the coefficients as reduced Fractions, is built on first use
    and cached.  Instances are immutable and hashable.
    """

    __slots__ = ("nums", "den", "_coeffs")

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[RationalLike] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls._make([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _make(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial nums / den in primitive form (den != 0)."""
        if not any(nums):  # zero, the common result of a passing check
            nums, den = (), 1
        else:
            while not nums[-1]:
                nums.pop()
        if den != 1:
            g = math.gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        self = object.__new__(cls)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[k]`` is the coefficient of x**k as a reduced Fraction."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            cs = tuple(Fraction(c, den) for c in self.nums)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make([], 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls._make([1], 1)

    @classmethod
    def x(cls) -> "Poly":
        return cls._make([0, 1], 1)

    @classmethod
    def const(cls, c: RationalLike) -> "Poly":
        return cls((c,))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.nums

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return lincomb(((1, self), (1, other)))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return lincomb(((1, self), (-1, other)))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return lincomb(((1, self, other),))
        if isinstance(other, (int, Fraction)):  # both carry numerator and denominator
            return Poly._make([c * other.numerator for c in self.nums],
                              self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        f = other if isinstance(other, (int, Fraction)) else as_rational(other)
        if f == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly._make([c * f.denominator for c in self.nums], self.den * f.numerator)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            if not self.nums[k]:
                continue
            c = self.coefficient(k)
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


class Record:
    """A value record: equality, hashing and repr over the ``_fields`` attributes."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class Row:
    """Integer ``nums`` over a positive ``den``, not necessarily primitive: a ``lincomb`` factor."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int):
        self.nums, self.den = nums, den

    def poly(self) -> Poly:
        """The row reduced, from a copy, as ``_make`` pops in place."""
        return Poly._make(self.nums[:], self.den)


def lincomb(terms: Iterable[tuple]) -> Poly:
    """The linear combination sum c*p, or sum c*p*q, over ``terms``: each term
    is (c, p) or (c, p, q) with c rational and p, q a ``Poly`` or a ``Row``.
    An int c is taken as it is, with no ``Fraction`` built for it.

    Works as FLINT's ``fmpq_poly`` does, on unreduced numerators: zero terms
    are dropped, L is the lcm of the term denominators c.den*p.den(*q.den),
    each numerator of the shorter factor is scaled once by c.num*(L // den)
    and multiply-added against the longer one into one integer list (a
    2-tuple's second factor is 1; the first nonzero row is written into the
    list, not added to zeros), and that list over L is reduced once.  The
    result equals the sum of the terms taken in Fraction coefficients.
    """
    kept, dens, size = [], [], 0
    for term in terms:
        c, p = term[0], term[1]
        if isinstance(c, int):
            num, den = c, p.den
        else:
            c = as_rational(c)
            num, den = c.numerator, c.denominator * p.den
        a = p.nums
        if len(term) == 2:
            a, b = (1,), a
        else:
            b = term[2].nums
            den *= term[2].den
            if len(a) > len(b):
                a, b = b, a
        if num and a and b:
            kept.append((num, den, a, b))
            dens.append(den)
            if len(a) + len(b) - 1 > size:
                size = len(a) + len(b) - 1
    common = math.lcm(*dens)
    out = None
    for num, den, a, b in kept:
        s, m = num * (common // den), len(b)
        for i, ai in enumerate(a):
            if ai:
                ai *= s
                if out is None:
                    out = [0] * i + [ai * bj for bj in b] + [0] * (size - i - m)
                else:
                    out[i:i + m] = [o + ai * bj for o, bj in zip(out[i:i + m], b)]
    return Poly._make(out or [], common)


def shift(p: Poly, h: RationalLike) -> Poly:
    """Return q with q(x) = p(x+h), by an integer Taylor shift.

    With h = a/b and n = deg p, the integer polynomial
    R(y) = den b**n p(y/b) = sum nums[k] b**(n-k) y**k is shifted by the
    integer a with the n(n+1)/2 multiply-adds of repeated synthetic
    division, giving S(y) = R(y+a); then q(x) = S(bx) / (den b**n), so
    q_j = S_j b**j / (den b**n).  The result equals the Horner composition
    of p with x + h coefficient for coefficient.
    """
    h = as_rational(h)
    if h == 0 or p.is_zero():
        return p
    a, b = h.numerator, h.denominator
    n = p.degree
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * b)
    r = [c * powers[n - k] for k, c in enumerate(p.nums)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            r[j] += a * r[j + 1]
    return Poly._make([c * powers[j] for j, c in enumerate(r)], p.den * powers[n])


def delta_w(p: Poly, w: RationalLike) -> Poly:
    """Forward divided difference (p(x+w) - p(x)) / w, as one ``lincomb``.

    Lowers the degree by exactly one and annihilates constants.  w = 0 is
    rejected; the w -> 0 limit is the formal derivative.
    """
    w = as_rational(w)
    if w == 0:
        raise ValueError("delta_w requires w != 0; use derivative() for the w -> 0 limit")
    inv = 1 / w
    return lincomb(((inv, shift(p, w)), (-inv, p)))


def derivative(p: Poly) -> Poly:
    """Formal derivative; coefficientwise w -> 0 limit of delta_w."""
    return Poly._make([k * p.nums[k] for k in range(1, len(p.nums))], p.den)
