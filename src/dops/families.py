"""Construction of the polynomial families, each by two independent routes.

Every family comes with a recurrence construction and a generating-function
construction, and the two must agree coefficientwise; that equality is the
backbone test of the whole package.  A recurrence construction writes its
coefficients down as a ``RecurrenceTable`` and regenerates it, so fitted and
constructed recurrences are run by the same code.  Parameter conventions:

* Mittag-Leffler type: generating function ((1-beta t)/(1-alpha t))**(x/w)
  times exp(sum c_i t**i), with w = alpha - beta.  The exponent coefficients
  c_1..c_{d-1} are the source of truth; the recurrence parameters are derived
  from them as b_k = (k+1)! c_{k+1} (so b_0 = c_1), with b_k = 0 for
  k >= d-1.  The associated lowering operator is the forward difference with
  step w, and the companion sequence is Q_n = delta_w(P_{n+1}) / (n+1).

* Laguerre type: generating function (1-at)**beta_exp times
  exp((xt+theta)/(1-at) + sum b_i t**i / i!).  The constant exp(theta + b_0)
  produced at t = 0 is removed exactly (it is irrational for rational
  nonzero arguments), so P_0 = 1 and all coefficients stay rational; theta
  then acts only through the t-dependent part of its expansion, which is an
  x-shift by a*theta.  The lowering operator is d/dx.

* Hypergeometric Laguerre: the terminating 1Fd sums, normalized to value 1
  at x = 0 (not monic), plus the 2F(d+1) combinations used for
  quasi-orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomials import (
    Poly,
    RationalLike,
    as_rational,
    binomial,
    delta_w,
    derivative,
    factorial,
    falling_value,
)
from .orthogonality import RecurrenceTable
from .series import Series, egf_extract, gf_ratio_power, normalize_exponent, series_exp, series_log1p_scaled, series_mul

__all__ = [
    "FamilyParamError",
    "MLParams",
    "LagParams",
    "HypParams",
    "ml_recurrence_table",
    "ml_by_recurrence",
    "ml_by_gf",
    "ml_q_sequence",
    "laguerre_type_by_recurrence",
    "laguerre_type_by_gf",
    "laguerre_q_sequence",
    "hyp_laguerre",
    "hyp_quasi",
    "terminating_pfq",
]


class FamilyParamError(ValueError):
    """A family parameter set violates its invariants."""


def _is_nonpositive_integer(value: Fraction, strict_negative: bool = False) -> bool:
    if value.denominator != 1:
        return False
    if strict_negative:
        return value.numerator <= -1
    return value.numerator <= 0


@dataclass(frozen=True)
class MLParams:
    """Mittag-Leffler type family parameters: dimension d, the two ratio
    parameters (alpha != beta), and the d-1 exponent coefficients c_1..c_{d-1}."""

    d: int
    alpha: Fraction
    beta: Fraction
    c: tuple[Fraction, ...] = ()

    def __init__(self, d: int, alpha: RationalLike, beta: RationalLike,
                 c: Sequence[RationalLike] = ()):
        if d < 1:
            raise FamilyParamError("d must be a positive integer")
        alpha = as_rational(alpha)
        beta = as_rational(beta)
        c = tuple(as_rational(ci) for ci in c)
        if alpha == beta:
            raise FamilyParamError("alpha must differ from beta")
        if len(c) != d - 1:
            raise FamilyParamError(f"expected {d - 1} exponent coefficients c for d={d}, got {len(c)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "c", c)

    @property
    def w(self) -> Fraction:
        return self.alpha - self.beta

    def b(self, k: int) -> Fraction:
        """Recurrence parameter b_k = (k+1)! c_{k+1}; zero for k >= d-1."""
        if 0 <= k <= self.d - 2:
            return factorial(k + 1) * self.c[k]
        return Fraction(0)

    def lam(self, n: int) -> Fraction:
        """Connection coefficient between the family and its difference
        sequence: lambda_n = n * alpha."""
        return n * self.alpha


@dataclass(frozen=True)
class LagParams:
    """Laguerre type family parameters: dimension d, the scale a != 0, the
    binomial exponent, the shift theta, and the d exponent coefficients
    b_0..b_{d-1} (b_0 only enters the removed normalization constant)."""

    d: int
    a: Fraction
    beta_exp: Fraction
    theta: Fraction
    b: tuple[Fraction, ...]

    def __init__(self, d: int, a: RationalLike, beta_exp: RationalLike = 0,
                 theta: RationalLike = 0, b: Sequence[RationalLike] = ()):
        if d < 1:
            raise FamilyParamError("d must be a positive integer")
        a = as_rational(a)
        if a == 0:
            raise FamilyParamError("a must be nonzero")
        b = tuple(as_rational(bi) for bi in b)
        if not b:
            b = (Fraction(0),) * d
        if len(b) != d:
            raise FamilyParamError(f"expected {d} exponent coefficients b for d={d}, got {len(b)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta_exp", as_rational(beta_exp))
        object.__setattr__(self, "theta", as_rational(theta))
        object.__setattr__(self, "b", b)

    def b_at(self, i: int) -> Fraction:
        """b_i with the convention b_i = 0 for i >= d."""
        if 0 <= i < self.d:
            return self.b[i]
        return Fraction(0)


@dataclass(frozen=True)
class HypParams:
    """Hypergeometric Laguerre parameters: dimension d and the denominator
    shifts alpha_1..alpha_d, none of which may be a negative integer."""

    d: int
    alphavec: tuple[Fraction, ...]

    def __init__(self, d: int, alphavec: Sequence[RationalLike]):
        if d < 1:
            raise FamilyParamError("d must be a positive integer")
        alphavec = tuple(as_rational(ai) for ai in alphavec)
        if len(alphavec) != d:
            raise FamilyParamError(f"expected {d} parameters alphavec, got {len(alphavec)}")
        for ai in alphavec:
            if _is_nonpositive_integer(ai, strict_negative=True):
                raise FamilyParamError(f"alpha_i = {ai} is a negative integer; Pochhammer denominators would vanish")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alphavec", alphavec)


# ---------------------------------------------------------------------------
# Mittag-Leffler type
# ---------------------------------------------------------------------------


def ml_recurrence_table(alpha: RationalLike, beta: RationalLike, b, d: int,
                        n_max: int) -> RecurrenceTable:
    """The (d+2)-term band recurrence of the Mittag-Leffler type family,

        P_{n+1} = (x + (alpha+beta) n + b_0) P_n
                  - n ((n-1) alpha beta + (alpha+beta) b_0 - b_1) P_{n-1}
                  + sum_{k=2..d} C(n,k) [b_k - (alpha+beta) k b_{k-1}
                                         + alpha beta k (k-1) b_{k-2}] P_{n-k},

    as the table of steps 0..n_max-1; ``b`` is a callable k -> b_k.  alpha =
    beta is accepted: the coefficients are polynomial in (alpha, beta), so at
    alpha = beta = a the table is the exact confluent (derivative-operator,
    Laguerre type) limit.
    """
    alpha, beta = as_rational(alpha), as_rational(beta)
    s, p = alpha + beta, alpha * beta
    gamma = {}
    for n in range(1, n_max):
        gamma[(n, d - 1)] = n * ((n - 1) * p + s * b(0) - b(1))
        for k in range(2, min(n, d) + 1):
            bracket = b(k) - s * k * b(k - 1) + p * k * (k - 1) * b(k - 2)
            gamma[(n - k + 1, d - k)] = -binomial(n, k) * bracket
    return RecurrenceTable(d, n_max, tuple(-(s * n + b(0)) for n in range(n_max)), gamma)


def ml_by_recurrence(params: MLParams, n_max: int) -> list[Poly]:
    """Monic P_0..P_{n_max} generated by the (d+2)-term band recurrence."""
    return ml_recurrence_table(params.alpha, params.beta, params.b, params.d, n_max).regenerate()


def ml_by_gf(params: MLParams, n_max: int) -> list[Poly]:
    """The same family read off the exponential generating function
    ((1-beta t)/(1-alpha t))**(x/w) exp(sum c_i t**i)."""
    ratio = gf_ratio_power(params.alpha, params.beta, n_max)
    if any(ci != 0 for ci in params.c):
        terms = [Poly.zero()] + [Poly.const(ci) for ci in params.c]
        exponent = Series(n_max, terms[:n_max + 1])
        k = series_mul(ratio, series_exp(exponent))
    else:
        k = ratio
    return egf_extract(k)


def ml_q_sequence(polys: Sequence[Poly], w: RationalLike) -> list[Poly]:
    """Companion sequence Q_n = delta_w(P_{n+1}) / (n+1), monic of degree n."""
    w = as_rational(w)
    return [delta_w(polys[n + 1], w) / (n + 1) for n in range(len(polys) - 1)]


# ---------------------------------------------------------------------------
# Laguerre type
# ---------------------------------------------------------------------------


def laguerre_type_by_recurrence(params: LagParams, n_max: int) -> list[Poly]:
    """Monic P_0..P_{n_max} from the band recurrence of the Laguerre-type
    family (b_i = 0 for i >= d),

        P_{n+1} = (x + a (theta - beta_exp + 2n) + b_1) P_n
                  - n (a^2 (n - beta_exp - 1) + 2 a b_1 - b_2) P_{n-1}
                  + sum_{i=2..d} n!/(n-i)! [b_{i+1}/i! - 2 a b_i/(i-1)!
                                            + a^2 b_{i-1}/(i-2)!] P_{n-i}."""
    a, beta, theta, b, d = params.a, params.beta_exp, params.theta, params.b_at, params.d
    gamma = {}
    for n in range(1, n_max):
        gamma[(n, d - 1)] = n * (a * a * (n - beta - 1) + 2 * a * b(1) - b(2))
        for i in range(2, min(n, d) + 1):
            bracket = (b(i + 1) / factorial(i) - 2 * a * b(i) / factorial(i - 1)
                       + a * a * b(i - 1) / factorial(i - 2))
            gamma[(n - i + 1, d - i)] = -bracket * falling_value(n, i)
    beta_n = tuple(-(a * (theta - beta + 2 * n) + b(1)) for n in range(n_max))
    return RecurrenceTable(d, n_max, beta_n, gamma).regenerate()


def laguerre_type_by_gf(params: LagParams, n_max: int) -> list[Poly]:
    """The same family from (1-at)**beta_exp exp((xt+theta)/(1-at) + pi(t)),
    with the t = 0 constant removed so P_0 = 1 exactly."""
    a, theta = params.a, params.theta
    x = Poly.x()
    coeffs = [Poly.const(theta)]
    apow = Fraction(1)  # a**(n-1) running power
    for n in range(1, n_max + 1):
        coeffs.append(x * apow + Poly.const(theta * apow * a))
        apow *= a
    exponent = Series(n_max, coeffs)
    pi_terms = [Poly.const(params.b_at(i) / factorial(i)) for i in range(min(params.d, n_max + 1))]
    exponent = exponent + Series(n_max, pi_terms)
    reduced, _constant = normalize_exponent(exponent)
    g = series_exp(reduced)
    if params.beta_exp != 0:
        binom = series_exp(series_log1p_scaled(a, n_max).scale(params.beta_exp))
        g = series_mul(binom, g)
    return egf_extract(g)


def laguerre_q_sequence(polys: Sequence[Poly]) -> list[Poly]:
    """Derivative companion sequence Q_n = P'_{n+1} / (n+1)."""
    return [derivative(polys[n + 1]) / (n + 1) for n in range(len(polys) - 1)]


# ---------------------------------------------------------------------------
# Hypergeometric Laguerre
# ---------------------------------------------------------------------------


def terminating_pfq(n: int, extra_num: Sequence[RationalLike],
                    den: Sequence[RationalLike]) -> Poly:
    """The terminating hypergeometric sum with leading numerator -n:

        sum_{k=0..n} (-n)_k prod (a_j)_k / (prod (b_j)_k k!) x**k

    where extra_num are the a_j and den the b_j.  Raises if a denominator
    Pochhammer vanishes within the summation range.
    """
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


def hyp_laguerre(params: HypParams, n: int) -> Poly:
    """Degree-n hypergeometric Laguerre polynomial, the 1Fd terminating sum
    with denominators alpha_i + 1; normalized to value 1 at x = 0."""
    return terminating_pfq(n, (), tuple(ai + 1 for ai in params.alphavec))


def hyp_quasi(params: HypParams, beta: RationalLike, l: int, n: int) -> Poly:
    """The 2F(d+1) combination with extra numerator beta + d*l + 1 and extra
    denominator beta + 1; quasi-orthogonal of order l over the 1Fd family."""
    beta = as_rational(beta)
    if _is_nonpositive_integer(beta, strict_negative=True):
        raise FamilyParamError(f"beta = {beta} is a negative integer")
    if l < 0:
        raise FamilyParamError("l must be non-negative")
    return terminating_pfq(
        n,
        (beta + params.d * l + 1,),
        tuple(ai + 1 for ai in params.alphavec) + (beta + 1,),
    )
