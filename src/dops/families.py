"""Construction of the polynomial families, each by two independent routes.

Every family comes with a recurrence construction and a generating-function
construction, and the two must agree coefficientwise; that equality is the
backbone test of the whole package.  A recurrence construction writes its
coefficients down as a ``RecurrenceTable`` and regenerates it, so fitted and
constructed recurrences are run by the same code; the table reads each
parameter b_k once and forms each n-free coefficient once.  A
generating-function construction writes its exponent in EGF form and reads
P_n off ``series.egf_exp``, the one exponential, with a multiplier that sets
its cost and never its result.  Parameter conventions:

* Mittag-Leffler type: generating function ((1-beta t)/(1-alpha t))**(x/w)
  times exp(sum c_i t**i), with w = alpha - beta.  The exponent coefficients
  c_1..c_{d-1} are the source of truth; in EGF form the scalar exponent is
  n! c_n at t**n, zero from n = d on.  The lowering operator is the forward
  difference delta_w with step w.

* Laguerre type: generating function (1-at)**beta_exp times
  exp((xt+theta)/(1-at) + sum b_i t**i / i!), the confluent (alpha = beta =
  a) Mittag-Leffler one: the confluent ratio-power exponent x t/(1-at) plus
  the scalar exponent a**n (n! theta - (n-1)! beta_exp) + b_n at t**n.  The
  exponent is built from t**1 on, so the constant exp(theta + b_0) it would
  have at t = 0 (an irrational for rational nonzero arguments) is never
  formed: P_0 = 1 and all coefficients stay rational, and b_0 drops out.
  Theta then acts only through the t-dependent part of its expansion, which
  is an x-shift by a*theta.  The lowering operator is d/dx.

* Hypergeometric Laguerre: the terminating 1Fd sums, normalized to value 1
  at x = 0 (not monic), plus the 2F(d+1) combinations used for
  quasi-orthogonality.  A parameter set's sums for n = 0..N come from one
  pass over n-free integer step ratios as rows over a running lcm; the
  family's are made Polys here, the combinations stay rows.

The first two are built by the same two routes, which read a parameter
set's ``ratio`` pair and its scalar ``exponent``.  Under either lowering
operator L the companion sequence is Q_n = L(P_{n+1}) / (n+1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .polynomials import (
    Poly,
    RationalLike,
    Record,
    Row,
    as_rational,
    delta_w,
    derivative,
    format_rational,
)
from .orthogonality import RecurrenceTable

__all__ = [
    "FamilyParamError",
    "MLParams",
    "LagParams",
    "HypParams",
    "Family",
    "read_params",
    "write_params",
    "ml_recurrence_table",
    "ml_by_recurrence",
    "ml_by_gf",
    "q_sequence",
    "hyp_laguerre",
    "hyp_quasi",
    "terminating_pfq",
]


class FamilyParamError(ValueError):
    """A family parameter set violates its invariants."""


def _is_negative_integer(value: Fraction) -> bool:
    return value.denominator == 1 and value < 0


def as_int(value, name: str) -> int:
    """The value as an int; a config file may hold a float, a string or a
    bool there, and none of them is accepted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FamilyParamError(f"--{name} must be an integer, got {value!r}")
    return value


def comma_list(text: str, name: str) -> list[str]:
    """The parts of the comma-separated value of flag ``name``, stripped; a
    value that is empty as a whole has none.  An empty part between, before
    or after commas is refused, so no later value moves into its slot."""
    if not text.strip():
        return []
    parts = [part.strip() for part in text.split(",")]
    if not all(parts):
        raise FamilyParamError(f"--{name} has an empty entry in {text!r}")
    return parts


# A parameter field's kind: a true int, an exact rational, or a tuple of them;
# REQUIRED stands for the default of a field that has none.
INT, RATIONAL, RATIONALS = "int", "rational", "rationals"
REQUIRED = object()


class _Params(Record):
    """An immutable parameter set.  ``FIELDS``, the one table of its fields as
    (name, kind, default) with d first, drives the constructor and the
    readers.  The constructor takes the fields positionally or by name and
    coerces each to its kind: a value of the wrong type, such as a float or a
    bare number for a list in a config file, or a malformed rational string
    is refused under the field's name.  Then it checks d and runs the class's
    own ``_check``."""

    def __init_subclass__(cls):
        cls._fields = tuple(name for name, _, _ in cls.FIELDS)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        if len(args) > len(given) or not kwargs.keys() <= set(self._fields) - given.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}, "
                            f"got {len(args)} positional and {sorted(kwargs)} by name")
        given.update(kwargs)
        for name, kind, default in self.FIELDS:
            value = given.get(name, default)
            if value is REQUIRED:
                raise TypeError(f"{type(self).__name__} missing required field {name!r}")
            if kind == INT:
                value = as_int(value, name)
            else:
                scalar = kind == RATIONAL
                try:
                    value = as_rational(value) if scalar else tuple(map(as_rational, value))
                except TypeError:
                    shape = ("an exact rational (an integer or a p/q string)" if scalar
                             else "a list of exact rationals (integers or p/q strings)")
                    raise FamilyParamError(f"--{name} must be {shape}, got {value!r}") from None
                except ValueError as exc:
                    raise FamilyParamError(f"--{name}: {exc}") from None
            object.__setattr__(self, name, value)
        if self.d < 1:
            raise FamilyParamError("d must be a positive integer")
        self._check()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class MLParams(_Params):
    """Mittag-Leffler type family parameters: dimension d, the two ratio
    parameters (alpha != beta), and the d-1 exponent coefficients c_1..c_{d-1}."""

    FIELDS = (("d", INT, REQUIRED), ("alpha", RATIONAL, REQUIRED), ("beta", RATIONAL, REQUIRED),
              ("c", RATIONALS, ()))

    def _check(self):
        if self.alpha == self.beta:
            raise FamilyParamError("alpha must differ from beta")
        if len(self.c) != self.d - 1:
            raise FamilyParamError(f"expected {self.d - 1} exponent coefficients c for d={self.d}, got {len(self.c)}")

    @cached_property
    def w(self) -> Fraction:
        return self.alpha - self.beta

    @property
    def ratio(self) -> tuple[Fraction, Fraction]:
        return self.alpha, self.beta

    def exponent(self, n: int) -> Fraction:
        """The scalar exponent at t**n, n >= 1, in EGF form: n! c_n, zero from n = d on."""
        if n < self.d:
            return math.factorial(n) * self.c[n - 1]
        return Fraction(0)


class LagParams(_Params):
    """Laguerre type family parameters: dimension d, the scale a != 0, the
    binomial exponent, the shift theta, and the d exponent coefficients
    b_0..b_{d-1} (b_0 would only enter the t = 0 constant, which is never
    formed; none given means all zero)."""

    FIELDS = (("d", INT, REQUIRED), ("a", RATIONAL, REQUIRED), ("beta_exp", RATIONAL, 0),
              ("theta", RATIONAL, 0), ("b", RATIONALS, ()))

    def _check(self):
        if self.a == 0:
            raise FamilyParamError("a must be nonzero")
        if not self.b:
            object.__setattr__(self, "b", (Fraction(0),) * self.d)
        if len(self.b) != self.d:
            raise FamilyParamError(f"expected {self.d} exponent coefficients b for d={self.d}, got {len(self.b)}")

    def b_at(self, i: int) -> Fraction:
        """b_i with the convention b_i = 0 for i >= d."""
        if 0 <= i < self.d:
            return self.b[i]
        return Fraction(0)

    @property
    def ratio(self) -> tuple[Fraction, Fraction]:
        return self.a, self.a

    def exponent(self, n: int) -> Fraction:
        """The scalar exponent at t**n, n >= 1, in EGF form: n! times a**n
        (theta - beta_exp/n) + b_n/n!, with b_n = 0 for n >= d."""
        return self.a ** n * (math.factorial(n) * self.theta
                              - math.factorial(n - 1) * self.beta_exp) + self.b_at(n)


class HypParams(_Params):
    """Hypergeometric Laguerre parameters: dimension d and the denominator
    shifts alpha_1..alpha_d, none of which may be a negative integer, plus
    the quasi-orthogonal combinations' beta (not a negative integer) and
    order l >= 1."""

    FIELDS = (("d", INT, REQUIRED), ("alphavec", RATIONALS, REQUIRED), ("beta", RATIONAL, 0),
              ("l", INT, 1))

    def _check(self):
        if len(self.alphavec) != self.d:
            raise FamilyParamError(f"expected {self.d} parameters alphavec, got {len(self.alphavec)}")
        for ai in self.alphavec:
            if _is_negative_integer(ai):
                raise FamilyParamError(f"alpha_i = {ai} is a negative integer; Pochhammer denominators would vanish")
        if _is_negative_integer(self.beta):
            raise FamilyParamError(f"beta = {self.beta} is a negative integer")
        if self.l < 1:
            raise FamilyParamError("--l must be a positive integer")


class Family(Record):
    """Every fact about one family kind: its parameter class, its routes
    (params, n_max) -> P_0..P_{n_max}, its lowering operator (params, p) -> L p,
    its suite module, the family name its reports carry and the parameters it
    pins.  A family without a generating function or lowering operator has None."""

    _fields = ("params", "recurrence", "gf", "lower", "suites", "reports_as", "pinned")

    def __init__(self, params, recurrence, gf, lower, suites, reports_as, pinned=None):
        self.params, self.recurrence, self.gf, self.lower = params, recurrence, gf, lower
        self.suites, self.reports_as, self.pinned = suites, reports_as, pinned or {}

    @staticmethod
    def table() -> dict:
        """Family kind -> Family, in ``--family`` order; charlier is ml at
        alpha = 0.  It is built from the module's globals at each call, so a
        route rebound on the module, as a tracer does, is the one a run calls."""
        ml = (MLParams, ml_by_recurrence, ml_by_gf, lambda params, p: delta_w(p, params.w),
              "ml_suites", "ml")
        return {"ml": Family(*ml),
                "laguerre": Family(LagParams, ml_by_recurrence, ml_by_gf,
                                   lambda params, p: derivative(p), "laguerre_suites", "laguerre"),
                "hyp-laguerre": Family(HypParams, hyp_laguerre, None, None, "hyp_suites",
                                       "hyp-laguerre"),
                "charlier": Family(*ml, pinned={"alpha": 0})}


def read_params(kind: str, d, values: dict):
    """The parameters of family ``kind`` at dimension d, read from the other
    fields as flags, a config file or an artifact give them: a missing or null
    entry takes the field's default, a tuple field may be a comma-separated
    string (empty means missing), and a key no field names or a value other
    than the one the family pins is refused.  ``write_params`` is the inverse."""
    family = Family.table()[kind]
    for name, pinned in family.pinned.items():
        if values.get(name) is not None and as_rational(values[name]) != pinned:
            raise FamilyParamError(f"the {kind} family fixes {name} = {pinned}; "
                                   f"use --family {family.reports_as} for {name} != {pinned}")
    values, cls = {**values, **family.pinned}, family.params
    named = [f for f in cls.FIELDS if f[0] != "d"]
    unknown = sorted(set(values) - {name for name, _, _ in named})
    if unknown:
        raise FamilyParamError(f"family {kind} takes no parameter {unknown[0]!r} "
                               f"(its parameters are {', '.join(name for name, _, _ in named)})")
    given = {}
    for name, field_kind, default in named:
        value = values.get(name)
        is_tuple = field_kind == RATIONALS
        if is_tuple and isinstance(value, str):
            value = comma_list(value, name)
        if value is not None and not (is_tuple and value == []):
            given[name] = value
        elif default is REQUIRED:
            raise FamilyParamError(f"missing required parameter --{name.replace('_', '-')}")
    return cls(d, **given)


def write_params(params) -> dict:
    """Every field of a parameter set as an artifact writes it: ints as they
    are, rationals as p/q strings and tuples as lists of them."""
    out = {}
    for name, kind, _ in params.FIELDS:
        value = getattr(params, name)
        if kind == RATIONAL:
            value = format_rational(value)
        elif kind == RATIONALS:
            value = [format_rational(v) for v in value]
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Mittag-Leffler type, the Laguerre type as its confluent case
# ---------------------------------------------------------------------------


def ml_recurrence_table(params: MLParams | LagParams, n_max: int) -> RecurrenceTable:
    """The (d+2)-term band recurrence of a Mittag-Leffler type family at
    ``params.ratio`` = (alpha, beta),

        P_{n+1} = (x + (alpha+beta) n + b_0) P_n
                  - n ((n-1) alpha beta + (alpha+beta) b_0 - b_1) P_{n-1}
                  + sum_{k=2..d} C(n,k) [b_k - (alpha+beta) k b_{k-1}
                                         + alpha beta k (k-1) b_{k-2}] P_{n-k},

    as the table of steps 0..n_max-1, with b_k = ``params.exponent(k+1)``
    read once for each of b_0..b_d.  The n-free part of every coefficient,
    such as each bracket, is formed once, so an entry costs one integer
    times it.  The coefficients are polynomial in (alpha, beta), so at
    alpha = beta = a the table is the exact confluent (derivative-operator)
    limit: the Laguerre family.  There the theta terms of the exponent
    cancel in every bracket and lower each beta_n by a theta, the
    translation by a theta in x.
    """
    alpha, beta = params.ratio
    d = params.d
    s, p = alpha + beta, alpha * beta
    bs = [params.exponent(k + 1) for k in range(d + 1)]
    top = s * bs[0] - bs[1]
    # The bracket of class d-k, negated.
    brackets = {k: s * k * bs[k - 1] - bs[k] - p * k * (k - 1) * bs[k - 2]
                for k in range(2, d + 1)}
    gamma = {}
    for n in range(1, n_max):
        gamma[(n, d - 1)] = n * ((n - 1) * p + top)
        for k in range(2, min(n, d) + 1):
            gamma[(n - k + 1, d - k)] = math.comb(n, k) * brackets[k]
    return RecurrenceTable(d, n_max, tuple(-(s * n + bs[0]) for n in range(n_max)), gamma)


def ml_by_recurrence(params: MLParams | LagParams, n_max: int) -> list[Poly]:
    """Monic P_0..P_{n_max} generated by the (d+2)-term band recurrence."""
    return ml_recurrence_table(params, n_max).regenerate()


def ml_by_gf(params: MLParams | LagParams, n_max: int) -> list[Poly]:
    """The same family read off the exponential generating function: one exp
    of the ratio-power exponent at ``params.ratio`` plus the scalar
    ``params.exponent(n)`` at each t**n, n >= 1, in EGF form, taken with the
    multiplier (1 - alpha t)(1 - beta t), which turns the derivative of the
    exponent into a polynomial in t of degree at most d.  ``dops.series`` is
    imported here, so a job that never takes this route never compiles it."""
    from .series import egf_exp, ratio_power_exponent, ratio_power_multiplier

    ratio = params.ratio
    return egf_exp(ratio_power_exponent(*ratio, n_max, params.exponent),
                   ratio_power_multiplier(*ratio))


def q_sequence(polys: Sequence[Poly], lower) -> list[Poly]:
    """Companion sequence Q_n = lower(P_{n+1}) / (n+1) under a lowering
    operator ``lower`` (delta_w or d/dx), monic of degree n when P is."""
    return [lower(polys[n + 1]) / (n + 1) for n in range(len(polys) - 1)]


# ---------------------------------------------------------------------------
# Hypergeometric Laguerre
# ---------------------------------------------------------------------------


def terminating_pfq(n_max: int, extra_num: Sequence[RationalLike],
                    den: Sequence[RationalLike]) -> list[Row]:
    """The terminating hypergeometric sums with leading numerator -n,
    sum_{k=0..n} (-n)_k prod (a_j)_k / (prod (b_j)_k k!) x**k for
    n = 0..n_max, where extra_num are the a_j and den the b_j, as rows over
    a running lcm.  Raises if a denominator Pochhammer vanishes at some k <= n_max.

    One pass builds them all.  Coefficient k of sum n is (-1)**k C(n, k) R_k,
    R_k = prod_{i<k} u_i / v_i, and the step ratio u_i / v_i = prod (a_j + i) /
    prod (b_j + i) does not depend on n: with a_j = p_j/q_j and b_j = r_j/s_j,
    u_i = prod (p_j + i q_j) prod s_j and v_i = prod (r_j + i s_j) prod q_j,
    cut down by their gcd and signed so that v_i > 0.  R_k is kept in lowest
    terms by two gcds per step.  Row n is (-1)**k C(n, k) num R_k L_n / den R_k
    over L_n = lcm(den R_0, ..., den R_n), a divisor of prod_{i<n} v_i; going
    to n + 1 scales each numerator by L_{n+1} / L_n and appends the new one.
    The signed binomials (-1)**k C(n, k) come from one table per n_max,
    shared by every table of that order.
    """
    ups = [(a.numerator, a.denominator) for a in map(as_rational, extra_num)]
    downs = [(b.numerator, b.denominator) for b in map(as_rational, den)]
    q = math.prod(qj for _, qj in ups)
    s = math.prod(sj for _, sj in downs)
    rows = [Row([1], 1)]
    signed = _signed_binomials(n_max)
    scaled, top, bottom, lcm = [1], 1, 1, 1  # scales, R_n, L_n
    for i in range(n_max):
        v = q
        for rj, sj in downs:
            v *= rj + i * sj
        if v == 0:
            raise FamilyParamError(f"Pochhammer denominator vanishes at k={i + 1}")
        u = s
        for pj, qj in ups:
            u *= pj + i * qj
        g = math.gcd(u, v) if v > 0 else -math.gcd(u, v)
        u, v = u // g, v // g
        g_up, g_down = math.gcd(u, bottom), math.gcd(top, v)
        top, bottom = top // g_down * (u // g_up), bottom // g_up * (v // g_down)
        step = bottom // math.gcd(lcm, bottom)
        lcm *= step
        scaled = [m * step for m in scaled] + [top * (lcm // bottom)]
        rows.append(Row([c * m for c, m in zip(signed[i + 1], scaled)], lcm))
    return rows


@lru_cache(maxsize=1)
def _signed_binomials(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Row n of (-1)**k C(n, k), k = 0..n, for n = 0..n_max, by one Pascal
    pass.  A run builds all its terminating tables at one order, so one
    table is kept."""
    rows = [(1,)]
    for _ in range(n_max):
        rows.append(tuple(a - b for a, b in zip(rows[-1] + (0,), (0,) + rows[-1])))
    return tuple(rows)


def hyp_laguerre(params: HypParams, n_max: int) -> list[Poly]:
    """P_0..P_{n_max} of the hypergeometric Laguerre family: the 1Fd
    terminating sums with denominators alpha_i + 1, of value 1 at x = 0."""
    rows = terminating_pfq(n_max, (), tuple(ai + 1 for ai in params.alphavec))
    return [row.poly() for row in rows]


def hyp_quasi(params: HypParams, n_max: int) -> list[Row]:
    """The 2F(d+1) combinations of degree 0..n_max with extra numerator
    beta + d*l + 1 and extra denominator beta + 1, at the params' beta and
    l; quasi-orthogonal of order l over the 1Fd family.  They are only ever
    expanded over that family, so they stay ``terminating_pfq``'s unreduced
    rows."""
    dens = tuple(ai + 1 for ai in params.alphavec) + (params.beta + 1,)
    return terminating_pfq(n_max, (params.beta + params.d * params.l + 1,), dens)
