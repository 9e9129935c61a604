"""Exact reference constructions that only the tests compare against.

They sit outside the library on purpose: each one is an independent second
route to an object ``dops.series``, ``dops.polynomials``, ``dops.families``,
``dops.orthogonality`` or ``dops.identities`` builds another way.
"""

import math
from fractions import Fraction
from math import factorial
from typing import Sequence

from dops.families import FamilyParamError
from dops.orthogonality import FitError, MomentTable, OrthogonalityCheck, OrthogonalityReport
from dops.polynomials import Poly, RationalLike, as_rational, binomial, delta_w, lincomb, shift


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


def fraction_delta_w(coeffs: tuple[Fraction, ...], w: Fraction) -> tuple[Fraction, ...]:
    """(p(x+w) - p(x)) / w coefficientwise in Fractions, trailing zeros
    stripped, with p(x+w) expanded by the binomial theorem: the reference for
    ``dops.polynomials.delta_w``."""
    shifted = [sum(c * binomial(k, j) * w ** (k - j) for k, c in enumerate(coeffs) if k >= j)
               for j in range(len(coeffs))]
    return fraction_add(tuple((s - c) / w for s, c in zip(shifted, coeffs)), ())


def falling_factorial(w: RationalLike, n: int) -> Poly:
    """Step-w falling factorial polynomial x(x-w)(x-2w)...(x-(n-1)w); 1 for
    n=0: the reference the ratio-power windows are shifts of."""
    w = as_rational(w)
    out = Poly.one()
    for j in range(n):
        out = out * Poly((-j * w, 1))
    return out


def ratio_window(w: RationalLike, n: int, k: int) -> Poly:
    """W(n, k) = prod_{i=1-k..n-k-1} (x + i w) as the shifted falling
    factorial <x + (n-k-1) w | w>_{n-1}: the reference for one entry of
    ``dops.identities._ratio_windows``."""
    w = as_rational(w)
    return shift(falling_factorial(w, n - 1), (n - k - 1) * w)


def ratio_power_closed_form(alpha: RationalLike, beta: RationalLike, n: int) -> Poly:
    """P0_n alone, each window a fresh shift: the reference for the stepped
    windows of ``dops.identities.ratio_power_closed_form``."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    w = alpha - beta
    if n == 0:
        return Poly.one()
    return sum((ratio_window(w, n, k) * Poly.x() * (binomial(n, k) * (-beta) ** k
                                                    * alpha ** (n - k) / w ** n)
                for k in range(n + 1)), Poly.zero())


def ratio_power_stated_form(alpha: RationalLike, beta: RationalLike, n: int) -> Poly:
    """The sz5 stated transcription at n, weights (beta/alpha)**k (-alpha)**n
    on fresh windows; needs alpha != 0."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    w = alpha - beta
    if n == 0:
        return Poly.one()
    return sum((ratio_window(w, n, k) * Poly.x() * (binomial(n, k) * (beta / alpha) ** k
                                                    * (-alpha) ** n)
                for k in range(n + 1)), Poly.zero())


def compositions(weight: int, parts: int):
    """All tuples (k_1..k_parts) of non-negative integers with
    sum i*k_i = weight."""
    if parts == 0:
        if weight == 0:
            yield ()
        return
    for k_last in range(weight // parts + 1):
        for rest in compositions(weight - parts * k_last, parts - 1):
            yield rest + (k_last,)


def composition_sum(values: Sequence[Fraction], weight: int) -> Fraction:
    """The multinomial sum of prod values[i-1]**k_i / k_i! over the tuples
    with sum i*k_i = weight, the t**weight coefficient of exp(sum values[i-1]
    t**i): times weight!, the reference for entry ``weight`` of
    ``dops.ml_suites._exp_coefficients``, which reads the exponent in EGF
    form, i! values[i-1] at t**i."""
    total = Fraction(0)
    for comp in compositions(weight, len(values)):
        term = Fraction(1)
        for c, k in zip(values, comp):
            term *= c ** k / factorial(k)
        total += term
    return total


def sz4_stated_form(params, n: int) -> Poly:
    """The sz4 stated multinomial transcription at n for ml parameters with
    alpha != 0, each window W(n-m, s-m) a fresh shifted falling factorial
    and each composition its own term: the reference for the stepped rows
    the sz4 suite reads."""
    alpha, beta, w, d = params.alpha, params.beta, params.w, params.d
    if n == 0:
        return Poly.one()
    out = Poly.zero()
    for s in range(n + 1):
        for m in range(min(s, n - 1) + 1):
            window = shift(falling_factorial(w, n - m - 1), (n - s - 1) * w)
            for comp in compositions(m, d - 1):
                coef = Fraction(factorial(n), factorial(n - s) * factorial(s - m) * factorial(m))
                for c, k in zip(params.c, comp):
                    coef *= c ** k / factorial(k)
                out = out + window * Poly.x() * (coef * (beta / alpha) ** s * (-alpha) ** n
                                                 * (-beta) ** m)
    return out


def moment_recursion_stated(params, table: MomentTable, n_max: int) -> list:
    """The moment-recursion stated checks (n, left, right, context) for ml
    parameters with alpha != 0: left (n-r)!/r! times the weight-(n-r)
    composition sum in -c_i, right sum_k C(n, k) (beta/alpha)**k (-alpha)**n
    <u_r, x**k>, for r < d and n = r..n_max."""
    alpha, beta = params.alpha, params.beta
    minus_c = [-c for c in params.c]
    checks = []
    for r in range(params.d):
        for n in range(r, n_max + 1):
            left = Fraction(factorial(n - r), factorial(r)) * composition_sum(minus_c, n - r)
            right = sum((binomial(n, k) * (beta / alpha) ** k * (-alpha) ** n * table.moment(r, k)
                         for k in range(r, n + 1)), Fraction(0))
            checks.append((n, Poly.const(left), Poly.const(right), f"stated recursion, r = {r}"))
    return checks


def laguerre_by_recurrence(params, n_max: int) -> list[Poly]:
    """Monic P_0..P_{n_max} of the Laguerre-type family from its explicit
    band recurrence (b_i = 0 for i >= d),

        P_{n+1} = (x + a (theta - beta_exp + 2n) + b_1) P_n
                  - n (a^2 (n - beta_exp - 1) + 2 a b_1 - b_2) P_{n-1}
                  + sum_{i=2..d} n!/(n-i)! [b_{i+1}/i! - 2 a b_i/(i-1)!
                                            + a^2 b_{i-1}/(i-2)!] P_{n-i},

    one Poly term at a time: the reference for the confluent-table route
    ``dops.families.laguerre_type_by_recurrence``."""
    a, beta, theta, b, d = params.a, params.beta_exp, params.theta, params.b_at, params.d
    polys = [Poly.one()]
    for n in range(n_max):
        nxt = Poly((a * (theta - beta + 2 * n) + b(1), 1)) * polys[n]
        if n >= 1:
            nxt = nxt - polys[n - 1] * (n * (a * a * (n - beta - 1) + 2 * a * b(1) - b(2)))
        for i in range(2, min(n, d) + 1):
            bracket = (b(i + 1) / factorial(i) - 2 * a * b(i) / factorial(i - 1)
                       + a * a * b(i - 1) / factorial(i - 2))
            nxt = nxt + polys[n - i] * (math.perm(n, i) * bracket)
        polys.append(nxt)
    return polys


def delta_powers(poly: Poly, w: RationalLike, upto: int) -> list[Poly]:
    """[poly, delta_w poly, ..., delta_w**upto poly], one chain per call: the
    reference for ``FamilySetup.deltas``."""
    out = [poly]
    for _ in range(upto):
        out.append(delta_w(out[-1], w))
    return out


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
    Fraction term at a time: the reference for entry n of the one-pass table
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


def exp_by_convolution(f: list[Poly]) -> list[Poly]:
    """exp(f) in ordinary coefficients for a series with zero constant term,
    solved from g' = f'.g as g_n = sum_{k=1..n} (k/n) f_k g_{n-k}: the
    reference for ``dops.series.egf_exp``, which solves the same equation in
    EGF form with integer weights."""
    if not f[0].is_zero():
        raise ValueError("exp_by_convolution requires a zero constant term")
    out = [Poly.one()]
    for n in range(1, len(f)):
        out.append(lincomb((Fraction(k, n), f[k], out[n - k]) for k in range(1, n + 1)))
    return out


def egf_extract(f: list[Poly]) -> list[Poly]:
    """Read a polynomial sequence out of an exponential generating function:
    the n-th entry is n! times the coefficient of t**n."""
    return [c * factorial(n) for n, c in enumerate(f)]


def series_log(f: list[Poly]) -> list[Poly]:
    """log(f) in ordinary coefficients for a series with constant term 1:
    the inverse of ``dops.series.egf_exp`` once both sides are read in EGF
    form, egf_exp(egf_extract(series_log(f))) == egf_extract(f)."""
    if f[0] != Poly.one():
        raise ValueError("series_log requires constant term exactly 1")
    out = [Poly.zero()]
    for n in range(1, len(f)):
        acc = f[n] * n
        for k in range(1, n):
            hk = out[k]
            if hk.is_zero():
                continue
            acc = acc - (hk * f[n - k]) * k
        out.append(acc / n)
    return out


def series_mul(f: list[Poly], g: list[Poly]) -> list[Poly]:
    """Cauchy product truncated at the shorter operand, each coefficient one
    ``lincomb`` of its products: the product of two generating functions
    that the library builds as one exponential of their summed exponents."""
    return [lincomb((1, f[i], g[m - i]) for i in range(m + 1))
            for m in range(min(len(f), len(g)))]


def series_log1p_scaled(c: RationalLike, order: int) -> list[Poly]:
    """The series of log(1 - c t): sum_{n>=1} -(c**n / n) t**n, the
    two-logarithm reference for ``dops.series.ratio_power_exponent``."""
    c = as_rational(c)
    coeffs = [Poly.zero()]
    power = Fraction(1)
    for n in range(1, order + 1):
        power *= c
        coeffs.append(Poly.const(-power / n))
    return coeffs


def laguerre_by_gf(params, n_max: int) -> list[Poly]:
    """P_0..P_{n_max} of the Laguerre-type family read off its exponent
    written out term by term: x a**(n-1) + theta a**n + b_n/n! at each t**n,
    n >= 1, plus beta_exp log(1 - a t).  The reference for
    ``dops.families.laguerre_type_by_gf``, which reads the same family off
    the confluent ratio-power exponent."""
    a, theta = params.a, params.theta
    logs = series_log1p_scaled(a, n_max)
    exponent = [Poly.zero()]
    apow = Fraction(1)  # a**(n-1) running power
    for n in range(1, n_max + 1):
        exponent.append(Poly((theta * apow * a + params.b_at(n) / factorial(n), apow))
                        + logs[n] * params.beta_exp)
        apow *= a
    return egf_extract(exp_by_convolution(exponent))


def gf_binomial_xw(w: RationalLike, sign_scale: RationalLike, order: int) -> list[Poly]:
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
    return coeffs


def expand_in_basis(q: Poly, basis: Sequence[Poly]) -> list[Fraction]:
    """Top-down ``Poly`` subtraction of a_i basis[i] from q: the reference for
    the integer-numerator ``dops.orthogonality.expand_in_basis``, raising the
    same errors."""
    if q.is_zero():
        return []
    if q.degree >= len(basis):
        raise ValueError(f"need basis elements up to degree {q.degree}, have {len(basis) - 1}")
    for i, p in enumerate(basis[: q.degree + 1]):
        if p.degree != i:
            raise FitError(i, f"basis element {i} has degree {p.degree}, expected {i}")
    out = [Fraction(0)] * (q.degree + 1)
    rest = q
    while not rest.is_zero():
        i = rest.degree
        a = rest.coefficient(i) / basis[i].coefficient(i)
        out[i] = a
        rest = rest - basis[i] * a
        if not rest.is_zero() and rest.degree >= i:
            raise AssertionError("basis expansion failed to reduce degree")
    return out


def moments_by_inversion(polys: Sequence[Poly], d: int) -> MomentTable:
    """Expands every monomial x**k over the basis and reads <u_r, x**k> off
    the coefficient of P_r: the reference for the forward substitution in
    ``dops.orthogonality.moments_by_inversion``."""
    n_max = len(polys) - 1
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d > n_max:
        raise ValueError(f"need degrees through at least d = {d}")
    rows: list[list[Fraction]] = [[] for _ in range(d)]
    for k in range(n_max + 1):
        coeffs = expand_in_basis(Poly([0] * k + [1]), polys)
        coeffs += [Fraction(0)] * (n_max + 1 - len(coeffs))
        for r in range(d):
            rows[r].append(coeffs[r])
    return MomentTable(d=d, n_max=n_max, rows=tuple(over_lcm(row) for row in rows))


def over_lcm(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A row of rationals as integer numerators over the lcm of their
    denominators, the layout of ``MomentTable.rows``."""
    den = math.lcm(*(c.denominator for c in row))
    return tuple(c.numerator * (den // c.denominator) for c in row), den


def verify_d_orthogonality(polys: Sequence[Poly], table: MomentTable, d: int,
                           n_max: int) -> OrthogonalityReport:
    """The orthogonality pattern with each cell paired as the product
    x**m P_n: the reference for the shifted pairings of
    ``dops.orthogonality.verify_d_orthogonality``."""
    if table.d < d:
        raise ValueError("moment table covers fewer functionals than requested")
    checks: list[OrthogonalityCheck] = []
    for r in range(d):
        m = 0
        while m + (m * d + r) <= n_max:
            base = m * d + r
            for n in range(base, min(n_max - m, len(polys) - 1) + 1):
                value = table.apply(r, Poly([0] * m + [1]) * polys[n])
                if n == base:
                    checks.append(OrthogonalityCheck(r, m, n, "nonzero", value, value != 0))
                else:
                    checks.append(OrthogonalityCheck(r, m, n, "zero", value, value == 0))
            m += 1
    return OrthogonalityReport(tuple(checks))
