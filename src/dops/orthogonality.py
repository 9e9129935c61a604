"""Recurrence fitting, regularity analysis, dual-functional moments, and the
orthogonality pattern checks built on them.

A monic sequence of degrees 0..N determines at most one band recurrence of a
given bandwidth; fitting is a triangular solve done by expanding the defect
x P_n - P_{n+1} back in the P basis, so it is exact and needs no pivoting.
Moments of the dual functionals come from forward substitution through the
(lower triangular) coefficient matrix of the sequence, over one running
denominator, which is likewise exact and works whether or not the sequence
is regular; non-regularity is something these tools report, never a reason
to fail.  Expansion, moments and the pattern's pairings all run on the
integer numerators of each ``Poly``, with no ``Poly`` arithmetic per step.
The regularity and pattern checks read d and N from the table they are
given, so each covers exactly the range its table was fitted or inverted
over; the quasi-orthogonality order reads expansions made once by the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polynomials import Poly, Record, Row, lincomb

__all__ = [
    "FitError",
    "RecurrenceTable",
    "MomentTable",
    "OrthogonalityCheck",
    "OrthogonalityReport",
    "fit_recurrence",
    "check_regularity",
    "moments_by_inversion",
    "verify_d_orthogonality",
    "expand_in_basis",
    "quasi_orthogonality_order",
]

_ZERO = Fraction(0)


class FitError(ValueError):
    """The input sequence does not have the shape a fit needs (element i of
    degree i, and monic for a recurrence), or satisfies no band recurrence of
    the requested bandwidth; ``index`` is the first element or step at fault."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _check_graded(basis: Sequence[Poly]) -> None:
    for i, p in enumerate(basis):
        if p.degree != i:
            raise FitError(i, f"basis element {i} has degree {p.degree}, expected {i}")


def expand_in_basis(q: Poly | Row, basis: Sequence[Poly]) -> Poly:
    """The exact coordinates a_i with q = sum a_i basis[i], as the Poly whose
    coefficient i is a_i (the zero Poly for q = 0); q is any integer row,
    a ``Poly`` or an unreduced ``Row``.

    The basis must be graded (degree of basis[i] is exactly i) with nonzero
    leading coefficients; monic is the common case but not required.  The
    remainder is integer numerators ``rest`` over one running denominator,
    which grows by a factor of basis[i]'s leading numerator over its gcd
    with rest[i] at each nonzero step; coordinate i is kept over the
    denominator of its step and rescaled to the last one at the end.
    """
    rest, den = list(q.nums), q.den
    while rest and not rest[-1]:
        rest.pop()
    top = len(rest) - 1
    if top < 0:
        return Poly.zero()
    if top >= len(basis):
        raise ValueError(f"need basis elements up to degree {top}, have {len(basis) - 1}")
    _check_graded(basis[: top + 1])
    found = []
    for i in range(top, -1, -1):
        r = rest.pop()
        if r:
            p = basis[i]
            lead = p.nums[i]
            g = math.gcd(r, lead)
            r, lead = (r // g, lead // g) if lead > 0 else (-r // g, -lead // g)
            if lead == 1:
                rest = [c - r * b for c, b in zip(rest, p.nums)]
            else:
                rest = [c * lead - r * b for c, b in zip(rest, p.nums)]
                den *= lead
            found.append((i, r * p.den, den))
    out = [0] * (top + 1)
    for i, a, step_den in found:
        out[i] = a * (den // step_den)
    return Poly._make(out, den)


class RecurrenceTable(Record):
    """Coefficients of the band recurrence

        P_{n+1} = (x - beta_n) P_n - sum_{nu=0..d-1} gamma_{n-nu}^{d-1-nu} P_{n-1-nu}

    for a monic sequence of degrees 0..n_max, either fitted to the sequence
    or written down by a family's construction.  ``gamma`` maps the pair
    (subscript m, superscript k) to the stored value; each pair enters
    exactly one step.  The superscript-0 class carries the regularity
    conditions gamma_{m+1}^0 != 0.  ``step`` is the one place a band
    recurrence is run.  The hash leaves the unhashable ``gamma`` dict out.
    """

    __slots__ = ("d", "n_max", "beta", "gamma")
    _fields = __slots__

    def __init__(self, d: int, n_max: int, beta: tuple[Fraction, ...], gamma: dict[tuple[int, int], Fraction]):
        self.d, self.n_max, self.beta, self.gamma = d, n_max, beta, gamma

    def __hash__(self):
        return hash((self.d, self.n_max, self.beta))

    def gamma_at(self, m: int, k: int) -> Fraction:
        try:
            return self.gamma[(m, k)]
        except KeyError:
            raise ValueError(f"gamma with subscript {m} and superscript {k} is outside the fitted range") from None

    def step(self, polys: Sequence[Poly], n: int) -> Poly:
        """P_{n+1} from the recurrence at step n, reading P_{n-d}..P_n from polys."""
        return lincomb([(1, Poly((-self.beta[n], 1)), polys[n]),
                        *((-self.gamma_at(n - nu, self.d - 1 - nu), polys[n - 1 - nu])
                          for nu in range(min(self.d, n)))])

    def regenerate(self) -> list[Poly]:
        """Run the recurrence from P_0 = 1; reproduces a fitted input."""
        polys = [Poly.one()]
        for n in range(self.n_max):
            polys.append(self.step(polys, n))
        return polys


def fit_recurrence(polys: Sequence[Poly], d: int) -> RecurrenceTable:
    """Solve exactly for the band recurrence reproducing a monic sequence.

    Each step n expands x P_n - P_{n+1} over the basis P_0..P_n; the top
    coefficient is beta_n, the next d are the gamma values, and anything
    below the band is an inconsistency (the sequence satisfies no such
    recurrence), reported with the failing step index.
    """
    n_max = len(polys) - 1
    if d < 1:
        raise ValueError("d must be a positive integer")
    if n_max < d + 1:
        raise ValueError(f"need degrees through {d + 1} to fit a bandwidth-{d + 2} recurrence")
    for i, p in enumerate(polys):
        if p.degree != i or not p.is_monic():
            raise FitError(i, f"input element {i} is not monic of degree {i}")
    beta: list[Fraction] = []
    gamma: dict[tuple[int, int], Fraction] = {}
    for n in range(n_max):
        defect = lincomb(((1, Poly.x(), polys[n]), (-1, polys[n + 1])))
        coords = expand_in_basis(defect, polys)
        beta.append(coords.coefficient(n))
        for nu in range(min(d, n)):
            gamma[(n - nu, d - 1 - nu)] = coords.coefficient(n - 1 - nu)
        for j, c in enumerate(coords.nums[:max(n - d, 0)]):
            if c:
                raise FitError(n, f"no bandwidth-{d + 2} recurrence: step {n} leaves "
                                  f"a nonzero component on P_{j}")
    return RecurrenceTable(d=d, n_max=n_max, beta=tuple(beta), gamma=gamma)


def check_regularity(table: RecurrenceTable) -> list[int]:
    """Indices m = 0..n_max - 1 - d with gamma_{m+1}^0 = 0, the whole range
    the table was fitted over.

    An empty list means the fitted sequence is d-orthogonal through that
    range; a non-empty list is a report, not an error.
    """
    return [m for m in range(table.n_max - table.d) if table.gamma_at(m + 1, 0) == 0]


class MomentTable(Record):
    """Moments <u_r, x**k> of the first d dual functionals of a monic
    sequence, through degree n_max.  ``rows[r]`` is functional r's moments as
    integer numerators over the lcm of their denominators."""

    __slots__ = _fields = ("d", "n_max", "rows")

    def __init__(self, d: int, n_max: int, rows: tuple[tuple[tuple[int, ...], int], ...]):
        self.d, self.n_max, self.rows = d, n_max, rows

    def moment(self, r: int, k: int) -> Fraction:
        if not 0 <= r < self.d:
            raise ValueError(f"functional index {r} out of range 0..{self.d - 1}")
        if not 0 <= k <= self.n_max:
            raise ValueError(f"moment degree {k} outside the computed range 0..{self.n_max}")
        nums, den = self.rows[r]
        return Fraction(nums[k], den)

    def apply(self, r: int, q: Poly, shift: int = 0) -> Fraction:
        """<u_r, x**shift q> inside the degree budget: one integer dot product
        of q's numerators with the moment numerators from ``shift`` on.  A
        zero pairing, the common case, is one shared ``Fraction(0)``."""
        if q.degree + shift > self.n_max:
            raise ValueError(f"degree {q.degree + shift} exceeds the moment budget {self.n_max}")
        nums, den = self.rows[r]
        num = sum(map(mul, q.nums, nums[shift:]))
        return Fraction(num, q.den * den) if num else _ZERO


def moments_by_inversion(polys: Sequence[Poly], d: int) -> MomentTable:
    """Dual-functional moments m_r(k) = <u_r, x**k> by forward substitution,
    m_r(n) = (delta_rn - sum_{j<n} a_nj m_r(j)) / a_nn, on integer numerators
    over the lcm of each row's denominators: O(d N**2), for any graded basis.
    """
    n_max = len(polys) - 1
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d > n_max:
        raise ValueError(f"need degrees through at least d = {d}")
    _check_graded(polys)
    rows = []
    for r in range(d):
        nums, den = [], 1
        for n, p in enumerate(polys):
            m = Fraction((p.den * den if n == r else 0) - sum(map(mul, p.nums, nums)),
                         den * p.nums[n])
            if den % m.denominator:
                up = m.denominator // math.gcd(den, m.denominator)
                nums, den = [c * up for c in nums], den * up
            nums.append(m.numerator * (den // m.denominator))
        rows.append((tuple(nums), den))
    return MomentTable(d=d, n_max=n_max, rows=tuple(rows))


class OrthogonalityCheck(Record):
    """One (r, m, n) cell of the orthogonality pattern: ``kind`` is "zero"
    for the vanishing conditions and "nonzero" for the regularity ones."""

    __slots__ = _fields = ("r", "m", "n", "kind", "value", "ok")

    def __init__(self, r: int, m: int, n: int, kind: str, value: Fraction, ok: bool):
        self.r, self.m, self.n, self.kind, self.value, self.ok = r, m, n, kind, value, ok


class OrthogonalityReport(Record):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: tuple[OrthogonalityCheck, ...]):
        self.checks = checks

    @property
    def zero_failures(self) -> list[OrthogonalityCheck]:
        return [c for c in self.checks if c.kind == "zero" and not c.ok]

    @property
    def regularity_failures(self) -> list[OrthogonalityCheck]:
        return [c for c in self.checks if c.kind == "nonzero" and not c.ok]


def verify_d_orthogonality(polys: Sequence[Poly], table: MomentTable) -> OrthogonalityReport:
    """Check the full orthogonality pattern of the table's d functionals within
    its degree budget N = table.n_max, for the sequence the moments were
    inverted from: <u_r, x**m P_n> = 0 whenever n >= m d + r + 1, and != 0 at
    n = m d + r, for every m + n <= N."""
    d, n_max = table.d, table.n_max
    checks: list[OrthogonalityCheck] = []
    for r in range(d):
        for m in range((n_max - r) // (d + 1) + 1):  # while m + (m d + r) <= n_max
            base = m * d + r
            for n in range(base, n_max - m + 1):
                value = table.apply(r, polys[n], m)
                kind = "nonzero" if n == base else "zero"
                checks.append(OrthogonalityCheck(r, m, n, kind, value, (value != 0) == (n == base)))
    return OrthogonalityReport(tuple(checks))


def quasi_orthogonality_order(expansions: Sequence[Poly], d: int) -> tuple[int, bool]:
    """Smallest l such that every expansion, element n's ``expand_in_basis``
    coordinates over a graded basis, has support inside [n - d*l, n], plus
    whether that order is exact.

    The order is exact when the bottom coordinate a_{n, n-d*l} is nonzero
    for every checked n >= d*l; otherwise the sequence is quasi-orthogonal of
    order at most l.  Only the integer numerators are read.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    l = 0
    for n, coords in enumerate(expansions):
        nums = coords.nums
        if len(nums) != n + 1:
            raise ValueError(f"element {n} has degree {len(nums) - 1}; the sequence must be graded")
        low = next(i for i, c in enumerate(nums) if c)
        l = max(l, -((low - n) // d))  # ceil((n - low) / d)
    return l, all(coords.nums[n - d * l] for n, coords in enumerate(expansions) if n >= d * l)
