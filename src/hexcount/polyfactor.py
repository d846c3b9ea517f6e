"""The lower-half determinant as a polynomial in m: interpolation and factors.

The determinant of `lower_poly_matrix(n, m, s)` is a polynomial in m of degree
exactly C(n+1,2) - 1.  This module recovers it by exact Lagrange/Newton
interpolation at integer nodes, then checks the three facts that pin it down
completely:

  * every half-integer factor (m + k + 1/2), k = 1..n-2, divides it with
    multiplicity at least min(k, n-1-k);
  * every integer factor (m + k), k = 0..n, divides it with multiplicity at
    least min(k+1, n-k+1), reduced by one at k = s and at k = n-s;
  * the leading coefficient is 2^C(n-1,2) h(n) (2n-2s-1)!! (2s-1)!!
    / ((n-s-1)! s!).

Since the factor multiplicities sum to the degree, those facts force the
closed product form, and `closed_product_matches_polynomial` confirms the
full coefficient-by-coefficient equality.  Like the factor reports and the
leading-coefficient check, it takes the interpolated polynomial as its first
argument, so a caller interpolates once and runs every check on that one
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .formulas import lower_half_leading_coefficient
from .pathdet import det_exact, lower_poly_matrix


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over the rationals, coefficients ascending."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(cs: Iterable) -> "UniPoly":
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly.from_coeffs([c])

    @staticmethod
    def linear(c0, c1=1) -> "UniPoly":
        """c1*m + c0, defaulting to a monic linear factor m + c0."""
        return UniPoly.from_coeffs([c0, c1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly.from_coeffs(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly.from_coeffs(out)
        return UniPoly.from_coeffs([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, divisor: "UniPoly") -> tuple:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, lead = divisor.degree, divisor.leading_coefficient()
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            q = rem[i + dd] / lead
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return UniPoly.from_coeffs(quot), UniPoly.from_coeffs(rem[:dd])

    def coeff_strings(self) -> list:
        """Exact coefficients as strings, degree-ascending."""
        return [str(c) for c in self.coeffs]


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """The unique polynomial through the given (x, y) points, via Newton's
    divided differences in exact arithmetic."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = UniPoly.constant(0)
    basis = UniPoly.constant(1)
    for i, c in enumerate(coeffs):
        poly = poly + basis * c
        if i < len(points) - 1:
            basis = basis * UniPoly.linear(-xs[i])
    return poly


# ---------------------------------------------------------------------------
# the determinant polynomial and its factor structure
# ---------------------------------------------------------------------------

def expected_degree(n: int) -> int:
    return math.comb(n + 1, 2) - 1


def lower_det_polynomial(n: int, s: int) -> UniPoly:
    """det of the lower-half polynomial matrix as a polynomial in m.

    Interpolated at the integer nodes m = 1, 2, ..., which avoid every root
    of the determinant; the degree bound C(n+1,2)-1 fixes the node count.
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    nodes = expected_degree(n) + 1
    pts = [(t, det_exact(lower_poly_matrix(n, t, s))) for t in range(1, nodes + 1)]
    poly = interpolate(pts)
    if poly.degree > expected_degree(n):
        raise ArithmeticError("determinant degree exceeds the degree bound")
    return poly


def root_multiplicity(p: UniPoly, root) -> int:
    """Multiplicity of (m - root) in p, by repeated exact division."""
    root = Fraction(root)
    mult = 0
    divisor = UniPoly.linear(-root)
    while not p.is_zero():
        q, r = p.divmod(divisor)
        if not r.is_zero():
            break
        mult += 1
        p = q
    return mult


@dataclass(frozen=True)
class FactorReport:
    """Required vs actual multiplicities for a family of linear factors."""

    factors: tuple  # (description, root, required, actual) rows

    @property
    def ok(self) -> bool:
        return all(actual >= required for _, _, required, actual in self.factors)

    def total_required(self) -> int:
        return sum(required for _, _, required, _ in self.factors)

    def lines(self) -> list:
        return [
            f"{desc}: multiplicity {actual} (requires >= {required})"
            for desc, _, required, actual in self.factors
        ]


def half_factor_requirements(n: int) -> list:
    """(k, exponent) for the half-integer factors (m+k+1/2), k = 1..n-2."""
    return [(k, min(k, n - 1 - k)) for k in range(1, n - 1)]


def integer_factor_requirements(n: int, s: int) -> list:
    """(k, exponent) for the integer factors (m+k), k = 0..n.

    The base exponent min(k+1, n-k+1) drops by one at k = s and k = n-s,
    where the closed form divides out (m+s)(m+n-s).
    """
    out = []
    for k in range(0, n + 1):
        req = min(k + 1, n - k + 1) - (k == s) - (k == n - s)
        out.append((k, req))
    return out


def half_integer_factor_report(p: UniPoly, n: int, s: int) -> FactorReport:
    """Check each (m + k + 1/2) divides p with its required multiplicity."""
    rows = []
    for k, req in half_factor_requirements(n):
        root = -Fraction(2 * k + 1, 2)
        rows.append((f"(m+{k}+1/2)", root, req, root_multiplicity(p, root)))
    return FactorReport(tuple(rows))


def integer_factor_report(p: UniPoly, n: int, s: int) -> FactorReport:
    """Check each (m + k) divides p with its required multiplicity."""
    rows = []
    for k, req in integer_factor_requirements(n, s):
        rows.append((f"(m+{k})", -Fraction(k), req, root_multiplicity(p, root=-Fraction(k))))
    return FactorReport(tuple(rows))


def leading_coefficient_check(p: UniPoly, n: int, s: int) -> bool:
    """Leading coefficient against 2^C(n-1,2) h(n) (2n-2s-1)!! (2s-1)!! / ((n-s-1)! s!)."""
    return p.leading_coefficient() == lower_half_leading_coefficient(n, s)


def closed_product_polynomial(n: int, s: int) -> UniPoly:
    """The closed form for the determinant, assembled as a polynomial."""
    poly = UniPoly.constant(lower_half_leading_coefficient(n, s))
    for k, req in half_factor_requirements(n):
        for _ in range(req):
            poly = poly * UniPoly.linear(Fraction(2 * k + 1, 2))
    for k, req in integer_factor_requirements(n, s):
        for _ in range(req):
            poly = poly * UniPoly.linear(Fraction(k))
    return poly


def closed_product_matches_polynomial(p: UniPoly, n: int, s: int) -> bool:
    """The interpolated determinant p == leading constant times all linear factors."""
    return p == closed_product_polynomial(n, s)
