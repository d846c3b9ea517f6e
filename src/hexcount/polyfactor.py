"""The lower-half determinant as a polynomial in m: interpolation and factors.

The determinant of `lower_poly_matrix(n, m, s)` is a polynomial in m of degree
exactly C(n+1,2) - 1.  This module recovers it by exact Newton interpolation
at integer nodes, then checks the three facts that pin it down completely:

  * every half-integer factor (m + k + 1/2), k = 1..n-2, divides it with
    multiplicity at least min(k, n-1-k);
  * every integer factor (m + k), k = 0..n, divides it with multiplicity at
    least min(k+1, n-k+1), reduced by one at k = s and at k = n-s;
  * the leading coefficient is 2^C(n-1,2) h(n) (2n-2s-1)!! (2s-1)!!
    / ((n-s-1)! s!).

The two exponent tables and the leading coefficient are read from
`formulas` (`half_factor_requirements`, `integer_factor_requirements`,
`lower_half_leading_coefficient`), the very tables `lower_half_det_closed`
multiplies, so these checks certify the closed form itself.

Since the factor multiplicities sum to the degree, those facts force the
closed product form, and `closed_product_matches_polynomial` confirms the
full coefficient-by-coefficient equality.  Like the factor reports and the
leading-coefficient check, it takes the interpolated polynomial as its first
argument, so a caller interpolates once and runs every check on that one
polynomial.

The node matrices are `pathdet.doubled_lower_poly_matrices`: ints, with the
generic rows at twice their value, so each node's determinant is divided by
2^(n-1) once.  The kernels compute on int numerators over a shared
denominator and build one `Fraction` per coefficient: `interpolate` takes
divided differences over a common denominator and expands the Newton form
by Horner's rule in ints, `root_multiplicity` counts repeated synthetic
divisions of an integer polynomial, and `closed_product_polynomial`
multiplies integer linear factors into one coefficient list in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .formulas import (
    half_factor_requirements,
    integer_factor_requirements,
    lower_half_leading_coefficient,
    over_common_denominator,
)
from .pathdet import det_exact, doubled_lower_poly_matrices


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

    def coeff_strings(self) -> list:
        """Exact coefficients as strings, degree-ascending."""
        return [str(c) for c in self.coeffs]


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """The unique polynomial through the given (x, y) points, exactly.

    The nodes x = u/D and values y = v/E are put over common denominators,
    so Q(t) = p(t/D) is interpolated at the integer nodes u.  Newton's
    divided differences keep each level over one common denominator (E
    times the lcm of each level's node gaps so far), and a Horner expansion
    of the Newton form gives Q's monomial coefficients over one denominator
    in ints.  Each coefficient of p(x) = Q(Dx) is then one `Fraction`.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    if not points:
        return UniPoly(())
    ys = [Fraction(y) for _, y in points]
    us, D = over_common_denominator(*xs)
    diffs, E = over_common_denominator(*ys)
    # Newton coefficient `level` is newton[level] / dens[level]
    newton, dens = [diffs[0]], [E]
    for level in range(1, len(us)):
        gaps = [us[i] - us[i - level] for i in range(level, len(us))]
        step = math.lcm(*gaps)
        diffs = [(b - a) * (step // g) for a, b, g in zip(diffs, diffs[1:], gaps)]
        newton.append(diffs[0])
        dens.append(dens[-1] * step)
    den = dens[-1]
    q = [newton[-1]]
    for level in range(len(us) - 2, -1, -1):
        # q <- q * (t - u_level) + newton coefficient, over den
        u = us[level]
        q.append(0)
        for d in range(len(q) - 1, 0, -1):
            q[d] = q[d - 1] - u * q[d]
        q[0] = newton[level] * (den // dens[level]) - u * q[0]
    return UniPoly.from_coeffs(Fraction(c * D**d, den) for d, c in enumerate(q))


# ---------------------------------------------------------------------------
# the determinant polynomial and its factor structure
# ---------------------------------------------------------------------------

def expected_degree(n: int) -> int:
    return math.comb(n + 1, 2) - 1


def lower_det_polynomial(n: int, s: int) -> UniPoly:
    """det of the lower-half polynomial matrix as a polynomial in m.

    Interpolated at the integer nodes m = 1, 2, ..., which avoid every root
    of the determinant; the degree bound C(n+1,2)-1 fixes the node count, so
    the interpolant's degree cannot exceed it.
    Each node matrix is built in ints with its n-1 generic rows doubled, so
    each determinant is divided by 2^(n-1) once.
    """
    nodes = range(1, expected_degree(n) + 2)
    scale = 2 ** (n - 1)
    pts = [
        (t, det_exact(matrix) / scale)
        for t, matrix in zip(nodes, doubled_lower_poly_matrices(n, s, nodes))
    ]
    return interpolate(pts)


def root_multiplicity(p: UniPoly, root) -> int:
    """Multiplicity of (m - root) in p; 0 for the zero polynomial.

    With root = a/q, p(a/q) = 0 exactly when y = a is a root of the integer
    polynomial L q^deg p(y/q), L the lcm of p's denominators; so the
    multiplicity is counted by repeated synthetic division by (y - a), which
    stays in ints and needs no division at all.
    """
    a, q = Fraction(root).as_integer_ratio()
    nums, _ = over_common_denominator(*p.coeffs)
    deg = p.degree
    cs = [c * q ** (deg - d) for d, c in enumerate(nums)]
    mult = 0
    while cs:
        # Horner from the top: the running values are the quotient's coefficients
        acc = 0
        quot = []
        for c in reversed(cs):
            acc = acc * a + c
            quot.append(acc)
        if quot.pop():
            break
        mult += 1
        cs = quot[::-1]
    return mult


@dataclass(frozen=True)
class FactorReport:
    """Required vs actual multiplicities for a family of linear factors."""

    factors: tuple  # (description, root, required, actual) rows

    @property
    def ok(self) -> bool:
        return all(actual >= required for _, _, required, actual in self.factors)

    def lines(self) -> list:
        return [
            f"{desc}: multiplicity {actual} (requires >= {required})"
            for desc, _, required, actual in self.factors
        ]


def _factor_report(p: UniPoly, table: list, h: int) -> FactorReport:
    """The row of each (k, required) of table for the factor (m + k + h/2)."""
    tag = "+1/2" if h else ""
    return FactorReport(tuple((f"(m+{k}{tag})", root, req, root_multiplicity(p, root))
                              for k, req in table for root in (Fraction(-2 * k - h, 2),)))


def half_integer_factor_report(p: UniPoly, n: int) -> FactorReport:
    """Check each (m + k + 1/2) divides p with its required multiplicity."""
    return _factor_report(p, half_factor_requirements(n), 1)


def integer_factor_report(p: UniPoly, n: int, s: int) -> FactorReport:
    """Check each (m + k) divides p with its required multiplicity."""
    return _factor_report(p, integer_factor_requirements(n, s), 0)


def leading_coefficient_check(p: UniPoly, n: int, s: int) -> bool:
    """Leading coefficient against 2^C(n-1,2) h(n) (2n-2s-1)!! (2s-1)!! / ((n-s-1)! s!)."""
    return p.leading_coefficient() == lower_half_leading_coefficient(n, s)


def closed_product_polynomial(n: int, s: int) -> UniPoly:
    """The closed form for the determinant, assembled as a polynomial.

    The factors (m+k+1/2) enter as the integer factors (2m+2k+1), multiplied
    into an int coefficient list in place; the leading coefficient and the
    2^-h they owe (h half-integer factors) divide out once per coefficient.
    """
    factors = [(2, 2 * k + 1) for k, req in half_factor_requirements(n) for _ in range(req)]
    halves = len(factors)
    factors += [(1, k) for k, req in integer_factor_requirements(n, s) for _ in range(req)]
    cs = [1]
    for a, b in factors:
        # cs <- cs * (a m + b)
        cs.append(0)
        for d in range(len(cs) - 1, 0, -1):
            cs[d] = a * cs[d - 1] + b * cs[d]
        cs[0] *= b
    lead = lower_half_leading_coefficient(n, s)
    den = lead.denominator << halves
    return UniPoly.from_coeffs(Fraction(lead.numerator * c, den) for c in cs)


def closed_product_matches_polynomial(p: UniPoly, n: int, s: int) -> bool:
    """The interpolated determinant p == leading constant times all linear factors."""
    return p == closed_product_polynomial(n, s)
