"""Determinant polynomial: interpolation, factor multiplicities, leading term."""

from fractions import Fraction

import pytest

from hexcount import pathdet
from hexcount import polyfactor as pf
from hexcount.formulas import lower_half_leading_coefficient, pochhammer
from hexcount.pathdet import det_exact, doubled_lower_poly_matrices, lower_poly_matrix


def test_unipoly_arithmetic():
    p = pf.UniPoly.from_coeffs([1, 2, 1, 0])  # (m+1)^2, trailing zero trimmed
    assert p.degree == 2 and p.leading_coefficient() == 1
    assert p(3) == 16 and p(Fraction(-1, 2)) == Fraction(1, 4)
    assert p.coeff_strings() == ["1", "2", "1"]
    zero = pf.UniPoly.from_coeffs([0, 0])
    assert zero.coeffs == () and zero.degree == -1 and zero.leading_coefficient() == 0


def test_interpolation_recovers_polynomials():
    p = pf.UniPoly.from_coeffs([Fraction(1, 3), 0, -2, 5])
    pts = [(x, p(x)) for x in range(-1, 3)]
    assert pf.interpolate(pts) == p
    with pytest.raises(ValueError):
        pf.interpolate([(1, 1), (1, 2)])


def test_interpolated_determinant_evaluates_consistently():
    for n, s in [(1, 0), (2, 0), (3, 1)]:
        p = pf.lower_det_polynomial(n, s)
        for t in (2, 7, Fraction(5, 2)):
            assert p(t) == det_exact(lower_poly_matrix(n, Fraction(t), s))


@pytest.mark.parametrize(
    "n,s", [(1, 0), (2, 0), (2, 1), (4, 1), (6, 0), (6, 5), (9, 0), (9, 8)]
)
def test_integer_nodes_give_the_rational_node_polynomial(n, s):
    # the int evaluation of the node matrices, generic rows doubled, must not
    # change the polynomial; the edges n = 1, n = 2, s = 0 and s = n-1 included
    nodes = range(1, pf.expected_degree(n) + 2)
    rational = pf.interpolate([(t, det_exact(lower_poly_matrix(n, Fraction(t), s))) for t in nodes])
    p = pf.lower_det_polynomial(n, s)
    assert p == rational == pf.closed_product_polynomial(n, s)


def test_int_node_matrices_are_the_polynomial_matrix_with_generic_rows_doubled():
    for n in range(1, 10):
        nodes = range(1, pf.expected_degree(n) + 2)
        for s in range(n):
            for t, matrix in zip(nodes, doubled_lower_poly_matrices(n, s, nodes)):
                want = [
                    [x if i == s else 2 * x for x in row]
                    for i, row in enumerate(lower_poly_matrix(n, t, s))
                ]
                assert all(type(x) is int for row in matrix for x in row)
                assert [list(row) for row in matrix] == want


def test_interpolation_node_stability():
    p = pf.lower_det_polynomial(3, 1)
    shifted = [
        (t, det_exact(lower_poly_matrix(3, Fraction(t), 1)))
        for t in range(10, 10 + pf.expected_degree(3) + 1)
    ]
    assert pf.interpolate(shifted) == p


def test_degree_bound_is_attained():
    for n in range(1, 5):
        for s in range(0, n):
            assert pf.lower_det_polynomial(n, s).degree == pf.expected_degree(n)


def entry_degrees(n, s):
    """The degree in m of each entry of lower_poly_matrix(n, m, s), read from
    its parts: hi - lo, plus 1 for a generic row's factor (2m + half)."""
    degrees = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            _, lo, hi, half = pathdet._lower_poly_parts(n, s, i, j)
            row.append(hi - lo + (half is not None))
        degrees.append(row)
    return degrees


def test_the_degree_bound_is_derived_from_the_entries():
    # entry (i, j) has degree (j - 1) plus a term r_i of its row alone, so
    # every permutation term of the determinant has degree
    # sum_j (j - 1) + sum_i r_i, the bound the interpolation's node count
    # rests on
    for n in range(1, 13):
        for s in range(0, n):
            row_terms = []
            for row in entry_degrees(n, s):
                terms = {d - j for j, d in enumerate(row)}
                assert len(terms) == 1, (n, s, row)
                row_terms += terms
            assert sum(range(n)) + sum(row_terms) == pf.expected_degree(n), (n, s)


def test_constant_case():
    p = pf.lower_det_polynomial(1, 0)
    assert p.degree == 0 and p(0) == 1


def test_half_factor_requirements_table():
    assert pf.half_factor_requirements(2) == []
    assert pf.half_factor_requirements(4) == [(1, 1), (2, 1)]
    assert pf.half_factor_requirements(6) == [(1, 1), (2, 2), (3, 2), (4, 1)]


def test_integer_factor_requirements_table():
    # n=1, s=0: both corrections land on distinct k, leaving nothing required
    assert pf.integer_factor_requirements(1, 0) == [(0, 0), (1, 0)]
    # n=3, s=1: base exponent min(3,2)=2 at k=2, lowered by the k=n-s division
    assert dict(pf.integer_factor_requirements(3, 1))[2] == 1
    assert pf.root_multiplicity(pf.lower_det_polynomial(3, 1), -2) == 1
    # away from the corrected indices the base exponent is required in full
    assert dict(pf.integer_factor_requirements(5, 1))[2] == 3
    assert pf.root_multiplicity(pf.lower_det_polynomial(5, 1), -2) == 3


def test_factor_reports_meet_requirements():
    for n in range(1, 5):
        for s in range(0, n):
            p = pf.lower_det_polynomial(n, s)
            half = pf.half_integer_factor_report(p, n)
            integer = pf.integer_factor_report(p, n, s)
            assert half.ok and integer.ok
            required = [req for _, _, req, _ in half.factors + integer.factors]
            assert sum(required) == p.degree


def test_reported_multiplicities_are_exact():
    p = pf.lower_det_polynomial(4, 1)
    for _, root, _, actual in pf.half_integer_factor_report(p, 4).factors:
        # multiplicity k: p and its first k-1 derivatives vanish at the root, the k-th does not
        cs = list(p.coeffs)
        for _ in range(actual):
            assert pf.UniPoly.from_coeffs(cs)(root) == 0
            cs = [d * c for d, c in enumerate(cs)][1:]
        assert pf.UniPoly.from_coeffs(cs)(root) != 0


def test_multiplicity_requirement_example_n4_s1():
    p = pf.lower_det_polynomial(4, 1)
    report = {d: act for d, _, _, act in pf.half_integer_factor_report(p, 4).factors}
    assert report["(m+1+1/2)"] >= 1
    assert report["(m+2+1/2)"] >= 1


def test_leading_coefficient_small_cases():
    assert lower_half_leading_coefficient(1, 0) == 1
    for n, s in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)]:
        p = pf.lower_det_polynomial(n, s)
        assert pf.leading_coefficient_check(p, n, s)


def test_leading_coefficient_vandermonde_route():
    # replacing entries by leading coefficients gives (x_i + n + j)_{n-j}
    # whose determinant is the Vandermonde product of the x_i
    for n, s in [(2, 0), (3, 1), (4, 2), (5, 1)]:
        x = [None] + [1 - 2 * s if i == s + 1 else 2 - 2 * i for i in range(1, n + 1)]
        rows = tuple(
            tuple(Fraction(pochhammer(x[i] + n + j, n - j)) for j in range(1, n + 1))
            for i in range(1, n + 1)
        )
        vandermonde = Fraction(1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                vandermonde *= x[i] - x[j]
        assert det_exact(rows) == vandermonde


def test_closed_product_matches_polynomial():
    for n in range(1, 5):
        for s in range(0, n):
            assert pf.closed_product_matches_polynomial(pf.lower_det_polynomial(n, s), n, s)


def test_failure_is_reported_not_hidden():
    # a wrong polynomial must produce a failing report, not an exception
    p = pf.UniPoly.from_coeffs([1, 1])
    assert not pf.integer_factor_report(p, 3, 1).ok


def test_range_validation():
    with pytest.raises(ValueError):
        pf.lower_det_polynomial(3, 3)
