"""The integer kernels against naive `Fraction` references kept here.

Each kernel computes on int numerators over a shared denominator and builds
one `Fraction` per result.  The references below compute the same objects the
plain way, one `Fraction` operation at a time, and by independent algorithms
where that is cheap (Leibniz expansion, Lagrange interpolation).  Examples
are drawn deterministically (`derandomize=True`, no example database).
"""

import contextlib
import io
import math
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexcount import cli, hyperid, pathdet, polyfactor, routes
from hexcount.formulas import lower_half_leading_coefficient, pochhammer


def seeded(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


# --- naive references ----------------------------------------------------------

def ref_pochhammer(a, k):
    if k < 0:
        denom = ref_pochhammer(a + k, -k)
        if denom == 0:
            raise ValueError("pole")
        return 1 / denom
    out = Fraction(1)
    for t in range(k):
        out *= a + t
    return out


def ref_terminating_sum(upper, lower, terms):
    total, term = Fraction(0), Fraction(1)
    for t in range(terms + 1):
        total += term
        num, den = Fraction(1), Fraction(t + 1)
        for a in upper:
            num *= a + t
        for c in lower:
            den *= c + t
        if den == 0:
            if num == 0:
                break
            raise ValueError("zero denominator")
        term = term * num / den
    return total


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_interpolate(points):
    """Lagrange form, expanded one Fraction operation at a time."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [c / (xi - xj) for c in poly_mul(basis, [-xj, Fraction(1)])]
        total = [a + b for a, b in zip(total, basis)]
    return strip(total)


def ref_root_multiplicity(coeffs, root):
    """Repeated division by (m - root) in Fractions."""
    cs, mult = strip(coeffs), 0
    while cs:
        quot, acc = [], Fraction(0)
        for c in reversed(cs):
            acc = acc * root + c
            quot.append(acc)
        if quot.pop() != 0:
            break
        mult += 1
        cs = tuple(reversed(quot))
    return mult


def ref_det_leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def ref_bareiss(rows):
    """Plain Bareiss: every row rewritten at every step, no reorientation."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = 1
    a = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        a.append([x.numerator * (den // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row = a[k][k + 1:]
        pivot = a[k][k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            tail = []
            for x, y in zip(row[k + 1:], pivot_row):
                q, rem = divmod(x * pivot - lead * y, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                tail.append(q)
            row[k:] = [0] + tail
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def ref_det_gauss(matrix):
    """Gaussian elimination in Fractions, for matrices too large for Leibniz."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def ref_closed_product(n, s):
    cs = [lower_half_leading_coefficient(n, s)]
    for k, req in polyfactor.half_factor_requirements(n):
        for _ in range(req):
            cs = poly_mul(cs, [Fraction(2 * k + 1, 2), Fraction(1)])
    for k, req in polyfactor.integer_factor_requirements(n, s):
        for _ in range(req):
            cs = poly_mul(cs, [Fraction(k), Fraction(1)])
    return polyfactor.UniPoly.from_coeffs(cs)


# --- pochhammer and terminating_sum -------------------------------------------------

def outcome(fn, *args):
    """The value, or "raises" for a ValueError (a pole or a zero denominator)."""
    try:
        return fn(*args)
    except ValueError:
        return "raises"


@seeded(200)
@given(rationals, st.integers(-6, 8))
@example(Fraction(7, 3), 0)
@example(Fraction(-5, 2), -3)
@example(Fraction(2), -3)   # (2)_(-3) = 1/((-1)(0)(1)): a pole
@example(Fraction(-3), 5)   # a zero factor
def test_pochhammer_at_fractions_matches_reference(a, k):
    got = outcome(pochhammer, a, k)
    assert got == outcome(ref_pochhammer, a, k)
    if got != "raises":
        assert isinstance(got, Fraction)


@st.composite
def hypergeom_specs(draw):
    terms = draw(st.integers(0, 7))
    upper = [Fraction(-draw(st.integers(0, terms)))] + draw(st.lists(rationals, max_size=2))
    lower = draw(st.lists(rationals, max_size=2))
    try:
        spec = hyperid.HypergeomSpec(tuple(upper), tuple(lower), terms)
    except ValueError:
        assume(False)
    return spec


@seeded(200)
@given(hypergeom_specs())
@example(hyperid.HypergeomSpec((Fraction(-3),), (Fraction(-3),), 3))  # zero denominator
@example(hyperid.HypergeomSpec((Fraction(0), Fraction(5, 2)), (Fraction(1, 3),), 4))
def test_terminating_sum_matches_reference(spec):
    want = outcome(ref_terminating_sum, spec.upper, spec.lower, spec.termination)
    assert outcome(hyperid.terminating_sum, spec) == want


def ref_vandermonde_check(a, n, c):
    lhs = ref_terminating_sum((a, Fraction(-n)), (c,), n)
    return lhs == ref_pochhammer(c - a, n) / ref_pochhammer(c, n)


def ref_pfaff_saalschuetz_check(a, b, n, c):
    lhs = ref_terminating_sum((a, b, Fraction(-n)), (c, 1 + a + b - c - n), n)
    return lhs == ref_pochhammer(c - a, n) * ref_pochhammer(c - b, n) / (
        ref_pochhammer(c, n) * ref_pochhammer(c - a - b, n)
    )


def identities_json(suite, seed):
    out = io.StringIO()
    argv = ["identities", "--suite", suite, "--max-n", "7", "--count", "400", "--seed", str(seed)]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_identities_json_equals_fraction_reference_checks(monkeypatch):
    # the benchmark's identity seeds; the patched checks are only called by
    # the two summation suites, so the matrix suites run once, under "all"
    runs = [("all", 1)]
    runs += [(suite, seed) for seed in range(1, 17) for suite in ("vandermonde", "pfaff")]
    fast = [identities_json(*run) for run in runs]
    monkeypatch.setattr(hyperid, "vandermonde_check", ref_vandermonde_check)
    monkeypatch.setattr(hyperid, "pfaff_saalschuetz_check", ref_pfaff_saalschuetz_check)
    assert [identities_json(*run) for run in runs] == fast


def test_summation_checks_fail_on_a_wrong_product_side(monkeypatch):
    real = hyperid._rising
    # each pochhammer off by a factor that depends on it, and never 0
    monkeypatch.setattr(hyperid, "_rising", lambda x, den, n: real(x, den, n) * (x * x + 1))
    assert hyperid.run_vandermonde_suite(50, seed=1)["failures"]
    assert hyperid.run_pfaff_suite(50, seed=1)["failures"]


def test_terminating_sum_zero_denominator_raises():
    # the lower parameter -3 vanishes at t = 3 while the upper -4 does not
    spec = hyperid.HypergeomSpec((Fraction(-4),), (Fraction(-3),), 3)
    with pytest.raises(ValueError, match="denominator parameter hit zero"):
        hyperid.terminating_sum(spec)


# --- interpolation and root multiplicities ------------------------------------------------

@seeded(100)
@given(st.lists(rationals, min_size=1, max_size=8, unique=True), st.data())
@example([Fraction(0)], None)
@example([Fraction(-1, 2), Fraction(1, 3), Fraction(4), Fraction(5, 6)], None)
def test_interpolate_at_distinct_rational_nodes(xs, data):
    if data is None:
        ys = [Fraction(3 * i - 1, i + 2) for i in range(len(xs))]
    else:
        ys = data.draw(st.lists(rationals, min_size=len(xs), max_size=len(xs)))
    points = list(zip(xs, ys))
    p = polyfactor.interpolate(points)
    assert p.coeffs == ref_interpolate(points)
    assert all(p(x) == y for x, y in points)


roots = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@seeded(150)
@given(
    st.lists(st.tuples(roots, st.integers(1, 3)), max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    rationals.filter(bool),
    roots,
)
@example([(Fraction(2), 2), (Fraction(-3, 2), 1), (Fraction(1, 3), 3)], [1], Fraction(5, 7),
         Fraction(1, 3))
def test_root_multiplicity_with_planted_roots(planted, cofactor, scale, probe):
    cs = [scale * c for c in cofactor]
    for r, e in planted:
        for _ in range(e):
            cs = poly_mul(cs, [-r, Fraction(1)])
    p = polyfactor.UniPoly.from_coeffs(cs)
    assume(p.coeffs)
    for r, e in planted + [(probe, 0)]:
        got = polyfactor.root_multiplicity(p, r)
        assert got == ref_root_multiplicity(p.coeffs, r)
        assert got >= sum(f for q, f in planted if q == r) >= e


def test_root_multiplicity_of_zero_polynomial():
    zero = polyfactor.UniPoly.from_coeffs([0, 0])
    for r in (0, Fraction(-1, 2), Fraction(1, 3)):
        assert polyfactor.root_multiplicity(zero, r) == ref_root_multiplicity((), r) == 0


# --- determinants ---------------------------------------------------------------------

entries = st.one_of(st.integers(-9, 9), rationals)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[0][0] = 0                       # needs a pivot swap
    if n > 1 and draw(st.booleans()):
        c = draw(rationals)
        rows[-1] = [c * x for x in rows[0]]  # singular
    return rows


@seeded(100)
@given(square_matrices())
@example([[0, 1, Fraction(1, 2)], [Fraction(2, 3), 0, 1], [1, 1, 0]])
@example([[1, Fraction(1, 2)], [2, 1]])
def test_det_exact_matches_leibniz(rows):
    want = ref_det_leibniz(rows)
    assert pathdet.det_exact(rows) == want
    assert pathdet.det_exact(tuple(map(tuple, rows))) == want


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def reverse_both(rows):
    """J A J: rows and columns in reverse order."""
    return [row[::-1] for row in reversed(rows)]


@st.composite
def staircase_matrices(draw):
    """Orders 0..14 with the zero patterns the per-row divisors must handle.

    From order 4 on `det_exact` eliminates three columns per pass; up to 14
    a matrix takes several passes, and when no pass falls back to single
    steps, orders n = 1, 2, 0 (mod 3) end with 0, 1 or 2 single steps.
    """
    n = draw(st.integers(0, 14))
    # ints, and Fractions over a row denominator times a column denominator
    # (drawn this way because a list of n^2 `Fraction`s is slow to generate)
    vals = draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=2 * n, max_size=2 * n))
    rows = [
        [Fraction(vals[i * n + j], dens[i] * dens[n + j]) if dens[i] * dens[n + j] > 1
         else vals[i * n + j] for j in range(n)]
        for i in range(n)
    ]
    if n > 1 and draw(st.booleans()):
        # leading zeros per row, as a staircase (path matrices) or anywhere
        zeros = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        if draw(st.booleans()):
            zeros.sort()
        for row, z in zip(rows, zeros):
            row[:z] = [0] * z
    if n > 2 and draw(st.booleans()):
        # a zero pivot at step 1 whose only swap partner, row 2, was skipped
        # at step 0 (a zero lead), so its divisor is not the current one
        t = draw(st.integers(1, 5))
        rows[1][:2] = [t * x for x in rows[0][:2]]
        rows[2][0] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[j] = [draw(rationals) * x for x in rows[i]]  # singular
    if draw(st.booleans()):
        rows = reverse_both(rows)  # the staircase in the down-right corner
    return rows


def unoriented_det(rows):
    """det_exact with its orientation rule bypassed: eliminates rows as given."""
    with mock.patch.object(pathdet, "_orient", lambda a: (a, False, False)):
        return pathdet.det_exact(rows)


@seeded(200)
@given(staircase_matrices())
@example([[2, 2, 3], [4, 4, 1], [0, 5, 7]])  # the swap partner of step 1 was skipped
@example([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, Fraction(1, 2)]])
@example([[3, 0, 0, 0], [1, 2, 0, 0], [1, 1, 1, 0], [Fraction(1, 3), 1, 1, 4]])
# a nonzero lead over a singular 3x3 pivot block (row 1 is twice row 0 there):
# one single step, then a three-step pass from column 1
@example([[1, 2, 3, 4, 1], [2, 4, 6, 1, 0], [1, 1, 1, 1, 2], [0, 1, 5, 2, 1], [3, 0, 1, 1, 1]])
# a zero second pivot (the leading 2x2 minor is 0) inside a nonsingular block
@example([[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 1, 2], [3, 0, 2, 1]])
# row 6 is skipped by the first pass (its three leads are 0), so its divisor
# stays 1 while the next is 8; in the second pass its lead in column 3 is 0
# and its leads in columns 4 and 5 are not
@example([[2, 1, 0, 1, 0, 1, 1], [1, 3, 1, 0, 1, 0, 2], [0, 1, 2, 1, 1, 1, 0],
          [1, 0, 1, 2, 1, 0, 1], [0, 1, 0, 1, 3, 1, 1], [1, 1, 1, 0, 1, 2, 1],
          [0, 0, 0, 0, 2, 1, 3]])
def test_det_exact_with_skipped_rows_matches_plain_bareiss(rows):
    want = ref_bareiss(rows)
    assert pathdet.det_exact(rows) == want
    assert pathdet.det_exact(transpose(rows)) == want
    assert pathdet.det_exact(reverse_both(rows)) == want
    for b in (rows, transpose(rows), reverse_both(rows), transpose(reverse_both(rows))):
        assert unoriented_det(b) == want


@pytest.mark.parametrize("n,N,s", [(48, 48, 16), (49, 49, 8), (49, 49, 16), (49, 49, 24)])
def test_det_route_equals_closed_route_at_benchmark_sizes(n, N, s):
    assert routes.det_route(n, N, s) == routes.closed_route(n, N, s)


# --- the whole polydet pipeline ---------------------------------------------------------

def polydet_json(n, s):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["polydet", "--n", str(n), "--s", str(s), "--json"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("n,s", [(11, 4), (8, 0)])
def test_polydet_json_equals_fraction_reference(n, s, monkeypatch):
    fast = polydet_json(n, s)
    monkeypatch.setattr(polyfactor, "det_exact", ref_det_gauss)
    monkeypatch.setattr(
        polyfactor, "interpolate",
        lambda points: polyfactor.UniPoly.from_coeffs(ref_interpolate(points)),
    )
    monkeypatch.setattr(
        polyfactor, "root_multiplicity",
        lambda p, root: ref_root_multiplicity(p.coeffs, Fraction(root)),
    )
    monkeypatch.setattr(polyfactor, "closed_product_polynomial", ref_closed_product)
    assert polydet_json(n, s) == fast
