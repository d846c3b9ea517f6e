"""Path matrices and exact determinants, checked against brute enumeration."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from hexcount import pathdet as pd
from hexcount.formulas import binomial, lower_half_count, upper_half_count
from hexcount.geometry import HexSpec, split_halves
from hexcount.routes import count_tilings


# --- independent oracles used only by this test module ---------------------

def enumerate_paths(p, q):
    """All monotone right/down paths p -> q as vertex tuples."""
    if p == tuple(q):
        return [(tuple(p),)]
    (px, py), (qx, qy) = p, q
    if qx < px or qy > py:
        return []
    out = []
    for step in ((px + 1, py), (px, py - 1)):
        for rest in enumerate_paths(step, q):
            out.append((tuple(p),) + rest)
    return out


def family_count(starts, ends, half_weight_start):
    """Weighted nonintersecting path families, path i from starts[i] to ends[i].

    A path leaving a half-weighted start horizontally counts with weight 1/2;
    families sharing any vertex are discarded.  Direct enumeration.
    """
    per_path = []
    for i, (a, b) in enumerate(zip(starts, ends)):
        options = []
        for path in enumerate_paths(a, b):
            w = Fraction(1)
            if half_weight_start[i] and len(path) > 1 and path[1][0] == a[0] + 1:
                w = Fraction(1, 2)
            options.append((set(path), w))
        per_path.append(options)

    def extend(i, used):
        if i == len(per_path):
            return Fraction(1)
        total = Fraction(0)
        for verts, w in per_path[i]:
            if used & verts:
                continue
            total += w * extend(i + 1, used | verts)
        return total

    return extend(0, set())


def cofactor_det(rows):
    """Determinant by cofactor expansion; the slow check for det_exact."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += Fraction(rows[0][j]) * cofactor_det(minor) * (-1) ** j
    return total


# --- path counts ------------------------------------------------------------

def path_count(p, q):
    """Monotone lattice paths from p to q with unit right and unit down steps."""
    (px, py), (qx, qy) = p, q
    if qx < px or qy > py:
        return 0
    return binomial((qx - px) + (py - qy), py - qy)


def test_path_count_examples():
    assert path_count((0, 0), (0, 0)) == 1
    assert path_count((0, 2), (2, 0)) == 6
    assert path_count((1, 0), (0, 0)) == 0


def test_path_count_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        p = (rng.randint(-2, 3), rng.randint(-2, 4))
        q = (rng.randint(-2, 5), rng.randint(-3, 3))
        assert path_count(p, q) == len(enumerate_paths(p, q))


# --- the upper-half matrix ---------------------------------------------------

def test_upper_matrix_entries_are_path_counts():
    for n in range(1, 5):
        for m in range(0, 4):
            mat = pd.upper_path_matrix(n, m)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    start, end = (i - 1, i + m - 1), (2 * j - 2, j - 1)
                    assert mat[i - 1][j - 1] == path_count(start, end)


def test_upper_matrix_small_values():
    assert pd.upper_path_matrix(1, 5) == ((1,),)
    mat = pd.upper_path_matrix(2, 1)
    assert mat == ((1, 1), (0, 2))
    assert pd.det_exact(mat) == 2


def test_upper_det_equals_closed_form_and_oracle():
    for n in range(1, 6):
        for m in range(1, 5):
            d = pd.det_exact(pd.upper_path_matrix(n, m))
            assert d == upper_half_count(n, m)
    for n in range(1, 4):
        for m in range(1, 3):
            upper, _ = split_halves(HexSpec(n, 2 * m, 0))
            assert pd.det_exact(pd.upper_path_matrix(n, m)) == count_tilings(upper)


# --- the lower-half matrix ---------------------------------------------------

def lower_points(n, m, s):
    starts = [
        ((2 * s - 1, m + s - 1) if i == s + 1 else (2 * i - 2, m + i - 1))
        for i in range(1, n + 1)
    ]
    ends = [(n + j - 1, j - 1) for j in range(1, n + 1)]
    halves = [i != s + 1 for i in range(1, n + 1)]
    return starts, ends, halves


def test_lower_matrix_entries_are_weighted_path_counts():
    for n in range(1, 4):
        for m in range(1, 3):
            for s in range(0, n):
                mat = pd.lower_path_matrix(n, m, s)
                starts, ends, halves = lower_points(n, m, s)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        want = family_count([starts[i - 1]], [ends[j - 1]], [halves[i - 1]])
                        assert mat[i - 1][j - 1] == want


def test_lower_det_matches_family_enumeration():
    for n, m, s in [(1, 1, 0), (2, 1, 0), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2)]:
        starts, ends, halves = lower_points(n, m, s)
        want = family_count(starts, ends, halves)
        assert pd.det_exact(pd.lower_path_matrix(n, m, s)) == want


def test_defect_row_carries_no_half_weights():
    for n in range(1, 5):
        for s in range(0, n):
            mat = pd.lower_path_matrix(n, 2, s)
            assert all(v.denominator == 1 for v in mat[s])


def test_lower_det_equals_prefactored_polynomial_det_and_closed_form():
    for n in range(1, 5):
        for m in range(1, 4):
            for s in range(0, n):
                a = pd.det_exact(pd.lower_path_matrix(n, m, s))
                b = pd.lower_half_det_count(n, m, s)
                assert a == b == lower_half_count(n, m, s)


def test_lower_det_equals_oracle_on_interior_defects():
    for n in range(2, 5):
        for m in range(1, 3):
            for s in range(1, n):
                _, lower = split_halves(HexSpec(n, 2 * m, s))
                assert pd.det_exact(pd.lower_path_matrix(n, m, s)) == count_tilings(lower)


# --- polynomial matrix and its reduction -------------------------------------

def test_polynomial_entry_alternative_form():
    rng = random.Random(11)
    for n in range(1, 7):
        for s in range(0, n):
            for _ in range(3):
                m = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                for i in range(1, n + 1):
                    if i == s + 1:
                        continue
                    for j in range(1, n + 1):
                        assert pd.lower_poly_entry(n, m, s, i, j) == pd.lower_poly_entry_alt(
                            n, m, s, i, j
                        )


def test_poly_det_times_prefactor_is_the_path_det():
    for n in range(1, 5):
        for m in range(1, 4):
            for s in range(0, n):
                assert pd.lower_half_det_count(n, m, s) == pd.det_exact(
                    pd.lower_path_matrix(n, m, s)
                )


def test_poly_matrix_at_int_point_equals_fraction_point():
    for n in range(1, 7):
        for s in range(0, n):
            for t in range(-n - 2, 6):
                a = pd.lower_poly_matrix(n, t, s)
                b = pd.lower_poly_matrix(n, Fraction(t), s)
                assert a == b  # every entry, the defect row s+1 included


def test_reduced_matrix_defect_row_unchanged():
    m = Fraction(7, 3)
    for n in range(1, 6):
        for s in range(0, n):
            b = pd.lower_poly_matrix(n, m, s)
            c = pd.reduced_poly_matrix(n, m, s)
            assert c[s] == b[s]


def test_reduced_matrix_row_divisibility():
    # generic row i of the polynomial matrix times 2 equals pulled factor
    # times the reduced row
    rng = random.Random(23)
    for n in range(1, 7):
        for s in range(0, n):
            m = Fraction(rng.randint(1, 30), 7)
            b = pd.lower_poly_matrix(n, m, s)
            c = pd.reduced_poly_matrix(n, m, s)
            for i in range(1, n + 1):
                if i == s + 1:
                    continue
                pulled = pd.pulled_row_factor(n, i, m)
                for j in range(1, n + 1):
                    assert 2 * b[i - 1][j - 1] == pulled * c[i - 1][j - 1]


def reduced_entry_by_roots(n, m, s, i, j):
    """Entry (i,j) of the reduced matrix through its multiset of doubled roots.

    The entry is const times the product of (m + r) over the roots r, each
    kept as the int 2r.  A generic row carries twice the polynomial entry:
    its factor (2m+n+1-j)/2 is the root (n+1-j)/2 with the constant
    doubled.  A generic row with 2i >= n+2 then loses one root r for each
    pulled factor (m+r), r = n+1-i .. i-1, which must be there.
    """
    const, lo, hi, half = pd._lower_poly_parts(n, s, i, j)
    roots = Counter(range(2 * lo, 2 * hi, 2))
    if half is not None:
        if const == 0:
            return Fraction(0)
        const *= 2
        roots[half] += 1
        if 2 * i >= n + 2:
            for r in range(n + 1 - i, i):
                if roots[2 * r] == 0:
                    raise ArithmeticError(f"row factor (m+{r}) does not divide entry ({i},{j})")
                roots[2 * r] -= 1
    value = Fraction(const)
    for r2, mult in roots.items():
        value *= (m + Fraction(r2, 2)) ** mult
    return value


def test_reduced_entry_equals_the_root_multiset_form():
    points = list(range(-12, 7)) + [Fraction(-7, 2), Fraction(5, 3), Fraction(-11, 4)]
    for n in range(1, 11):
        for s in range(0, n):
            for m in points:
                if isinstance(m, int) and m < -n - 2:
                    continue
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        want = reduced_entry_by_roots(n, m, s, i, j)
                        got = pd.reduced_poly_entry(n, m, s, i, j)
                        assert got == want, (n, m, s, i, j)
                        # an int exactly where the value is integral
                        assert (type(got) is int) == (want.denominator == 1), (n, m, s, i, j)


def test_pulled_factors_product():
    # product over rows of the pulled factors is prod (m+k)^min(k, n-k)
    for n in range(1, 8):
        m = Fraction(5, 2)
        total = Fraction(1)
        for i in range(1, n + 1):
            total *= pd.pulled_row_factor(n, i, m)
        want = Fraction(1)
        for k in range(1, n):
            want *= (m + k) ** min(k, n - k)
        assert total == want


# --- odd-case matrix ----------------------------------------------------------

def test_odd_matrix_last_row_is_a_unit_vector():
    for n in range(2, 6):
        for m in range(0, 4):
            for s in range(1, n):
                mat = pd.odd_lower_path_matrix(n, m, s)
                assert [mat[n - 1][j - 1] for j in range(1, n + 1)] == [0] * (n - 1) + [1]


def test_odd_matrix_reduces_to_even_matrix():
    for n in range(2, 6):
        for m in range(0, 3):
            for s in range(1, n):
                tilde = pd.odd_lower_path_matrix(n, m, s)
                even = pd.lower_path_matrix(n - 1, m + 1, s - 1)
                for i in range(1, n):
                    for j in range(1, n):
                        assert tilde[i - 1][j - 1] == even[i - 1][j - 1]
                assert pd.det_exact(tilde) == pd.det_exact(even)


def test_odd_matrix_det_equals_oracle():
    for n in range(1, 4):
        for m in range(0, 3):
            for s in range(1, n + 1):
                _, lower = split_halves(HexSpec(n, 2 * m + 1, s))
                assert pd.det_exact(pd.odd_lower_path_matrix(n, m, s)) == count_tilings(lower)


# --- determinant kernel --------------------------------------------------------

def test_det_exact_basics():
    eye3 = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert pd.det_exact(eye3) == 1
    assert pd.det_exact(((1, 1), (0, 2))) == 2
    assert pd.det_exact(()) == 1
    singular = ((1, 2), (2, 4))
    assert pd.det_exact(singular) == 0


def test_det_exact_rejects_non_square_rows():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError, match="matrix is not square"):
            pd.det_exact(rows)


def test_det_exact_vandermonde_nodes():
    nodes = (0, -2, -4)
    n = len(nodes)
    rows = tuple(tuple(Fraction(x) ** (n - j) for j in range(1, n + 1)) for x in nodes)
    assert pd.det_exact(rows) == 16  # (2)(4)(2)


def test_det_exact_against_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert pd.det_exact(tuple(map(tuple, rows))) == cofactor_det(rows)


def test_det_exact_alternating_rows_needing_pivots():
    rows = ((0, 1, 2), (1, 0, 3), (2, 3, 0))
    want = cofactor_det([list(r) for r in rows])
    assert pd.det_exact(rows) == want


@pytest.mark.parametrize("matrix,reverse", [
    (pd.upper_path_matrix(48, 24), False),
    (pd.upper_path_matrix(50, 24), False),
    (pd.lower_path_matrix(48, 24, 16), True),
    (pd.odd_lower_path_matrix(49, 24, 16), True),
])
def test_det_exact_eliminates_from_the_small_entry_corner(matrix, reverse):
    # the upper matrices have their small binomials top-left, the lower ones
    # bottom-right (their row tops n+m-i shrink with i)
    a, _ = pd._integer_rows(matrix)
    assert pd._orient(a)[1] is reverse


def test_factor_chain_identity_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        x = [None] + [rng.randint(-8, 8) for _ in range(n)]
        a = [None] + [rng.randint(-8, 8) for _ in range(n)]
        b = [None] + [rng.randint(-8, 8) for _ in range(n)]
        got = pd.det_exact(pd.factor_chain_matrix(x, a, b))
        assert got == pd.factor_chain_det(x, a, b)


def test_matrix_validation_and_entries():
    with pytest.raises(ValueError, match="matrix is not square"):
        pd.det_exact(((1, 2), (3,)))
    mat = pd.lower_path_matrix(2, 1, 0)
    assert mat == ((1, 0), (1, Fraction(3, 2)))


def test_range_validation():
    with pytest.raises(ValueError):
        pd.lower_path_matrix(3, 1, 3)
    with pytest.raises(ValueError):
        pd.odd_lower_path_matrix(3, 1, 0)
    with pytest.raises(ValueError):
        pd.lower_poly_matrix(3, Fraction(1), -1)
