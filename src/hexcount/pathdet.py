"""Lattice-path matrices for the two halves and exact determinant evaluation.

Tilings of each half correspond to families of nonintersecting lattice paths
(unit right / unit down steps) between fixed start and end points, so their
weighted counts are determinants of pairwise path-count matrices.  This module
builds those matrices exactly:

  * `upper_path_matrix`     -- the upper half, binomial entries;
  * `lower_path_matrix`     -- the lower half, with the defect row special and
                               a weight 1/2 on paths leaving a normal start
                               horizontally (those enter an axis rhombus);
  * `odd_lower_path_matrix` -- the same for the odd cut side, whose entries
                               are the even ones at (n-1, m+1, s-1);
  * `lower_poly_matrix`     -- the lower-half matrix after pulling row factors
                               so every entry is a polynomial in m (this is
                               the matrix whose determinant gets factored in
                               `polyfactor`; the `det` route never uses it);
  * `doubled_lower_poly_matrices` -- that matrix at integer nodes, in ints
                               with the generic rows doubled, for the
                               interpolation in `polyfactor`;
  * `reduced_poly_matrix`   -- `lower_poly_matrix` with the further row
                               divisibility pulled out; the vanishing row
                               relations in `hyperid` read single entries of
                               it through `reduced_poly_entry`.

`_lower_poly_parts` is the one home of the lower polynomial entry: the
evaluated, the doubled and the reduced entries all read it, and
`_entry_value` evaluates the evaluated and the reduced ones at a point m.

A matrix is a tuple of row tuples.  `_build` keeps each entry as its
formula returns it, an int or a `Fraction`; both are exact rationals.
`det_exact` clears denominators row by row in ints and runs fraction-free
(Bareiss) integer elimination, with every division checked exact, so
determinants are exact at any size we need; each determinant is normalised
to a `Fraction` once, at the end.  While three or more steps remain it
eliminates three columns per pass through the 3x3 pivot block and its
adjugate, one checked division per rewritten entry; when that block is
singular, and for the last one or two steps, it takes one Bareiss step at a
time.  The path matrices are staircases (in column j of
the upper matrix every row i >= 2j is 0, in the lower ones every generic row
with 2i > n+j+1), so the elimination skips rows whose leads are all 0, each
row keeping its own Bareiss divisor.  It starts from the corner with the
small entries: top-left for the upper matrix, bottom-right for the lower
ones, whose row tops n+m-i shrink with i.

`lower_half_det_count` is kept as an identity, not as a route: the prefactor
times the determinant of `lower_poly_matrix` equals the determinant of
`lower_path_matrix`, and the tests check that the two agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .formulas import Rational, binomial, lower_half_prefactor, pochhammer


def _build(n: int, entry) -> tuple:
    """The n x n matrix of entry(i, j), 1-based, as a tuple of row tuples;
    int entries stay int."""
    return tuple(tuple(entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# path counts and path matrices
# ---------------------------------------------------------------------------

def upper_path_matrix(n: int, m: int) -> tuple:
    """Path matrix of the upper half: entry (i,j) = C(m+j-1, m-j+i)."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    return _build(n, lambda i, j: binomial(m + j - 1, m - j + i))


def _lower_path_entry(n: int, m: int, s: int, i: int, j: int) -> Rational:
    """Entry (i,j) of `lower_path_matrix(n, m, s)`: an int in the defect
    row s+1, a `Fraction` in every other row."""
    if i == s + 1:
        return binomial(n + m - s, m + s - j)
    return Fraction(binomial(n + m - i, m + i - j) + 2 * binomial(n + m - i, m + i - 1 - j), 2)


def lower_path_matrix(n: int, m: int, s: int) -> tuple:
    """Path matrix of the lower half for cut side 2m and defect index s.

    Row s+1 is the defect row (shifted start, no weight); every other row
    counts paths whose first horizontal step carries weight 1/2.
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return _build(n, lambda i, j: _lower_path_entry(n, m, s, i, j))


def odd_lower_path_matrix(n: int, m: int, s: int) -> tuple:
    """Path matrix of the odd-case lower half, defect at axis vertex s.

    Its entries are lower_path_matrix(n-1, m+1, s-1)'s, one row and column
    more.  For s != n the last row is a unit vector, so the determinants agree.
    """
    if not 1 <= s <= n:
        raise ValueError(f"defect index s={s} outside 1..{n}")
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    return _build(n, lambda i, j: _lower_path_entry(n - 1, m + 1, s - 1, i, j))


# ---------------------------------------------------------------------------
# polynomial-in-m matrices
# ---------------------------------------------------------------------------

def _lower_poly_parts(n: int, s: int, i: int, j: int) -> tuple:
    """The parts of entry (i,j) of the polynomial matrix that do not depend on m.

    Returns (const, lo, hi, half): the entry is const times the product of
    the m + t for lo <= t < hi, the rising factorial (lo + m)_(j-1), and a
    generic row's entry also has the factor (2m + half)/2.  The defect row
    has half None.
    """
    if i == s + 1:
        lo = s + 1 - j
        return pochhammer(n + 1 + j - 2 * s, n - j), lo, lo + j - 1, None
    lo = i + 1 - j
    return pochhammer(n + 2 + j - 2 * i, n - j), lo, lo + j - 1, n + 1 - j


def _entry_value(const: int, lo: int, hi: int, half, m, over: int = 1) -> Rational:
    """const (m+lo)(m+lo+1)...(m+hi-1) (2m+half) / over at the point m; no
    factor 2m+half when half is None.

    With m = p/q, each m + t is (p + tq)/q and 2m + half is (2p + half q)/q,
    so the value is one int over `over` times a power of q.  With `over` 1
    it is an int where that denominator divides out (always, at integer m),
    else one `Fraction`; with any other `over` it is always one `Fraction`.
    """
    p, q = m.as_integer_ratio()
    num = const * math.prod(range(p + lo * q, p + hi * q, q))
    den = over * q ** (hi - lo)
    if half is not None:
        num *= 2 * p + half * q
        den *= q
    if over == 1:
        value, rem = divmod(num, den)
        if not rem:
            return value
    return Fraction(num, den)


def lower_poly_entry(n: int, m, s: int, i: int, j: int) -> Rational:
    """Entry (i,j) of the polynomial lower-half matrix at the point m.

    The defect row's entry is `_entry_value` of its parts, an int where it
    is integral (always, at integer m); a generic row's entry is half of
    it, always a `Fraction`.
    """
    const, lo, hi, half = _lower_poly_parts(n, s, i, j)
    return _entry_value(const, lo, hi, half, m, 1 if half is None else 2)


def lower_poly_entry_alt(n: int, m, s: int, i: int, j: int) -> Fraction:
    """The two-summand rewriting of the generic entry (i != s+1 only).

    Splits the entry by whether a path's first step is horizontal, mirroring
    how the path matrix itself arises; must agree with lower_poly_entry.
    """
    if i == s + 1:
        raise ValueError("the alternative form only applies to i != s+1")
    m = Fraction(m)
    return Fraction(pochhammer(n + 1 + j - 2 * i, n - j + 1), 2) * pochhammer(
        i + m + 1 - j, j - 1
    ) + Fraction(pochhammer(n + 2 + j - 2 * i, n - j)) * pochhammer(i + m - j, j)


def lower_poly_matrix(n: int, m, s: int) -> tuple:
    """Lower-half matrix with row factors pulled so entries are polynomial in m.

    Accepts any rational evaluation point m (the factor checks evaluate at
    half-integers and negative integers).
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    return _build(n, lambda i, j: lower_poly_entry(n, m, s, i, j))


def doubled_lower_poly_matrices(n: int, s: int, nodes) -> list:
    """`lower_poly_matrix(n, m, s)` at each integer m of nodes, in ints.

    Every generic row is at twice its value, so each entry is an int and the
    determinant is 2^(n-1) times that of `lower_poly_matrix`.  The parts of
    the entries that do not depend on m are computed once, for all nodes.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    parts = [
        [_lower_poly_parts(n, s, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
    ]
    prod = math.prod
    return [
        tuple(
            tuple(
                const
                and const * prod(range(lo + m, hi + m)) * (1 if half is None else 2 * m + half)
                for const, lo, hi, half in row
            )
            for row in parts
        )
        for m in nodes
    ]


def reduced_poly_entry(n: int, m, s: int, i: int, j: int) -> Rational:
    """Entry (i,j) of `reduced_poly_matrix(n, m, s)`, for an int or `Fraction` m.

    The defect row's entry is that of `lower_poly_entry`, and a generic
    row's is twice it, const (m+lo)...(m+hi-1) (2m+half).  A generic row
    with 2i >= n+2 is divided by its pulled factors (m+t), t = n+1-i .. i-1,
    which are the top of [lo, hi) = [i+1-j, i) when j >= 2i-n.  At
    j = 2i-n-1 the lowest one, m+n+1-i, is half of 2m+half, so the entry is
    2 const; for smaller j const is 0.
    """
    const, lo, hi, half = _lower_poly_parts(n, s, i, j)
    if half is not None and 2 * i >= n + 2:
        if j < 2 * i - n:
            return 2 * const
        hi = n + 1 - i
    return _entry_value(const, lo, hi, half, m)


def reduced_poly_matrix(n: int, m, s: int) -> tuple:
    """The matrix left after pulling the per-row integer factors.

    Row i with 2i >= n+2 of the polynomial matrix is divisible by the product
    of (m+k) for k = n+1-i .. i-1; this returns what remains (with the
    generic rows scaled by 2), evaluated at the point m, entry by entry
    through `reduced_poly_entry`.  Used for the vanishing row relations at
    negative integer m.
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    m = Fraction(m)
    return _build(n, lambda i, j: reduced_poly_entry(n, m, s, i, j))


def pulled_row_factor(n: int, i: int, m) -> Fraction:
    """The factor pulled from row i (1 when 2i < n+2)."""
    if 2 * i < n + 2:
        return Fraction(1)
    return Fraction(pochhammer(Fraction(m) + n + 1 - i, 2 * i - n - 1))


# ---------------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------------

def det_exact(rows) -> Fraction:
    """Exact determinant by fraction-free integer elimination.

    Each row is scaled in ints by the lcm of its entries' denominators; the
    Bareiss recurrence then stays in integers, with every division checked
    exact, and the result is one `Fraction` over the product of the row
    scales.  Accepts any sequence of rows of ints and `Fraction`s, and
    raises `ValueError` when they do not form a square.  The empty matrix
    has determinant 1.

    `_orient` first picks which of A, A^T, JAJ and (JAJ)^T to eliminate, by
    the diagonal's bits and the rows' leading zeros; all four have the same
    determinant.  Each row i then carries its own divisor d[i], the pivot of
    the step that last rewrote it (1 before any), and holds the current
    Bareiss row a^(k) times d[i] / prev, prev being the current divisor.

    While at least three steps remain, one pass (`_three_steps`) eliminates
    three columns at once through the 3x3 pivot block of rows k..k+2, by
    Bareiss's multistep form of Sylvester's identity: one checked division
    per entry of each rewritten row, and no pivot inside the block needs to
    be nonzero.  When that block is singular, and for the last one or two
    steps, one step runs at a time: a zero pivot is swapped with the first
    row below it with a nonzero lead, and a row with a nonzero lead becomes
    (pivot * x - lead * y) / d[i], which the skipped factors make exactly the
    standard a^(k+1).  In both, a row whose leads are all 0 is left alone
    with its divisor (the standard update would only rescale it), and a
    pivot row, and at the end the last entry, is brought current as
    x * prev / d[i], checked.
    """
    rows = tuple(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return Fraction(1)
    a, scale = _integer_rows(rows)
    a = _orient(a)[0]

    sign = 1
    prev = 1
    d = [1] * n   # d[i]: the pivot of the step that last rewrote row i
    k = 0
    while k < n - 1:
        if k + 3 < n:
            pivot = _three_steps(a, d, k, prev)
            if pivot:
                prev = pivot
                k += 3
                continue
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    d[k], d[r] = d[r], d[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        _bring_current(a, d, k, k, prev)
        pivot_row = a[k][k + 1:]
        pivot = a[k][k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            if not lead:
                continue  # row i stays at a^(k) * d[i] / prev
            div = d[i]
            tail = []
            for x, y in zip(row[k + 1:], pivot_row):
                q, rem = divmod(pivot * x - lead * y, div)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                tail.append(q)
            row[k:] = [0] + tail
            d[i] = pivot
        prev = pivot
        k += 1
    return Fraction(sign * _exact_div(a[n - 1][n - 1] * prev, d[n - 1]), scale)


def _bring_current(a: list, d: list, r: int, k: int, prev: int) -> None:
    """Rewrite row r from column k on to the current a^(k) row, divisor prev."""
    if d[r] != prev:
        a[r][k:] = [_exact_div(x * prev, d[r]) for x in a[r][k:]]
        d[r] = prev


def _three_steps(a: list, d: list, k: int, prev: int) -> int:
    """Bareiss steps k, k+1 and k+2 in one pass; the new divisor, or 0.

    With P the 3x3 block of the current pivot rows k..k+2 in columns
    k..k+2, Sylvester's identity gives every later row
    a^(k+3) = (det(P) * x - u adj(P) y) / prev^3, where u is the row's
    three leads and y the pivot rows' column.  Every 2x2 minor of a^(k) is
    prev times a minor of the matrix, so adj(P) / prev is exact, and
    p = det(P) / prev^2 is the leading principal minor of order k+3, the
    next divisor.  A current row gets g = u adj(P) / prev^2 and each entry
    (p x - g y) / prev: one checked division per entry.  A row held at
    a^(k) * d / prev with d != prev is used as it is held, since its leads
    and entries carry the same factor d / prev: g = u adj(P) / prev and each
    entry (p prev x - g y) / (d prev), again one checked division.  A row
    whose three leads are 0 is left alone with its divisor.  Returns 0,
    changing nothing but bringing the pivot rows current, when det(P) is 0;
    the caller then takes one step at a time.
    """
    n = len(a)
    for r in (k, k + 1, k + 2):
        _bring_current(a, d, r, k, prev)
    r0, r1, r2 = a[k], a[k + 1], a[k + 2]
    p00, p01, p02 = r0[k:k + 3]
    p10, p11, p12 = r1[k:k + 3]
    p20, p21, p22 = r2[k:k + 3]
    # adj(P) / prev, entry (i, j) the cofactor of P's entry (j, i)
    c00 = _exact_div(p11 * p22 - p12 * p21, prev)
    c01 = _exact_div(p02 * p21 - p01 * p22, prev)
    c02 = _exact_div(p01 * p12 - p02 * p11, prev)
    c10 = _exact_div(p12 * p20 - p10 * p22, prev)
    c11 = _exact_div(p00 * p22 - p02 * p20, prev)
    c12 = _exact_div(p02 * p10 - p00 * p12, prev)
    c20 = _exact_div(p10 * p21 - p11 * p20, prev)
    c21 = _exact_div(p01 * p20 - p00 * p21, prev)
    c22 = _exact_div(p00 * p11 - p01 * p10, prev)
    p = _exact_div(p00 * c00 + p01 * c10 + p02 * c20, prev)
    if not p:
        return 0
    y0, y1, y2 = r0[k + 3:], r1[k + 3:], r2[k + 3:]
    for i in range(k + 3, n):
        row = a[i]
        u0, u1, u2 = row[k:k + 3]
        if not (u0 or u1 or u2):
            continue  # row i stays at a^(k+3) * d[i] / p
        g0 = u0 * c00 + u1 * c10 + u2 * c20
        g1 = u0 * c01 + u1 * c11 + u2 * c21
        g2 = u0 * c02 + u1 * c12 + u2 * c22
        if d[i] == prev:
            scale, div = p, prev
            g0, g1, g2 = _exact_div(g0, prev), _exact_div(g1, prev), _exact_div(g2, prev)
        else:
            scale, div = p * prev, d[i] * prev
        tail = []
        for x, z0, z1, z2 in zip(row[k + 3:], y0, y1, y2):
            q, rem = divmod(scale * x - g0 * z0 - g1 * z1 - g2 * z2, div)
            if rem:
                raise ArithmeticError("fraction-free elimination lost exactness")
            tail.append(q)
        row[k:] = [0, 0, 0] + tail
        d[i] = p
    return p


def _exact_div(x: int, y: int) -> int:
    q, rem = divmod(x, y)
    if rem:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _integer_rows(rows) -> tuple:
    """Each row scaled in ints by the lcm of its denominators, and the product
    of those scales."""
    scale = 1
    a = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        a.append([x.numerator * (den // x.denominator) for x in row])
    return a, scale


def _leading_zeros(a) -> int:
    """Zeros before the first nonzero entry, summed over the rows."""
    total = 0
    for row in a:
        for x in row:
            if x:
                break
            total += 1
    return total


def _orient(a: list) -> tuple:
    """(b, reversed, transposed): b is one of a, a^T, JaJ, (JaJ)^T.

    All four have the determinant of a (J reverses order, and reversing both
    rows and columns has sign +1).  The Bareiss pivots are the leading
    principal minors, so elimination should start from the corner with the
    small entries: reverse when the first half of the diagonal has more bits
    than the second.  Zero-lead rows are skipped, so then transpose when
    that puts more leading zeros in the rows.
    """
    n = len(a)
    h = n // 2
    bits = [a[i][i].bit_length() for i in range(n)]
    reverse = sum(bits[:h]) > sum(bits[n - h:])
    if reverse:
        a = [row[::-1] for row in reversed(a)]
    t = [list(col) for col in zip(*a)]
    transpose = _leading_zeros(t) > _leading_zeros(a)
    return (t if transpose else a), reverse, transpose


def lower_half_det_count(n: int, m: int, s: int) -> Fraction:
    """The identity "prefactor times polynomial det equals path det".

    Prefactor times det of `lower_poly_matrix`, which must equal both the
    determinant of `lower_path_matrix` and the oracle count of the
    lower-half region.  The tests check it; the `det` route itself takes
    the path matrix, which is cheaper to eliminate.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return lower_half_prefactor(n, m, s) * det_exact(lower_poly_matrix(n, m, s))


# ---------------------------------------------------------------------------
# the product determinant identity used for the upper half
# ---------------------------------------------------------------------------

def factor_chain_matrix(x: Sequence, a: Sequence, b: Sequence) -> tuple:
    """Matrix with entry (i,j) = prod_t>i (x_j + a_t) * prod_2<=t<=i (x_j + b_t).

    x, a, b are 1-based sequences of equal length n (a_1 and b_1 unused).
    Its determinant factors completely; see factor_chain_det.
    """
    n = len(x) - 1

    def entry(i, j):
        v = Fraction(1)
        for t in range(i + 1, n + 1):
            v *= x[j] + a[t]
        for t in range(2, i + 1):
            v *= x[j] + b[t]
        return v

    return _build(n, entry)


def factor_chain_det(x: Sequence, a: Sequence, b: Sequence) -> Fraction:
    """Closed form: prod_{i<j} (x_i - x_j) * prod_{2<=i<=j<=n} (b_i - a_j)."""
    n = len(x) - 1
    v = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v *= x[i] - x[j]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            v *= b[i] - a[j]
    return v
