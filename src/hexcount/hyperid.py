"""Terminating hypergeometric sums and the vanishing linear relations.

Two classical summation formulas are verified numerically at exact rational
parameters: the Chu-Vandermonde evaluation of a terminating 2F1 at 1 and the
Pfaff-Saalschutz evaluation of a balanced terminating 3F2 at 1.

On top of those sit the linear relations that drive the factor structure of
the lower-half determinant:

  * `half_root_column_relation`: at m = -k-1/2 a binomial combination of
    columns of the polynomial matrix vanishes in every generic row;
  * `integer_root_row_relation`: at m = -k a specific combination of rows of
    the reduced matrix vanishes columnwise, in four variants covering
    k < s, k > n-s, s < k <= n/2 and n/2 < k < n-s (with s <= n/2; larger s
    is reached through the mirror symmetry).  Variants 1 and 2 share one
    coefficient formula (`_low_root_coefficients`): variant 2 at k is
    variant 1 at n-k with the defect row's coefficient negated, still
    evaluated at m = -k.  It derives the variant from (n, k, s), computes
    the row coefficients once per triple, evaluates only the reduced-matrix
    entries the combination reads, and returns its value in every column.

The checks evaluate the stated combinations on the actual matrices -- exact
rational zero, not small-number zero.  The sums run in ints over one common
denominator per result: `_sum_terms` keeps the term and the running sum over
the term's denominator and returns (num, den), and each relation scales its
coefficients (or entries) to one denominator.  `terminating_sum` makes that
pair one `Fraction`; the two summation checks put their parameters over one
denominator, reject the specs `HypergeomSpec` rejects, and compare the sum
with the product side by cross-multiplication, with no `Fraction`.
`run_half_root_suite` evaluates each matrix entry it needs at m = -k-1/2
once per (n, k, s) and checks every relation of that triple on those values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .formulas import binomial, factorial, over_common_denominator, pochhammer
from .pathdet import lower_poly_entry, reduced_poly_entry


@dataclass(frozen=True)
class HypergeomSpec:
    """A terminating hypergeometric series at argument 1."""

    upper: tuple
    lower: tuple
    termination: int

    def __post_init__(self):
        _check_terminating(
            [Fraction(a).as_integer_ratio() for a in self.upper],
            [Fraction(c).as_integer_ratio() for c in self.lower],
            self.termination,
        )


def _check_terminating(upper: list, lower: list, termination: int) -> None:
    """Raise ValueError unless the series with parameters p/q (int pairs,
    q > 0) terminates by itself with no lower parameter vanishing inside."""
    if termination < 0:
        raise ValueError("termination index must be nonnegative")
    if not any(p % q == 0 and p <= 0 for p, q in upper):
        raise ValueError("series does not terminate: no nonpositive integer upstairs")
    for p, q in lower:
        if p % q == 0 and -termination < p // q <= 0:
            raise ValueError(f"lower parameter {Fraction(p, q)} vanishes inside the sum")


def _sum_terms(upper: list, lower: list, termination: int) -> tuple:
    """Sum_{t=0}^{T} prod (a)_t / (prod (c)_t * t!) as (num, den) ints.

    Each parameter is an int pair (p, q), q > 0, standing for p/q, so the
    term ratio's factor a + t is (p + tq)/q.  The term and the running sum
    are kept as int numerators over the term's int denominator.  The
    denominator is never 0, but may be negative.
    """
    # the parameters' own denominators, the same at every step
    up_den = math.prod(q for _, q in upper)
    low_den = math.prod(q for _, q in lower)
    total, term, den = 0, 1, 1   # sum = total/den, current term = term/den
    for t in range(termination + 1):
        total += term
        num = math.prod(p + t * q for p, q in upper)
        low = math.prod(p + t * q for p, q in lower)
        if low == 0:
            if num == 0:
                break  # series already terminated
            raise ValueError("denominator parameter hit zero inside the sum")
        # term' = term * (num/up_den) / ((t+1) * low/low_den)
        step = (t + 1) * low * up_den
        total *= step
        term *= num * low_den
        den *= step
    return total, den


def terminating_sum(spec: HypergeomSpec) -> Fraction:
    """Sum_{t=0}^{T} prod (a)_t / (prod (c)_t * t!), exactly, as one `Fraction`."""
    return Fraction(*_sum_terms(
        [Fraction(a).as_integer_ratio() for a in spec.upper],
        [Fraction(c).as_integer_ratio() for c in spec.lower],
        spec.termination,
    ))


def vandermonde_check(a, n: int, c) -> bool:
    """2F1[a, -n; c; 1] == (c-a)_n / (c)_n, exactly.

    Both parameters go over one denominator den, where each pochhammer on
    the right is a product over den^n, which cancels; the two sides are
    compared by cross-multiplying ints.
    """
    (na, nc), den = over_common_denominator(a, c)
    upper, lower = [(na, den), (-n, 1)], [(nc, den)]
    _check_terminating(upper, lower, n)
    num, sum_den = _sum_terms(upper, lower, n)
    return num * _rising(nc, den, n) == sum_den * _rising(nc - na, den, n)


def pfaff_saalschuetz_check(a, b, n: int, c) -> bool:
    """Balanced 3F2[a, b, -n; c, 1+a+b-c-n; 1] against its product form.

    The right side (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n) is formed in ints
    over the parameters' common denominator and compared with the sum by
    cross-multiplying; a right side over 0 raises ZeroDivisionError.
    """
    (na, nb, nc), den = over_common_denominator(a, b, c)
    nd2 = na + nb - nc + (1 - n) * den
    upper, lower = [(na, den), (nb, den), (-n, 1)], [(nc, den), (nd2, den)]
    _check_terminating(upper, lower, n)
    # each pochhammer on the right is a product over den^n, which cancels
    rhs_num = _rising(nc - na, den, n) * _rising(nc - nb, den, n)
    rhs_den = _rising(nc, den, n) * _rising(nc - na - nb, den, n)
    if rhs_den == 0:
        # unreachable past the check (it makes c or 1+a+b-c-n a pole), but a
        # cross-multiplication by 0 would give a verdict instead of an error
        raise ZeroDivisionError("(c)_n (c-a-b)_n is 0: the product side has no value")
    num, sum_den = _sum_terms(upper, lower, n)
    return num * rhs_den == sum_den * rhs_num


def _rising(x: int, den: int, n: int) -> int:
    """den^n times (x/den)_n: the product of x + t*den for t < n."""
    return math.prod(range(x, x + n * den, den))


# ---------------------------------------------------------------------------
# vanishing column combinations at half-integer m
# ---------------------------------------------------------------------------

def half_root_valid_l(n: int, k: int) -> list:
    """The l values for which the column combination stays inside 1..n."""
    return [l for l in range(0, k + 1) if l >= 2 * k - n + 1]


def half_root_column_relation(n: int, k: int, l: int, i: int, s: int) -> bool:
    """sum_j C(l,j) * entry(i, n+2l-2k-j) at m = -k-1/2 equals zero.

    Valid for generic rows i != s+1, 1 <= k <= n-2 and l with the column
    window inside 1..n.
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    if i == s + 1 or not 1 <= i <= n:
        raise ValueError(f"row {i} is not a generic row")
    if not 1 <= k <= n - 2:
        raise ValueError(f"k={k} outside 1..{n - 2}")
    if l not in half_root_valid_l(n, k):
        raise ValueError(f"l={l} puts a column outside 1..{n}")
    m = -Fraction(2 * k + 1, 2)
    cols = range(n + l - 2 * k, n + 2 * l - 2 * k + 1)
    return _half_root_sum_is_zero(n, k, l, {j: lower_poly_entry(n, m, s, i, j) for j in cols})


def _half_root_sum_is_zero(n: int, k: int, l: int, row: dict) -> bool:
    """Whether sum_j C(l,j) * row[n+2l-2k-j] is 0, summed in ints over the
    entries' common denominator; row maps a column to its entry."""
    entries, _ = over_common_denominator(*(row[n + 2 * l - 2 * k - j] for j in range(l + 1)))
    return not sum(binomial(l, j) * e for j, e in enumerate(entries))


def paired_half_root_vectors(n: int, k: int, s: int) -> list:
    """Column vectors annihilating the whole matrix at m = -k-1/2.

    Each valid l gives a combination vanishing in the generic rows; pairing
    consecutive combinations against the defect row kills that row too,
    leaving min(k, n-k-1) vectors (their staggered supports make them
    independent).
    """
    m = -Fraction(2 * k + 1, 2)
    ls = half_root_valid_l(n, k)
    combos = []
    for l in ls:
        vec = [Fraction(0)] * n
        for j in range(0, l + 1):
            vec[n + 2 * l - 2 * k - j - 1] += binomial(l, j)
        combos.append(vec)

    def defect_row_dot(vec):
        return sum(
            c * lower_poly_entry(n, m, s, s + 1, j + 1) for j, c in enumerate(vec) if c
        )

    out = []
    for va, vb in zip(combos, combos[1:]):
        da, db = defect_row_dot(va), defect_row_dot(vb)
        out.append([db * x - da * y for x, y in zip(va, vb)])
    return out


# ---------------------------------------------------------------------------
# vanishing row combinations at negative integer m
# ---------------------------------------------------------------------------

def _variant_for(n: int, k: int, s: int) -> Optional[int]:
    """Which row-relation variant applies at (n, k, s), if any."""
    if k in (s, n - s) or not 0 <= k <= n:
        return None
    if k < s:
        return 1
    if k > n - s:
        return 2
    if 2 * k <= n:
        return 3
    return 4


def _low_root_coefficients(n: int, k: int, s: int) -> tuple:
    """Variant 1's coefficients at k < s: ({row i: coefficient} for the rows
    k+1..s, and the defect row's coefficient)."""
    half = Fraction(1, 2)
    rows = {}
    for i in range(k + 1, s + 1):
        t = i - k - 1
        rows[i] = (
            Fraction((-1) ** (i - k + 1))
            * binomial(s - k - 1, t)
            * pochhammer(n + half + 1 - i, t)
            * pochhammer(n - i + 1, t)
            / (pochhammer(s + half - i, t) * pochhammer(n - k - i + 1, t))
        )
    t = s - k
    tail = (
        Fraction((-1) ** (s - k + 2))
        * 2
        * pochhammer(n + half - s, t)
        * pochhammer(n - s + 1, t - 1)
        / (pochhammer(half, t - 1) * pochhammer(n - k - s + 1, t - 1))
    )
    return rows, tail


def integer_root_row_relation(n: int, k: int, s: int) -> tuple:
    """The stated combination of reduced-matrix rows at m = -k, column by column.

    Returns the combination's value in each of the n columns, as a tuple of
    `Fraction`s; the relation holds in column j exactly when entry j-1 is 0.
    The variant is the one `_variant_for` picks at (n, k, s); where none
    applies (k = s or k = n - s) this raises ValueError.  The row
    coefficients depend only on (n, k, s), so they are computed once for all
    columns, and only the reduced-matrix entries the combination reads are
    evaluated: the defect row, the rows in `rows`, and the rows in `ranged`
    in the columns their range reaches.  Requires s <= n/2.
    """
    if not (0 <= s <= n - 1 and 2 * s <= n):
        raise ValueError(f"rows relations assume 0 <= s <= n/2, got s={s}")
    variant = _variant_for(n, k, s)
    if variant is None:
        raise ValueError(f"no row relation applies at (n={n}, k={k}, s={s})")
    half = Fraction(1, 2)
    rows = {}     # row -> coefficient, in every column
    ranged = {}   # row -> coefficient, in the columns whose row range reaches it

    if variant == 1:
        rows, tail = _low_root_coefficients(n, k, s)
    elif variant == 2:
        # variant 1 at k' = n-k, with the defect row's coefficient negated
        rows, tail = _low_root_coefficients(n, n - k, s)
        tail = -tail
    else:
        # variants 3 and 4 share their shape; only the coefficient offsets differ
        if variant == 3:
            off, tail, outer = k, Fraction(-1), pochhammer(s - n + half, n - k - 1)
            denom_p = pochhammer(Fraction(n + 1 - s), -k)
        else:
            off, tail, outer = n - k, Fraction((-1) ** (n + 1)), pochhammer(
                s - n + half, k - 1
            )
            denom_p = pochhammer(Fraction(n + 1 - s), -(n - k))

        def coeff(i):
            t = i - off - 1
            return (
                Fraction((-4) ** (n - i))
                * pochhammer(s - i + 1, t)
                * outer
                / (factorial(2 * n - 2 * i + 1) * pochhammer(s + half - i, t) * denom_p)
            )

        for i in range(off + 1, (n + 1) // 2 + 1):
            rows[i] = coeff(i) * pochhammer(i - k, n + 1 - 2 * i)
        # column j sums rows (n + 3) // 2 .. (n + 1 + j) // 2 of this range
        for i in range((n + 3) // 2, n + 1):
            ranged[i] = coeff(i)

    # every coefficient over one denominator, so each column sums ints
    nums, den = over_common_denominator(*rows.values(), *ranged.values(), tail)
    rows = dict(zip(rows, nums))
    ranged = dict(zip(ranged, nums[len(rows):]))
    tail = nums[-1]

    def column_value(j):
        total = tail * reduced_poly_entry(n, -k, s, s + 1, j)
        for i, c in rows.items():
            total += c * reduced_poly_entry(n, -k, s, i, j)
        for i, c in ranged.items():
            if i <= (n + 1 + j) // 2:
                total += c * reduced_poly_entry(n, -k, s, i, j)
        return Fraction(total, den)

    return tuple(column_value(j) for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def run_vandermonde_suite(tuples: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < tuples:
        a, c = _random_rational(rng), _random_rational(rng)
        n = rng.randint(0, 8)
        # (c)_n == 0 exactly when c is an integer in (-n, 0]
        if c.denominator == 1 and 0 >= c > -n:
            continue
        done += 1
        if not vandermonde_check(a, n, c):
            failures.append({"a": str(a), "n": n, "c": str(c)})
    return {"suite": "vandermonde", "tuples_checked": done, "failures": failures}


def run_pfaff_suite(tuples: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < tuples:
        a, b, c = (_random_rational(rng) for _ in range(3))
        n = rng.randint(0, 6)
        # skip the tuple when c + t or d2 + t is 0 for some t < n, with
        # d2 = 1 + a + b - c - n: over one denominator den, x/den + t is 0 for
        # such a t exactly when den divides x and -n < x/den <= 0.  This also
        # skips c - a - b + t = 0, the product side's other pole: that makes
        # d2 + (n - 1 - t) = 0.
        (na, nb, nc), den = over_common_denominator(a, b, c)
        nd2 = na + nb - nc + (1 - n) * den
        if any(x % den == 0 and -n < x // den <= 0 for x in (nc, nd2)):
            continue
        done += 1
        if not pfaff_saalschuetz_check(a, b, n, c):
            failures.append({"a": str(a), "b": str(b), "n": n, "c": str(c)})
    return {"suite": "pfaff", "tuples_checked": done, "failures": failures}


def run_half_root_suite(max_n: int) -> dict:
    """Every column relation at every generic row, for n <= max_n.

    The entries at m = -k-1/2 depend only on (n, k, s), so each needed one
    is evaluated once: the valid l's windows n+l-2k .. n+2l-2k together
    span columns n+l_min-2k .. n.
    """
    failures = []
    done = 0
    for n in range(1, max_n + 1):
        for s in range(0, n):
            for k in range(1, n - 1):
                ls = half_root_valid_l(n, k)
                if len(ls) != min(k + 1, n - k):
                    failures.append({"n": n, "s": s, "k": k, "why": "l-count"})
                if not ls:
                    continue
                m = -Fraction(2 * k + 1, 2)
                cols = range(n + ls[0] - 2 * k, n + 1)
                rows = {
                    i: {j: lower_poly_entry(n, m, s, i, j) for j in cols}
                    for i in range(1, n + 1)
                    if i != s + 1
                }
                for l in ls:
                    for i, row in rows.items():
                        done += 1
                        if not _half_root_sum_is_zero(n, k, l, row):
                            failures.append({"n": n, "s": s, "k": k, "l": l, "i": i})
    return {"suite": "halb", "tuples_checked": done, "failures": failures}


def run_integer_root_suite(max_n: int) -> dict:
    failures = []
    done = 0
    for n in range(1, max_n + 1):
        for s in range(0, n // 2 + 1):
            for k in range(0, n + 1):
                variant = _variant_for(n, k, s)
                if variant is None:
                    continue
                values = integer_root_row_relation(n, k, s)
                done += len(values)
                for j, value in enumerate(values, start=1):
                    if value != 0:
                        failures.append({"n": n, "s": s, "k": k, "variant": variant, "j": j})
    return {"suite": "ganz", "tuples_checked": done, "failures": failures}
