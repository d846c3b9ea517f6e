"""Closed-form product evaluations for hexagon tiling counts.

Everything in this module is a pure evaluator of a hypergeometric-style
product: MacMahon's box formula, the two closed forms for a hexagon with a
two-triangle defect on its symmetry axis (even and odd cut side), the closed
forms for the weighted matching counts of the upper and lower halves, and the
asymptotic proportion of defective tilings among all tilings.

Each formula of the half closed forms is written once here: the exponent
tables of the lower-half determinant's linear factors (m+k+1/2) and (m+k)
(`half_factor_requirements`, `integer_factor_requirements`), which
`lower_half_det_closed`, `even_case_product` and the factor checks of
`polyfactor` all read; the upper half's double product of (2m+2j-i); and
the odd lower half, which is the even lower half at (n-1, m+1, s-1).

All counting formulas are evaluated in exact rational arithmetic.  The counts
are asserted integral at the end, so a non-integral count is a hard failure,
never a truncation; the two combined products are returned exactly, and the
verification suite compares them with the counts.  Floats appear only in
`asymptotic_proportion`, which is a limit statement rather than a count.

Conventions used throughout the package live here:

    h(n)   = 0! 1! ... (n-1)!          (superfactorial), h(0) = h(1) = 1
    n!!    = n (n-2) (n-4) ...,        (-1)!! = 0!! = 1
    (a)_k  = a (a+1) ... (a+k-1),      (a)_0 = 1, (a)_(-k) = 1 / (a-k)_k
    C(a,b) = 0 for b < 0 or b > a      (lattice-path semantics, a >= 0)
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1."""
    if n in (-1, 0):
        return 1
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def superfactorial(n: int) -> int:
    """h(n) = product of i! for 0 <= i < n; h(0) = 1."""
    if n < 0:
        raise ValueError(f"superfactorial of negative argument {n}")
    out, fact = 1, 1
    for i in range(1, n):
        fact *= i
        out *= fact
    return out


def binomial(a: int, b: int) -> int:
    """C(a, b) for integer a >= 0, zero outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial with negative upper index {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def pochhammer(a: Rational, k: int) -> Rational:
    """Shifted factorial (a)_k = a(a+1)...(a+k-1).

    Empty products are 1.  Negative k uses the reciprocal extension
    (a)_(-k) = 1/(a-k)_k and raises if that hits a zero factor.  An int a
    gives an int; a `Fraction` a gives a `Fraction`, built once from the
    integer products of its numerators and denominator.
    """
    if k < 0:
        denom = pochhammer(a + k, -k)
        if denom == 0:
            raise ValueError(f"pochhammer pole: ({a})_({k})")
        return Fraction(1, 1) / denom
    if isinstance(a, int):
        return math.prod(range(a, a + k))
    # a = p/q: the product of the p + t*q over q^k, normalised once
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + k * q, q)), q**k)


def over_common_denominator(*xs: Rational) -> tuple:
    """The numerators of the rationals xs over their lcm denominator, and it."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


# ---------------------------------------------------------------------------
# MacMahon's box formula
# ---------------------------------------------------------------------------

def box_count(a: int, b: int, c: int) -> int:
    """Number of rhombus tilings of the full hexagon with sides a, b, c.

    This is the triple product over 1<=i<=a, 1<=j<=b, 1<=k<=c of
    (i+j+k-1)/(i+j+k-2).  The inner k-product telescopes to
    (i+j+c-1)/(i+j-1), and i+j = t for min(t-1, a, b, a+b+1-t) of the pairs,
    so the product is that of ((t+c-1)/(t-1))^min(...) over 2 <= t <= a+b.
    It is evaluated as a product of prime powers, each prime's exponent
    summed over those factors; a negative exponent (a non-integral product)
    is an exactness failure.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"box_count needs nonnegative sides, got {(a, b, c)}")
    top = a + b + c
    # the exponent of each integer k <= top, then of each prime
    exponent = [0] * (top + 1)
    for t in range(2, a + b + 1):
        mult = min(t - 1, a, b, a + b + 1 - t)
        exponent[t + c - 1] += mult
        exponent[t - 1] -= mult
    # from the top down, move a composite's exponent onto its smallest prime
    # factor and its cofactor, both smaller and so still ahead
    for k in range(top, 3, -1):
        e = exponent[k]
        if e:
            p = 2
            while p * p <= k:
                if k % p == 0:
                    exponent[k] = 0
                    exponent[p] += e
                    exponent[k // p] += e
                    break
                p += 1
    if any(e < 0 for e in exponent[2:]):
        raise ArithmeticError("box product did not divide out")
    return math.prod(p**e for p, e in enumerate(exponent) if p > 1 and e)


# ---------------------------------------------------------------------------
# the two defect-count closed forms
# ---------------------------------------------------------------------------

def _check_case(n: int, m: int, s: int, even: bool) -> None:
    """Raise ValueError unless (n, m, s) is in range for the even or the odd case."""
    low_m, low_s = (1, 0) if even else (0, 1)
    if n < 1 or m < low_m:
        raise ValueError(f"need n >= 1 and m >= {low_m}, got n={n}, m={m}")
    if not low_s <= s <= n:
        raise ValueError(f"defect index s={s} outside {low_s}..{n}")


def _even_case_quotient(n: int, m: int, s: int) -> tuple:
    """Numerator and denominator of even_case_count / box_count(n, n, 2m):
    (2m-1) C(2m-2,m-1) C(2n-2s,n-s) C(2s,s) and C(2m+2n,m+n)."""
    _check_case(n, m, s, even=True)
    num = (
        (2 * m - 1)
        * binomial(2 * m - 2, m - 1)
        * binomial(2 * n - 2 * s, n - s)
        * binomial(2 * s, s)
    )
    return num, binomial(2 * m + 2 * n, m + n)


def even_case_count(n: int, m: int, s: int) -> int:
    """Tilings of the hexagon n,n,2m,n,n,2m minus the axis defect at vertex s+1.

    The axis vertices are numbered 1..n+1 from left to right, the two outer
    ones being the midpoints of the sides of length 2m; hence 0 <= s <= n,
    with s and n-s giving mirror-image defects and equal counts.
    """
    num, den = _even_case_quotient(n, m, s)
    q, r = divmod(num * box_count(n, n, 2 * m), den)
    if r:
        raise ArithmeticError("even-case product did not divide out")
    return q


def even_case_ratio(n: int, m: int, s: int) -> Fraction:
    """even_case_count(n, m, s) divided by box_count(n, n, 2m), exactly.

    The box count is a factor of the even-case product, so it cancels:
    four binomials instead of the O(n^2) box product.  Same ranges as
    even_case_count.
    """
    return Fraction(*_even_case_quotient(n, m, s))


def odd_case_count(n: int, m: int, s: int) -> int:
    """Tilings of the hexagon n,n,2m+1,n,n,2m+1 minus the axis defect at vertex s.

    For odd cut sides all n axis vertices are interior, so 1 <= s <= n; the
    count is invariant under s -> n+1-s.
    """
    _check_case(n, m, s, even=False)
    num = (
        (2 * m + 1)
        * binomial(2 * m, m)
        * binomial(2 * n - 2 * s, n - s)
        * binomial(2 * s - 2, s - 1)
        * box_count(n, n, 2 * m + 1)
    )
    den = binomial(2 * m + 2 * n, m + n)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("odd-case product did not divide out")
    return q


# ---------------------------------------------------------------------------
# closed forms for the two halves of the split graph
# ---------------------------------------------------------------------------

def _upper_double_product(n: int, m: int) -> int:
    """prod(2m+2j-i) over 2 <= i <= j <= n."""
    return math.prod(2 * m + 2 * j - i for j in range(2, n + 1) for i in range(2, j + 1))


def upper_half_count(n: int, m: int) -> int:
    """Matching count of the upper half: h(n) prod(2m+2j-i) / prod (2j-2)!.

    The double product runs over 2 <= i <= j <= n.  Independent of the defect
    position s, since the defect only removes axis cells.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    num = superfactorial(n) * _upper_double_product(n, m)
    den = 1
    for j in range(1, n + 1):
        den *= factorial(2 * j - 2)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("upper-half product did not divide out")
    return q


def half_factor_requirements(n: int) -> list:
    """(k, exponent) of the half-integer factors (m+k+1/2) of the lower-half
    determinant: min(k, n-1-k) for k = 1..n-2."""
    return [(k, min(k, n - 1 - k)) for k in range(1, n - 1)]


def integer_factor_requirements(n: int, s: int) -> list:
    """(k, exponent) of the integer factors (m+k) of the lower-half
    determinant, k = 0..n.

    The base exponent min(k+1, n-k+1) drops by one at k = s and at k = n-s.
    """
    return [(k, min(k + 1, n - k + 1) - (k == s) - (k == n - s)) for k in range(n + 1)]


def linear_factor_product(n: int, m: Rational, s: int) -> Fraction:
    """The product of the lower-half determinant's linear factors at m:
    each (m+k+1/2) and (m+k) to its exponent in the two tables above."""
    out = Fraction(1)
    for k, e in half_factor_requirements(n):
        out *= Fraction(2 * m + 2 * k + 1, 2) ** e
    for k, e in integer_factor_requirements(n, s):
        out *= Fraction(m + k) ** e
    return out


def lower_half_leading_coefficient(n: int, s: int) -> Fraction:
    """Leading coefficient in m of the lower-half polynomial determinant:
    2^C(n-1,2) h(n) (2n-2s-1)!! (2s-1)!! / ((n-s-1)! s!)."""
    return Fraction(
        2 ** math.comb(n - 1, 2)
        * superfactorial(n)
        * double_factorial(2 * n - 2 * s - 1)
        * double_factorial(2 * s - 1),
        factorial(n - s - 1) * factorial(s),
    )


def lower_half_prefactor(n: int, m: int, s: int) -> Fraction:
    """The factor turning the polynomial determinant into the lower-half count:
    (n+m-s)(s+m) / ((2n-2s) prod_{i=1..n} (2n+1-2i)!)."""
    den = 2 * n - 2 * s
    for i in range(1, n + 1):
        den *= factorial(2 * n + 1 - 2 * i)
    return Fraction((n + m - s) * (s + m), den)


def lower_half_det_closed(n: int, m: Rational, s: int) -> Fraction:
    """Closed form for the determinant of the lower-half polynomial matrix.

    Valid for 0 <= s <= n-1.  As a function of m this is a constant (its
    leading coefficient) times the linear factors (m+k+1/2) and (m+k), each
    to its exponent in `half_factor_requirements` and
    `integer_factor_requirements`.
    """
    if not 0 <= s <= n - 1:
        raise ValueError(f"defect index s={s} outside 0..{n - 1}")
    return lower_half_leading_coefficient(n, s) * linear_factor_product(n, m, s)


def lower_half_count(n: int, m: int, s: int) -> Fraction:
    """Weighted matching count of the lower half (prefactor times determinant).

    The count is a dyadic rational: the lower half carries weight-1/2 rhombus
    positions along the symmetry axis.  Valid for 0 <= s <= n-1; the s = n
    defect is the mirror image of s = 0.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return lower_half_prefactor(n, m, s) * lower_half_det_closed(n, m, s)


# ---------------------------------------------------------------------------
# combined product expressions (alternative routes to the two counts)
# ---------------------------------------------------------------------------

def even_case_product(n: int, m: int, s: int) -> Fraction:
    """Even-case count as one combined product over linear factors in m.

    Equals even_case_count(n, m, s); the agreement of the two is one of the
    cross-checks run by the verification suite.  The product is returned as
    it comes out, so a non-integral one fails that comparison.
    """
    _check_case(n, m, s, even=True)
    value = Fraction(
        superfactorial(n) ** 2
        * double_factorial(2 * n - 2 * s - 1)
        * double_factorial(2 * s - 1),
        superfactorial(2 * n) * factorial(n - s) * factorial(s),
    )
    value *= Fraction(2) ** (math.comb(n, 2) - 1) * _upper_double_product(n, m)
    # the lower prefactor's (m+s)(m+n-s) restores the two factors the
    # integer table leaves out
    return value * (m + s) * (m + n - s) * linear_factor_product(n, m, s)


def odd_upper_half_count(n: int, m: int) -> int:
    """Matching count of the odd-case upper half.

    Forced border tiles reduce the odd upper half at (n, m) to the even upper
    half at (n+1, m), so this is upper_half_count(n + 1, m).
    """
    return upper_half_count(n + 1, m)


def odd_lower_half_count(n: int, m: int, s: int) -> Fraction:
    """Weighted matching count of the odd-case lower half, 1 <= s <= n.

    Row expansion of its path matrix reduces it to the even lower half at
    (n-1, m+1, s-1); s = n is the mirror image of s = 1.  The n = 1 lower
    half is a forced strip with m+1 tilings.
    """
    _check_case(n, m, s, even=False)
    if n == 1:
        return Fraction(m + 1)
    if s == n:
        s = 1
    return lower_half_count(n - 1, m + 1, s - 1)


def odd_case_product(n: int, m: int, s: int) -> Fraction:
    """Odd-case count as 2^(n-1) times the two half closed forms.

    Must equal odd_case_count(n, m, s); like `even_case_product`, it is
    returned as it comes out, integral or not.
    """
    _check_case(n, m, s, even=False)
    return 2 ** (n - 1) * odd_upper_half_count(n, m) * odd_lower_half_count(n, m, s)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def asymptotic_proportion(alpha: float, beta: float, gamma: float) -> float:
    """Limit of defect-count / box-count for sides (alpha t, beta t), defect
    at vertex gamma t, as t grows.

    Evaluates (1/4pi) sqrt(beta (2 alpha + beta) / (gamma (alpha - gamma))).
    Homogeneous of degree zero and symmetric under gamma -> alpha - gamma.
    """
    if not (alpha > 0 and beta > 0 and gamma > 0):
        raise ValueError("alpha, beta, gamma must be positive")
    if gamma >= alpha:
        raise ValueError(f"need gamma < alpha, got gamma={gamma}, alpha={alpha}")
    return math.sqrt(beta * (2 * alpha + beta) / (gamma * (alpha - gamma))) / (4 * math.pi)
