"""Closed-form evaluators: conventions, frozen values, route agreement."""

import math
from fractions import Fraction

import pytest

from hexcount import formulas as f


def test_double_factorial_conventions():
    assert f.double_factorial(-1) == 1
    assert f.double_factorial(0) == 1
    assert f.double_factorial(1) == 1
    assert f.double_factorial(5) == 15
    assert f.double_factorial(6) == 48
    with pytest.raises(ValueError):
        f.double_factorial(-3)


def test_superfactorial():
    assert [f.superfactorial(n) for n in range(5)] == [1, 1, 1, 2, 12]


def test_binomial_lattice_semantics():
    assert f.binomial(4, 2) == 6
    assert f.binomial(4, -1) == 0
    assert f.binomial(4, 5) == 0
    with pytest.raises(ValueError):
        f.binomial(-1, 0)


def test_pochhammer():
    assert f.pochhammer(3, 0) == 1
    assert f.pochhammer(3, 3) == 60
    assert f.pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert f.pochhammer(-2, 4) == 0
    # reciprocal extension: (a)_(-k) = 1/(a-k)_k
    assert f.pochhammer(5, -2) == Fraction(1, 12)
    with pytest.raises(ValueError):
        f.pochhammer(2, -3)  # (2-3)_3 spans zero


def test_box_count_against_literal_triple_product():
    def literal(a, b, c):
        v = Fraction(1)
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                for k in range(1, c + 1):
                    v *= Fraction(i + j + k - 1, i + j + k - 2)
        assert v.denominator == 1
        return v.numerator

    for abc in [(1, 1, 1), (2, 2, 2), (3, 1, 2), (2, 3, 4), (4, 4, 6)]:
        assert f.box_count(*abc) == literal(*abc)


def naive_box_count(a, b, c):
    """The telescoped double product, multiplied out into two ints."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    q, r = divmod(num, den)
    assert r == 0
    return q


def test_box_count_prime_exponents_match_the_double_product():
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert f.box_count(a, b, c) == naive_box_count(a, b, c), (a, b, c)
    for side in (60, 110):
        assert f.box_count(side, side, side) == naive_box_count(side, side, side)


def test_box_count_values_and_degenerate_sides():
    assert f.box_count(1, 1, 1) == 2
    assert f.box_count(2, 2, 2) == 20
    assert f.box_count(3, 3, 0) == 1
    assert f.box_count(0, 5, 7) == 1


def test_box_count_symmetric_in_sides():
    assert f.box_count(2, 3, 4) == f.box_count(4, 2, 3) == f.box_count(3, 4, 2)


def test_even_case_small_values():
    assert f.even_case_count(1, 1, 0) == 1
    assert f.even_case_count(2, 1, 1) == 4
    # the running picture example: n=3, N=4, defect at the third axis vertex
    assert f.even_case_count(3, 2, 2) == 1176


def test_even_case_mirror_symmetry():
    for n in range(1, 6):
        for m in range(1, 4):
            for s in range(0, n + 1):
                assert f.even_case_count(n, m, s) == f.even_case_count(n, m, n - s)


def test_even_case_range_errors():
    for fn in (f.even_case_count, f.even_case_ratio):
        for args in [(2, 1, 3), (2, 1, -1), (2, 0, 1), (0, 1, 0), (1, 1, 2)]:
            with pytest.raises(ValueError):
                fn(*args)


def test_even_case_ratio_is_count_over_box():
    for n in range(1, 9):
        for m in range(1, 6):
            for s in range(0, n + 1):
                assert f.even_case_ratio(n, m, s) == Fraction(
                    f.even_case_count(n, m, s), f.box_count(n, n, 2 * m)
                )


def test_odd_case_small_values():
    assert f.odd_case_count(1, 1, 1) == 4
    assert f.odd_case_count(3, 2, 2) == 6720  # the odd-side picture example
    for m in range(0, 5):
        assert f.odd_case_count(1, m, 1) == (m + 1) ** 2


def test_odd_case_mirror_symmetry_and_errors():
    for n in range(1, 6):
        for m in range(0, 4):
            for s in range(1, n + 1):
                assert f.odd_case_count(n, m, s) == f.odd_case_count(n, m, n + 1 - s)
    with pytest.raises(ValueError):
        f.odd_case_count(2, 1, 0)


def test_combined_products_match_counts():
    for n in range(1, 5):
        for m in range(1, 4):
            for s in range(0, n + 1):
                assert f.even_case_product(n, m, s) == f.even_case_count(n, m, s)
            for s in range(1, n + 1):
                assert f.odd_case_product(n, m, s) == f.odd_case_count(n, m, s)


def test_half_closed_forms_recombine_to_even_count():
    for n in range(1, 5):
        for m in range(1, 4):
            for s in range(0, n + 1):
                value = (
                    Fraction(2) ** (n - 1)
                    * f.upper_half_count(n, m)
                    * f.lower_half_count(n, m, min(s, n - s))
                )
                assert value == f.even_case_count(n, m, s)


def test_lower_half_count_denominator_is_dyadic():
    for n in range(1, 5):
        for m in range(1, 4):
            for s in range(0, n):
                den = f.lower_half_count(n, m, s).denominator
                assert den & (den - 1) == 0


def reference_lower_half_det_closed(n, m, s):
    """The closed determinant as the two factor products, then divided by
    (m+s)(m+n-s)."""
    value = f.lower_half_leading_coefficient(n, s)
    for k in range(1, n - 1):
        value *= Fraction(2 * m + 2 * k + 1, 2) ** min(k, n - 1 - k)
    for k in range(0, n + 1):
        value *= Fraction(m + k) ** min(k + 1, n - k + 1)
    return value / Fraction((m + s) * (m + n - s))


def reference_odd_lower_half_count(n, m, s):
    """The odd lower half as one direct product; it is symmetric under
    s -> n+1-s, so it also covers s = n."""
    if n == 1:
        return Fraction(m + 1)
    value = Fraction(
        f.superfactorial(n - 1)
        * f.double_factorial(2 * n - 2 * s - 1)
        * f.double_factorial(2 * s - 3),
        f.factorial(n - s) * f.factorial(s - 1),
    )
    value *= Fraction(2) ** (math.comb(n - 2, 2) - 1)
    for i in range(0, n - 1):
        value /= f.factorial(2 * i + 1)
    for k in range(1, n - 2):
        value *= Fraction(2 * (m + 1) + 2 * k + 1, 2) ** min(k, n - 2 - k)
    for k in range(0, n):
        value *= Fraction(m + 1 + k) ** min(k + 1, n - k)
    return value


def test_lower_half_det_closed_equals_the_divided_factor_products():
    rational_ms = [Fraction(1, 3), Fraction(-7, 2), Fraction(5, 7), Fraction(-13, 5)]
    for n in range(1, 10):
        for s in range(0, n):
            for m in [1, 2, 3, 7, *rational_ms]:
                assert m not in (-s, -(n - s))
                assert f.lower_half_det_closed(n, m, s) == reference_lower_half_det_closed(n, m, s)


def test_odd_lower_half_count_equals_its_direct_product():
    # m = 0 is the cut side N = 1, s = n goes through the mirror, n = 1 is m+1
    for n in range(1, 10):
        for m in range(0, 7):
            for s in range(1, n + 1):
                assert f.odd_lower_half_count(n, m, s) == reference_odd_lower_half_count(n, m, s)
    with pytest.raises(ValueError):
        f.odd_lower_half_count(3, 1, 0)
    with pytest.raises(ValueError):
        f.odd_lower_half_count(3, 1, 4)


def test_upper_half_small():
    assert f.upper_half_count(1, 3) == 1
    assert f.upper_half_count(2, 1) == 2


def test_asymptotic_proportion_value():
    value = f.asymptotic_proportion(2, 2, 1)
    assert value == pytest.approx(math.sqrt(3) / (2 * math.pi), rel=1e-15)
    assert round(value, 2) == 0.28


def test_asymptotic_proportion_symmetries():
    assert f.asymptotic_proportion(4, 6, 1) == pytest.approx(
        f.asymptotic_proportion(8, 12, 2), rel=1e-15
    )
    assert f.asymptotic_proportion(5, 3, 2) == pytest.approx(
        f.asymptotic_proportion(5, 3, 3), rel=1e-15
    )


def test_asymptotic_proportion_rejects_bad_shape():
    with pytest.raises(ValueError):
        f.asymptotic_proportion(2, 2, 2)
    with pytest.raises(ValueError):
        f.asymptotic_proportion(2, 2, 0)
    with pytest.raises(ValueError):
        f.asymptotic_proportion(1, 2, 2)
