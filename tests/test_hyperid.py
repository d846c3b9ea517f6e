"""Summation identities and the vanishing linear relations."""

import random
from fractions import Fraction

import pytest

from hexcount import hyperid as hy
from hexcount.formulas import pochhammer
from hexcount.pathdet import lower_poly_entry, reduced_poly_matrix


def test_terminating_sum_basics():
    one_term = hy.HypergeomSpec((Fraction(0),), (Fraction(5),), 0)
    assert hy.terminating_sum(one_term) == 1
    # a zero upstairs kills every later term
    spec = hy.HypergeomSpec((Fraction(7, 2), Fraction(0)), (Fraction(3),), 6)
    assert hy.terminating_sum(spec) == 1


def test_terminating_sum_two_terms_by_hand():
    # sum over t of (-1)_t (-n)_t / ((c)_t t!) = 1 + n/c
    for n in range(0, 5):
        c = Fraction(7, 2)
        spec = hy.HypergeomSpec((Fraction(-1), Fraction(-n)), (c,), n)
        assert hy.terminating_sum(spec) == 1 + Fraction(n) / c


def test_hypergeom_spec_validation():
    with pytest.raises(ValueError):
        hy.HypergeomSpec((Fraction(1, 2),), (Fraction(2),), 3)  # never terminates
    with pytest.raises(ValueError):
        hy.HypergeomSpec((Fraction(-5),), (Fraction(-2),), 5)  # pole inside sum


def test_summation_checks_reject_what_the_spec_rejects():
    # a pole in c
    with pytest.raises(ValueError, match="lower parameter -1 vanishes"):
        hy.vandermonde_check(Fraction(1), 3, Fraction(-1))
    with pytest.raises(ValueError, match="lower parameter -2 vanishes"):
        hy.pfaff_saalschuetz_check(Fraction(1, 2), Fraction(1, 3), 4, Fraction(-2))
    # n < 0
    with pytest.raises(ValueError, match="termination index must be nonnegative"):
        hy.vandermonde_check(Fraction(1), -1, Fraction(2))
    with pytest.raises(ValueError, match="termination index must be nonnegative"):
        hy.pfaff_saalschuetz_check(Fraction(1), Fraction(2), -1, Fraction(5, 2))
    # (c-a-b)_n = 0 makes the balancing parameter 1+a+b-c-n a pole as well,
    # and that is what is reported
    with pytest.raises(ValueError, match="lower parameter 0 vanishes"):
        hy.pfaff_saalschuetz_check(Fraction(1, 2), Fraction(3, 2), 2, Fraction(1))


def test_pfaff_product_side_over_zero_raises(monkeypatch):
    # past the parameter check, a zero product denominator is an error, not
    # a cross-multiplied verdict
    monkeypatch.setattr(hy, "_check_terminating", lambda upper, lower, termination: None)
    with pytest.raises(ZeroDivisionError):
        hy.pfaff_saalschuetz_check(Fraction(1, 2), Fraction(3, 2), 2, Fraction(1))


def test_vandermonde_small_cases():
    assert hy.vandermonde_check(Fraction(3, 4), 0, Fraction(5))
    assert hy.vandermonde_check(Fraction(-1), 1, Fraction(2))
    lhs = hy.terminating_sum(hy.HypergeomSpec((Fraction(-1), Fraction(-1)), (Fraction(2),), 1))
    assert lhs == Fraction(3, 2)


def test_vandermonde_suite_clean():
    report = hy.run_vandermonde_suite(200, seed=7)
    assert report["tuples_checked"] == 200
    assert report["failures"] == []


def test_pfaff_half_family():
    # the balanced series with 1/2 upstairs, as used by the row relations;
    # parameter combinations that hit a pole of the identity are skipped
    checked = 0
    for b in range(1, 4):
        for n in range(0, 4):
            for c in (Fraction(5, 2), Fraction(7, 2), Fraction(4)):
                try:
                    assert hy.pfaff_saalschuetz_check(Fraction(1, 2), Fraction(b), n, c)
                except (ValueError, ZeroDivisionError):
                    continue
                checked += 1
    assert checked >= 24


def test_pfaff_suite_clean():
    report = hy.run_pfaff_suite(200, seed=7)
    assert report["tuples_checked"] == 200
    assert report["failures"] == []


def ref_pfaff_tuples(tuples, seed):
    """The suite's draws, rejected the plain way: term by term in Fractions."""
    rng = random.Random(seed)
    out = []
    while len(out) < tuples:
        a, b, c = (Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(3))
        n = rng.randint(0, 6)
        d2 = 1 + a + b - c - n
        if any(c + t == 0 or d2 + t == 0 or c - a - b + t == 0 for t in range(n)):
            continue
        out.append((a, b, n, c))
    return out


def test_pfaff_suite_checks_the_reference_tuples(monkeypatch):
    real = hy.pfaff_saalschuetz_check
    seen = []

    def recorded(a, b, n, c):
        seen.append((a, b, n, c))
        return real(a, b, n, c)

    monkeypatch.setattr(hy, "pfaff_saalschuetz_check", recorded)
    for seed in (1, 7, 16):
        seen.clear()
        assert hy.run_pfaff_suite(400, seed=seed)["failures"] == []
        assert seen == ref_pfaff_tuples(400, seed)


# --- half-integer column relations -------------------------------------------

def test_half_root_l_window_size():
    for n in range(2, 9):
        for k in range(1, n - 1):
            assert len(hy.half_root_valid_l(n, k)) == min(k + 1, n - k)


def test_half_root_relations_vanish():
    report = hy.run_half_root_suite(6)
    assert report["failures"] == []
    assert report["tuples_checked"] > 0


def test_half_root_vacuous_for_n2():
    # no k in 1..n-2 exists, so the suite has nothing to check
    assert hy.run_half_root_suite(2) == {"suite": "halb", "tuples_checked": 0, "failures": []}


def test_half_root_range_validation():
    # row 2 is generic at s = 0, so each call fails the check it names
    with pytest.raises(ValueError, match="row 2 is not a generic row"):
        hy.half_root_column_relation(5, 2, 0, 2, 1)  # i == s+1
    with pytest.raises(ValueError, match="l=5 puts a column outside"):
        hy.half_root_column_relation(5, 2, 5, 2, 0)  # l > k
    with pytest.raises(ValueError, match="k=4 outside"):
        hy.half_root_column_relation(5, 4, 0, 2, 0)  # k > n-2
    with pytest.raises(ValueError, match="defect index s=5"):
        hy.half_root_column_relation(5, 2, 0, 2, 5)  # s > n-1


def test_every_half_root_relation_holds_one_at_a_time():
    # the suite's relations, each evaluated on its own
    relations = [(n, k, l, i, s) for n in range(1, 8) for s in range(n)
                 for k in range(1, n - 1) for l in hy.half_root_valid_l(n, k)
                 for i in range(1, n + 1) if i != s + 1]
    assert len(relations) == hy.run_half_root_suite(7)["tuples_checked"]
    for relation in relations:
        assert hy.half_root_column_relation(*relation), relation


def test_paired_half_root_vectors_annihilate_everything():
    for n in range(2, 7):
        for s in range(0, n):
            for k in range(1, n - 1):
                vectors = hy.paired_half_root_vectors(n, k, s)
                assert len(vectors) == min(k, n - k - 1)
                m = -Fraction(2 * k + 1, 2)
                for vec in vectors:
                    for i in range(1, n + 1):
                        dot = sum(
                            c * lower_poly_entry(n, m, s, i, j + 1)
                            for j, c in enumerate(vec)
                            if c
                        )
                        assert dot == 0


# --- integer row relations ----------------------------------------------------

def test_integer_root_relations_vanish():
    # n up to 9 runs the shared variant 1/2 coefficients past the benchmark's n = 7
    report = hy.run_integer_root_suite(9)
    assert report["failures"] == []
    assert report["tuples_checked"] > 0


def test_integer_root_variant_dispatch():
    assert hy._variant_for(6, 1, 2) == 1
    assert hy._variant_for(6, 5, 2) == 2
    assert hy._variant_for(6, 3, 2) == 3
    assert hy._variant_for(6, 4, 1) == 4
    assert hy._variant_for(6, 2, 2) is None  # k == s
    assert hy._variant_for(6, 4, 2) is None  # k == n-s


def test_integer_root_range_validation():
    with pytest.raises(ValueError):
        hy.integer_root_row_relation(6, 3, 4)  # s > n/2
    with pytest.raises(ValueError, match="no row relation"):
        hy.integer_root_row_relation(6, 2, 2)  # k == s


def test_variant4_tail_sign_depends_on_parity():
    # flipping the (-1)^n on the final term must break the relation
    found = []
    for n, k, s in [(4, 3, 0), (5, 3, 1), (6, 4, 1), (7, 4, 2)]:
        if hy._variant_for(n, k, s) != 4:
            continue
        cmat = reduced_poly_matrix(n, Fraction(-k), s)
        for j in range(1, n + 1):
            if cmat[s][j - 1] != 0:
                assert hy.integer_root_row_relation(n, k, s)[j - 1] == 0
                found.append((n, k, s, j))
                break
    assert found


def test_merged_sum_term_identity():
    # inside the first sum of variants 3 and 4, (i-k)_(n+1-2i) times the
    # unreduced row equals the reduced-row expression, wherever the
    # negative-index form is defined
    checked = 0
    for n in range(3, 7):
        for s in range(0, n // 2 + 1):
            if s > n - 1:
                continue
            for k in range(s + 1, n - s):
                cmat = reduced_poly_matrix(n, Fraction(-k), s)
                for i in range(k + 1, (n + 1) // 2 + 1):
                    if i == s + 1:
                        continue
                    for j in range(1, n + 1):
                        try:
                            rhs = (
                                Fraction(pochhammer(n + 2 + j - 2 * i, n - j))
                                * pochhammer(Fraction(i - k + 1 - j), j - 2 * i + n)
                                * (-2 * k + n + 1 - j)
                            )
                        except ValueError:
                            continue  # reciprocal form hits a pole; skip
                        lhs = pochhammer(Fraction(i - k), n + 1 - 2 * i) * cmat[i - 1][j - 1]
                        assert lhs == rhs
                        checked += 1
    assert checked > 50


# --- one evaluation per (n, k, s) ---------------------------------------------

def _integer_root_triples(max_n):
    return [
        (n, s, k)
        for n in range(1, max_n + 1)
        for s in range(0, n // 2 + 1)
        if s <= n - 1
        for k in range(0, n + 1)
        if hy._variant_for(n, k, s) is not None
    ]


def test_integer_root_relation_returns_every_column():
    report = hy.run_integer_root_suite(7)
    assert report["tuples_checked"] == 412
    assert report["failures"] == []
    for n, s, k in _integer_root_triples(7):
        values = hy.integer_root_row_relation(n, k, s)
        assert len(values) == n
        assert all(type(v) is Fraction and v == 0 for v in values)


def test_perturbed_defect_row_fails_once_per_triple(monkeypatch):
    # one wrong entry in column 1 of the defect row must surface in column 1
    # of every triple, and nowhere else
    real = hy.reduced_poly_entry

    def perturbed(n, m, s, i, j):
        return real(n, m, s, i, j) + (i == s + 1 and j == 1)

    monkeypatch.setattr(hy, "reduced_poly_entry", perturbed)
    report = hy.run_integer_root_suite(7)
    triples = _integer_root_triples(7)
    assert report["tuples_checked"] == 412
    assert len(report["failures"]) == len(triples)
    assert sorted((f["n"], f["s"], f["k"]) for f in report["failures"]) == sorted(triples)
    assert {f["j"] for f in report["failures"]} == {1}


def test_summation_checks_take_int_and_fraction_parameters_alike():
    for a, b, n, c in [(1, 2, 3, 7), (-2, 5, 2, 4), (3, Fraction(1, 2), 4, 9)]:
        assert hy.vandermonde_check(a, n, c) == hy.vandermonde_check(Fraction(a), n, Fraction(c))
        assert hy.pfaff_saalschuetz_check(a, b, n, c) == \
            hy.pfaff_saalschuetz_check(Fraction(a), Fraction(b), n, Fraction(c))
    assert hy.vandermonde_check(1, 3, 5)
