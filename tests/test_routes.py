"""The verify runner: one DP plan per kind of region in each (n, N) block, and the grid's edges."""

from collections import Counter

import pytest

from hexcount import formulas, matchcount, pathdet, routes


def test_verify_cases_counts_each_distinct_region_once_per_block(monkeypatch):
    real = matchcount._plan
    calls = []

    def counted(g):
        calls.append(len(g.verts))
        return real(g)

    monkeypatch.setattr(matchcount, "_plan", counted)
    cases = routes.verify_grid(4, 4)
    first = routes.verify_cases(cases)
    # per block: one plan each for the hexagon (all defect regions), its
    # lower half (all lower halves) and its upper half (all upper halves),
    # and one for the boundary witness in the 16 even blocks: 32 * 3 + 16
    assert len(calls) == 112  # 320 with one plan per case and region
    assert all(r["agree"] for r in first) and len(first) == len(cases) == 96
    # the counts end with their block: a second run plans everything again
    second = routes.verify_cases(cases)
    assert len(calls) == 224
    strip = [{k: v for k, v in r.items() if k != "wall_s"} for r in first]
    assert strip == [{k: v for k, v in r.items() if k != "wall_s"} for r in second]


def _counting_plans(monkeypatch):
    plans = []
    real = matchcount._plan
    monkeypatch.setattr(matchcount, "_plan", lambda g: plans.append(len(g.verts)) or real(g))
    return plans


@pytest.mark.parametrize("cases", [[(3, 4, 1), (3, 4, 2)], [(3, 5, 1), (3, 5, 2), (3, 5, 3)]])
def test_a_block_without_a_boundary_case_never_counts_the_witness(monkeypatch, cases):
    plans = _counting_plans(monkeypatch)

    def no_witness(n, m):
        raise AssertionError("the boundary witness was built")

    monkeypatch.setattr(routes, "boundary_witness_region", no_witness)
    results = routes.verify_cases(cases)
    assert len(plans) == 3  # the hexagon, its upper half and its lower half
    assert all(r["agree"] for r in results)


def test_a_boundary_block_counts_its_witness_once_in_any_order(monkeypatch):
    plans = _counting_plans(monkeypatch)
    results = routes.verify_cases([(2, 4, 1), (2, 4, 0)])
    assert len(plans) == 4
    strip = [{k: v for k, v in r.items() if k != "wall_s"} for r in results]
    in_order = routes.verify_cases([(2, 4, 0), (2, 4, 1)])
    assert strip[::-1] == [{k: v for k, v in r.items() if k != "wall_s"} for r in in_order]


def test_verify_cases_keep_the_order_of_an_unsorted_list():
    cases = [(2, 3, 2), (1, 2, 0), (2, 3, 1), (1, 2, 1)]
    assert [tuple(r["case"].values()) for r in routes.verify_cases(cases)] == cases


def test_verify_cases_at_the_edges():
    # the N = 1 rows (odd, m = 0), which verify_grid leaves out, and the
    # n = 1 blocks from N = 1 to N = 9
    rows = [(n, 1, s) for n in range(1, 5) for s in range(1, n + 1)]
    thin = [(1, N, s) for N in range(1, 10) for s in range(N % 2, 2)]
    for cases in (rows, thin):
        results = routes.verify_cases(cases)
        assert [tuple(r["case"].values()) for r in results] == cases
        for r in results:
            assert r["agree"] and all(r["checks"].values()), r["case"]


def test_a_wrong_determinant_fails_only_the_determinant_check(monkeypatch):
    # det_exact is reached only through the det route: a determinant off by
    # one fails that check in every case, and no other check in any
    real = pathdet.det_exact
    monkeypatch.setattr(pathdet, "det_exact", lambda matrix: real(matrix) + 1)
    results = routes.verify_cases(routes.verify_grid(3, 2))
    assert len(results) == 30
    for r in results:
        assert {name for name, ok in r["checks"].items() if not ok} == {"determinant"}, r["case"]


def _failures_with_one_more(monkeypatch, name):
    """Per check, the cases of verify_grid(3, 2) (18 even, 12 odd) that fail
    when formulas.<name> returns its value plus 1."""
    real = getattr(formulas, name)
    monkeypatch.setattr(formulas, name, lambda *args: real(*args) + 1)
    results = routes.verify_cases(routes.verify_grid(3, 2))
    assert len(results) == 30
    return Counter(check for r in results for check, ok in r["checks"].items() if not ok)


@pytest.mark.parametrize("name, failures", [
    # the odd product route is 2^(n-1) times the two half closed forms
    ("upper_half_count", {"upper_half": 30, "product": 12}),
    # the odd lower half is the even one at (n-1, m+1, s-1), except at n = 1
    ("lower_half_count", {"lower_half": 18 + 10, "product": 10}),
    ("odd_lower_half_count", {"lower_half": 12, "product": 12}),
    # a non-integral combined product fails the product check, and the
    # other checks still run: the even product reads the linear factors
    # directly, the odd one through the lower half (except at n = 1)
    ("linear_factor_product", {"product": 18 + 10, "lower_half": 18 + 10}),
    ("lower_half_det_closed", {"lower_half": 18 + 10, "product": 10}),
])
def test_a_wrong_half_closed_form_fails_the_half_and_product_checks(monkeypatch, name,
                                                                  failures):
    assert _failures_with_one_more(monkeypatch, name) == failures
