"""The verify runner: one DP plan per kind of region in each (n, N) block, and the grid's edges."""

from collections import Counter

import pytest

from hexcount import formulas, geometry, matchcount, pathdet, routes
from test_matchcount import adjacent_pairs


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


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _corner_plus_one(real):
    """A path-matrix builder whose entry (1, 1) is one more."""
    def faulty(*args):
        matrix = real(*args)
        return ((matrix[0][0] + 1, *matrix[0][1:]), *matrix[1:])
    return faulty


def _drop_one_more(real):
    """remove_axis_defect dropping its region's smallest triangle as well."""
    def faulty(spec, hexagon=None):
        region = real(spec, hexagon)
        return region.remove([min(region.triangles)])
    return faulty


def _move_one_mark(real):
    """split_halves moving the lower half's first mark to its first unmarked pair."""
    def faulty(spec, region=None):
        upper, lower = real(spec, region)
        marks = sorted(lower.half_weight_edges, key=sorted)
        if marks:
            free = [pair for pair in sorted(adjacent_pairs(lower), key=sorted)
                    if pair not in lower.half_weight_edges]
            lower = geometry.TriRegion(lower.triangles, frozenset(marks[1:] + free[:1]))
        return upper, lower
    return faulty


# the leaf a row of the fault table breaks: (module, fault); any other name
# is a formulas function returning its value plus 1
FAULTS = {
    "count_subregions": (routes, lambda real: lambda base, regions: [
        value + 1 for value in real(base, regions)]),
    "count_tilings": (routes, _plus_one),
    "upper_path_matrix": (pathdet, _corner_plus_one),
    "lower_path_matrix": (pathdet, _corner_plus_one),
    "odd_lower_path_matrix": (pathdet, _corner_plus_one),
    "remove_axis_defect": (geometry, _drop_one_more),
    "split_halves": (geometry, _move_one_mark),
}


def _failures_with_one_more(monkeypatch, name):
    """Per check, the cases of verify_grid(3, 2) (18 even, 12 odd) that fail
    with the leaf `name` broken as FAULTS says, and per value that raised
    ArithmeticError, under "raised <value>", the cases it failed in."""
    module, fault = FAULTS.get(name, (formulas, _plus_one))
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    results = routes.verify_cases(routes.verify_grid(3, 2))
    assert len(results) == 30
    failures = Counter(check for r in results for check, ok in r["checks"].items() if not ok)
    failures.update(f"raised {value}" for r in results for value in r["failed"])
    for r in results:
        # one note per failed value names it
        named = [note.split(" value failed: ")[0] for note in r["notes"] if "value failed" in note]
        assert named == r["failed"], r["case"]
    return failures


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
    # a closed count one more is one more at the mirror case too, so
    # `mirror` holds
    ("even_case_count", {"product": 18, "determinant": 18, "oracle": 18}),
    ("odd_case_count", {"product": 12, "determinant": 12, "oracle": 12}),
    ("double_factorial", {"product": 28, "lower_half": 28}),
    # the oracle: one shared sweep per kind of region, and count_tilings
    # only for the boundary witness (the 12 boundary cases)
    ("count_subregions", {"oracle": 30, "factorization": 30, "upper_half": 30,
                          "lower_half": 18}),
    ("count_tilings", {"oracle": 12, "lower_half": 12}),
    # the path matrices are read by the det route alone
    ("upper_path_matrix", {"determinant": 30}),
    ("lower_path_matrix", {"determinant": 18}),
    ("odd_lower_path_matrix", {"determinant": 12}),
    # leaves whose fault makes a product fail to divide out: the value that
    # raised fails every check that reads it, and the other checks still run
    ("_upper_double_product", {"product": 30, "upper_half": 30,
                               "raised product": 12, "raised upper_half": 26}),
    ("box_count", {"product": 30, "determinant": 30, "mirror": 29, "oracle": 30,
                   "raised closed": 29, "raised mirror": 29}),
    ("binomial", {"product": 30, "determinant": 30, "mirror": 29, "oracle": 30,
                  "raised closed": 29, "raised mirror": 29}),
    ("superfactorial", {"product": 30, "upper_half": 30, "lower_half": 28,
                        "raised product": 5, "raised upper_half": 9}),
    ("factorial", {"product": 30, "upper_half": 30, "lower_half": 28,
                   "raised product": 11, "raised upper_half": 26}),
    # the regions: a dropped triangle leaves the defect region, its lower
    # half and the boundary witness untileable; a moved mark changes the
    # weight of a lower half with marks
    ("remove_axis_defect", {"oracle": 30, "lower_half": 30}),
    ("split_halves", {"factorization": 13, "lower_half": 15, "oracle": 8}),
])
def test_a_wrong_half_closed_form_fails_the_half_and_product_checks(monkeypatch, name,
                                                                  failures):
    assert _failures_with_one_more(monkeypatch, name) == failures
