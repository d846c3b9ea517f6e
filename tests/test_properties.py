"""Seeded property tests over the defect parameters, edges included.

Examples are drawn deterministically (`derandomize=True`, no example
database), so every run checks the same cases.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexcount import geometry
from hexcount.routes import closed_route, count_tilings, det_route

def seeded(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@st.composite
def defect_cases(draw, max_n, max_N):
    """(n, N, s) with s in 0..n for even N and in 1..n for odd N."""
    n = draw(st.integers(1, max_n))
    N = draw(st.integers(1, max_N))
    s = draw(st.integers(N % 2, n))
    return n, N, s


def with_edges(*cases):
    """Always check these cases too: n = 1, N = 1, s = 0 and s = n."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


EDGES = [(1, 1, 1), (1, 2, 0), (1, 2, 1), (4, 1, 1), (4, 1, 4), (4, 6, 0), (4, 6, 4)]


@seeded(60)
@given(defect_cases(max_n=10, max_N=16))
@with_edges(*EDGES, (10, 16, 0), (10, 15, 10))
def test_routes_are_mirror_symmetric(case):
    n, N, s = case
    t = geometry.HexSpec(n, N, s).mirror_s
    assert closed_route(n, N, s) == closed_route(n, N, t)
    assert det_route(n, N, s) == det_route(n, N, t)


@seeded(30)
@given(defect_cases(max_n=4, max_N=6))
@with_edges(*EDGES)
def test_surrogate_region_factorizes(case):
    # the region remove_axis_defect builds, boundary s included, counts
    # 2^(n-1) * M(upper) * M(lower), every factor from the oracle
    n, N, s = case
    spec = geometry.HexSpec(n, N, s)
    whole = count_tilings(geometry.remove_axis_defect(spec))
    upper, lower = geometry.split_halves(spec)
    parts = Fraction(2) ** (n - 1) * count_tilings(upper) * count_tilings(lower)
    assert whole == parts
