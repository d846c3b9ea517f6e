"""The matching oracle: DP against backtracking, closed forms, determinism,
and the fused sweep against unit steps."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcount import geometry as g
from hexcount import matchcount as mc
from hexcount import routes
from hexcount.formulas import box_count
from hexcount.geometry import UP, HexSpec, down, up
from test_geometry import covers_exactly, reflect_axis

# above this many vertices, enumeration stops being a sane oracle
BACKTRACK_CAP = 40

# hexagons of at most BACKTRACK_CAP triangles
SMALL_SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 4), (2, 2, 3),
                (1, 3, 3), (2, 2, 4)]


def adjacent_pairs(region):
    """Every unordered adjacent pair inside the region, once each."""
    for t in region.triangles:
        if t.orient == UP:
            for nb in t.neighbors():
                if nb in region.triangles:
                    yield frozenset((t, nb))


def random_subregion(rng, shapes=SMALL_SHAPES):
    """A small hexagon minus a few triangles (sometimes unbalanced), with
    weight-1/2 marks on random adjacent pairs half of the time."""
    hexagon = g.build_hexagon(*rng.choice(shapes))
    ups = sorted(t for t in hexagon.triangles if t.orient == UP)
    downs = sorted(t for t in hexagon.triangles if t.orient != UP)
    k = rng.randint(0, 3)
    removed = rng.sample(ups, min(k, len(ups)))
    removed += rng.sample(downs, min(k + rng.choice((0, 0, 1)), len(downs)))
    region = hexagon.remove(removed)
    pairs = sorted(adjacent_pairs(region), key=sorted)
    marks = rng.sample(pairs, min(rng.randint(0, 3), len(pairs))) if rng.random() < 0.5 else []
    return g.TriRegion(region.triangles, frozenset(marks))


RANDOM_REGIONS = [random_subregion(random.Random(k)) for k in range(100)]


def reference_dual_graph(region):
    """`geometry.dual_graph` with one `neighbors()` tuple, one pair frozenset
    and one `Fraction` per edge, as the lookups were first written."""
    verts = region.sorted_triangles()
    index = {t: i for i, t in enumerate(verts)}
    edges = []
    for t in verts:
        if t.orient != UP:
            continue
        for nb in t.neighbors():
            j = index.get(nb)
            if j is None:
                continue
            w = Fraction(1, 2) if frozenset((t, nb)) in region.half_weight_edges else 1
            edges.append((index[t], j, w))
    classes = tuple(0 if t.orient == UP else 1 for t in verts)
    return mc.DualGraph(tuple(verts), classes, tuple(edges))


def verify_regions(max_n=4, max_m=4):
    """Every region `verify --max-n 4 --max-m 4` hands the oracle."""
    for n, N, s in routes.verify_grid(max_n, max_m):
        spec = HexSpec(n, N, s)
        yield from g.split_halves(spec)
        yield g.remove_axis_defect(spec)
        if spec.on_boundary:
            yield routes.boundary_witness_region(n, spec.m)


def test_dual_graph_equals_the_reference_with_weight_types():
    for region in list(verify_regions()) + RANDOM_REGIONS:
        got, ref = g.dual_graph(region), reference_dual_graph(region)
        assert got.verts == ref.verts and got.classes == ref.classes
        assert all(type(v) is g.UnitTriangle for v in got.verts)
        assert [(i, j, type(w), w) for i, j, w in got.edges] == \
            [(i, j, type(w), w) for i, j, w in ref.edges]


def test_single_rhombus_counts():
    pair = (up(0, 0), down(0, 0))
    assert routes.count_tilings(g.TriRegion(frozenset(pair))) == 1
    marked = g.TriRegion(frozenset(pair), frozenset({frozenset(pair)}))
    assert routes.count_tilings(marked) == Fraction(1, 2)


def test_empty_and_odd_and_disconnected():
    assert routes.count_tilings(g.TriRegion(frozenset())) == 1
    assert routes.count_tilings(g.TriRegion(frozenset({up(0, 0)}))) == 0
    apart = g.TriRegion(frozenset({up(0, 0), down(4, 4)}))
    assert routes.count_tilings(apart) == 0
    assert mc.find_tiling(g.dual_graph(apart)) is None


def adjacency(g):
    """Each vertex's (neighbor, weight) pairs."""
    adj = [[] for _ in g.verts]
    for i, j, w in g.edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def count_matchings_backtrack(g):
    """Naive exhaustive matching count; independent check for the DP.

    Refuses graphs above BACKTRACK_CAP vertices.
    """
    n = len(g.verts)
    if n > BACKTRACK_CAP:
        raise ValueError(f"backtracking oracle capped at {BACKTRACK_CAP} vertices, got {n}")
    if n % 2:
        return Fraction(0)
    adj = adjacency(g)
    matched = [False] * n

    def recurse(lo):
        while lo < n and matched[lo]:
            lo += 1
        if lo == n:
            return Fraction(1)
        matched[lo] = True
        total = Fraction(0)
        for u, w in adj[lo]:
            if not matched[u]:
                matched[u] = True
                total += w * recurse(lo + 1)
                matched[u] = False
        matched[lo] = False
        return total

    return recurse(0)


def test_smallest_counts():
    assert routes.count_tilings(g.build_hexagon(1, 1, 1)) == 2
    assert routes.count_tilings(g.remove_axis_defect(HexSpec(1, 2, 0))) == 1
    assert routes.count_tilings(g.remove_axis_defect(HexSpec(1, 2, 1))) == 1


def test_dp_matches_backtracking_on_small_regions():
    regions = []
    for abc in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 2), (1, 1, 8), (2, 2, 4)]:
        regions.append(g.build_hexagon(*abc))
    for spec in [HexSpec(2, 4, 1), HexSpec(2, 5, 1), HexSpec(3, 2, 1), HexSpec(2, 4, 0)]:
        regions.append(g.remove_axis_defect(spec))
        regions.extend(g.split_halves(spec))
    for region in regions:
        dg = g.dual_graph(region)
        if len(dg.verts) > BACKTRACK_CAP:
            continue
        assert mc.count_matchings(dg) == count_matchings_backtrack(dg)


def test_backtracking_cap():
    dg = g.dual_graph(g.build_hexagon(3, 4, 3))
    with pytest.raises(ValueError):
        count_matchings_backtrack(dg)


def test_dp_matches_box_formula_up_to_130_triangles():
    for abc in [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4), (3, 4, 5), (4, 6, 4)]:
        region = g.build_hexagon(*abc)
        assert len(region) <= 130
        assert routes.count_tilings(region) == box_count(*abc)


def test_weighted_count_denominator_divides_half_edge_power():
    for spec in [HexSpec(3, 4, 1), HexSpec(4, 6, 2), HexSpec(3, 5, 1)]:
        _, lower = g.split_halves(spec)
        value = routes.count_tilings(lower)
        assert Fraction(2) ** len(lower.half_weight_edges) % value.denominator == 0


def test_count_tilings_integral_without_marks():
    for spec in [HexSpec(2, 4, 1), HexSpec(3, 5, 2)]:
        region = g.remove_axis_defect(spec)
        assert routes.count_tilings(region).denominator == 1


def test_find_tiling_single_rhombus():
    region = g.TriRegion(frozenset({up(0, 0), down(0, 0)}))
    tiling = mc.find_tiling(g.dual_graph(region))
    assert tiling == frozenset({frozenset({up(0, 0), down(0, 0)})})


def test_find_tiling_deterministic_and_valid():
    for region in [
        g.build_hexagon(1, 1, 1),
        g.build_hexagon(2, 2, 2),
        g.remove_axis_defect(HexSpec(3, 4, 2)),
        g.split_halves(HexSpec(3, 4, 2))[1],
    ]:
        first = mc.find_tiling(g.dual_graph(region))
        again = mc.find_tiling(g.dual_graph(region))
        assert first == again
        assert covers_exactly(first, region)


def test_factorization_of_the_split():
    # the recombination identity, all factors from the oracle alone
    for spec in [HexSpec(2, 4, 1), HexSpec(3, 4, 2), HexSpec(3, 5, 1), HexSpec(2, 6, 2)]:
        whole = routes.count_tilings(g.remove_axis_defect(spec))
        upper, lower = g.split_halves(spec)
        parts = (Fraction(2) ** (spec.n - 1) * routes.count_tilings(upper)
                 * routes.count_tilings(lower))
        assert whole == parts


def test_mirror_counts_agree():
    for spec in [HexSpec(3, 4, 1), HexSpec(4, 2, 1), HexSpec(3, 5, 1), HexSpec(2, 4, 0)]:
        a = routes.count_tilings(g.remove_axis_defect(spec))
        b = routes.count_tilings(g.remove_axis_defect(HexSpec(spec.n, spec.N, spec.mirror_s)))
        assert a == b


def test_dp_matches_backtracking_on_random_subregions():
    values = []
    for region in RANDOM_REGIONS:
        dg = g.dual_graph(region)
        assert len(dg.verts) <= BACKTRACK_CAP
        values.append(mc.count_matchings(dg))
        assert values[-1] == count_matchings_backtrack(dg)
    # the seeds reach tileable, untileable and half-weighted regions alike
    assert any(v == 0 for v in values) and any(v.denominator > 1 for v in values)


def _relabelled(dg, order):
    """dg with its vertices in the given order under opaque keys."""
    pos = {v: p for p, v in enumerate(order)}
    return mc.DualGraph(
        tuple(("vertex", v) for v in order),
        tuple(dg.classes[v] for v in order),
        tuple((pos[i], pos[j], w) for i, j, w in dg.edges),
    )


def test_every_candidate_order_gives_the_same_count():
    regions = RANDOM_REGIONS[:30] + [g.remove_axis_defect(HexSpec(3, 5, 1)),
                                     g.build_hexagon(3, 4, 2)]
    for spec in [HexSpec(3, 4, 2), HexSpec(4, 3, 2), HexSpec(2, 4, 0)]:
        regions.extend(g.split_halves(spec))
    for region in regions:
        dg = g.dual_graph(region)
        orders = mc.candidate_orders(dg)
        assert list(orders) == ["given", "row", "antidiagonal"]
        expected = mc.count_matchings(dg)
        for order in orders.values():
            assert sorted(order) == list(range(len(dg.verts)))
            # opaque keys are swept in the given order, which is this one
            relabelled = _relabelled(dg, order)
            assert list(mc.candidate_orders(relabelled)) == ["given"]
            assert mc.count_matchings(relabelled) == expected


def test_graph_checks_its_edges_and_orders():
    verts, classes = ("a", "b", "c", "d"), (0, 1, 0, 1)
    edges = ((0, 1, 1), (2, 3, Fraction(1, 2)))
    mc.DualGraph(verts, classes, edges, (("back", (3, 2, 1, 0)),))
    with pytest.raises(ValueError, match="not bipartite"):
        mc.DualGraph(verts, classes, ((0, 2, 1),))
    with pytest.raises(ValueError, match="nonpositive weight"):
        mc.DualGraph(verts, classes, ((0, 1, 0),))
    for order in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (0, 1, 2, 3, 0)):
        with pytest.raises(ValueError, match="bad order is not a permutation"):
            mc.DualGraph(verts, classes, edges, (("bad", order),))


def test_find_tiling_exactly_when_tileable():
    regions = RANDOM_REGIONS + [
        g.TriRegion(frozenset({up(0, 0), down(1, 1)})),
        g.build_hexagon(2, 2, 2).remove([up(0, 0), up(0, 1)]),
    ]
    for spec in [HexSpec(3, 4, 2), HexSpec(3, 5, 1), HexSpec(4, 4, 0), HexSpec(2, 3, 2)]:
        regions.append(g.split_halves(spec)[1])
    for region in regions:
        tiling = mc.find_tiling(g.dual_graph(region))
        if routes.count_tilings(region) > 0:
            assert covers_exactly(tiling, region)
        else:
            assert tiling is None


def test_over_wide_frontier_is_refused_before_sweeping(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept a graph above the width limit")

    for entry in ("_sweep", "_moves"):
        monkeypatch.setattr(mc, entry, no_sweep)
    region = g.build_hexagon(12, 12, 12)
    limit = f"limit is {mc.MAX_FRONTIER_WIDTH}"
    with pytest.raises(ValueError, match=rf"width \d+ .*{limit}"):
        routes.count_tilings(region)
    with pytest.raises(ValueError, match=limit):
        mc.find_tiling(g.dual_graph(region))


# ---------------------------------------------------------------------------
# fused sweep against unit steps
# ---------------------------------------------------------------------------

def unit_step(states, step):
    """Reference: profile -> scaled weighted count after sweeping one more
    vertex, each profile's successors summed into one dict as they are made."""
    _, vbit, dying, earlier = step
    if earlier is None:
        # an absent vertex matches nothing: a profile still waiting on it dies
        return {mask: val for mask, val in states.items() if not mask & dying}
    nxt = {}
    get = nxt.get
    for mask, val in states.items():
        d = mask & dying
        if d:
            # frontier vertices whose last chance is v: one must take v,
            # and two (no ubit equals d) kill the profile
            for ubit, w, _ in earlier:
                if ubit == d:
                    m = mask ^ d
                    nxt[m] = get(m, 0) + val * w
                    break
            continue
        if vbit:
            m = mask | vbit
            nxt[m] = get(m, 0) + val
        for ubit, w, _ in earlier:
            if mask & ubit:
                m = mask ^ ubit
                nxt[m] = get(m, 0) + val * w
    return nxt


def unit_sweep(steps, states=None):
    """Reference: the steps one at a time, a profile dict after each."""
    states = {0: 1} if states is None else states
    for step in steps:
        states = unit_step(states, step)
        if not states:
            break
    return states


def unit_count(dg):
    """count_matchings(dg) by `unit_sweep` over the whole graph's plan."""
    steps, _, _, _, scale = mc._plan(whole_plan(dg))
    final = unit_sweep(steps)
    return Fraction(final.get(0, 0), scale ** (len(dg.verts) // 2))


def test_unit_reference_matches_backtracking_in_every_order():
    regions = [g.build_hexagon(*abc) for abc in SMALL_SHAPES] + RANDOM_REGIONS
    values = []
    for region in regions:
        dg = g.dual_graph(region)
        expected = count_matchings_backtrack(dg)
        for order in mc.candidate_orders(dg).values():
            values.append(unit_count(_relabelled(dg, order)))
            assert values[-1] == expected
    # tileable, untileable and half-weighted regions alike
    assert any(v == 0 for v in values) and any(v.denominator > 1 for v in values)
    assert any(v > 1 for v in values)


def check_fused(steps, offset=0):
    """The fused sweep equals unit steps, as a whole and group by group,
    with the group boundaries moved by `offset` unit steps."""
    start = states = unit_sweep(steps[:offset])
    for k in range(offset, len(steps), mc.GROUP):
        group = steps[k:k + mc.GROUP]
        expected = unit_sweep(group, states)
        assert mc._sweep(group, states) == expected
        states = expected
    assert mc._sweep(steps[offset:], start) == states


EDGE_REGIONS = []
for _spec in [HexSpec(1, 1, 1), HexSpec(3, 1, 2), HexSpec(2, 4, 0), HexSpec(2, 4, 2),
              HexSpec(3, 5, 3), HexSpec(3, 6, 0), HexSpec(3, 6, 3), HexSpec(4, 3, 1)]:
    EDGE_REGIONS.append(g.remove_axis_defect(_spec))
    EDGE_REGIONS.extend(g.split_halves(_spec))


def test_fused_sweep_equals_unit_steps_in_every_order():
    finals, scales = [], set()
    for region in RANDOM_REGIONS + EDGE_REGIONS:
        dg = g.dual_graph(region)
        if len(dg.verts) % 2:
            continue
        for order in mc.candidate_orders(dg).values():
            steps, _, _, _, scale = mc._plan(_relabelled(dg, order))
            check_fused(steps)
            finals.append(mc._sweep(steps))
            scales.add(scale)
    # untileable regions end empty, and weight-1/2 marks scale by 2
    assert {} in finals and scales == {1, 2}


def _grid(rows, cols):
    """rows x cols grid graph in column order, weights 1, 2 and 1/2 by position."""
    key = [(c, r) for c in range(cols) for r in range(rows)]
    index = {k: i for i, k in enumerate(key)}
    weights = (1, 2, Fraction(1, 2))
    edges = []
    for (c, r), i in index.items():
        for nb in ((c + 1, r), (c, r + 1)):
            if nb in index:
                edges.append((i, index[nb], weights[(c + 2 * r) % 3]))
    return mc.DualGraph(tuple(key), tuple((c + r) % 2 for c, r in key), tuple(edges))


def test_slot_freed_and_reused_inside_one_group():
    dg = _grid(4, 7)
    steps, _, _, _, scale = mc._plan(dg)
    reused = [k for k in range(0, len(steps), mc.GROUP)
              if any(later[1] & earlier[2]
                     for i, earlier in enumerate(steps[k:k + mc.GROUP])
                     for later in steps[k + i + 1:k + mc.GROUP])]
    assert reused, "the planted grid must reuse a freed slot inside a group"
    check_fused(steps)
    final = mc._sweep(steps)
    assert Fraction(final[0], scale ** (len(dg.verts) // 2)) == count_matchings_backtrack(dg)


def test_duplicate_moves_are_summed():
    # the planted 2 x 4 grid reaches one pattern along two paths in its
    # first group (from the empty profile) and again in its second
    dg = _grid(2, 4)
    steps, _, _, _, scale = mc._plan(dg)
    twice = []
    states = {0: 1}
    for k in range(0, len(steps), mc.GROUP):
        group = steps[k:k + mc.GROUP]
        for mask in states:
            patterns = [p for p, _ in mc._moves(mask, group)]
            twice += [p for p in set(patterns) if patterns.count(p) == 2]
        states = unit_sweep(group, states)
    assert len(twice) == 2
    moves = mc._moves(0, steps[:mc.GROUP])
    assert mc._sweep(steps[:mc.GROUP]) == {
        p: sum(w for q, w in moves if q == p) for p, _ in moves}
    check_fused(steps)
    final = mc._sweep(steps)
    assert Fraction(final[0], scale ** (len(dg.verts) // 2)) == count_matchings_backtrack(dg)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_fused_sweep_equals_unit_steps_at_every_group_phase(seed):
    # unit steps up to the offset move every group boundary by that much
    shapes = SMALL_SHAPES + [(3, 3, 3), (2, 3, 4), (3, 3, 4)]
    dg = g.dual_graph(random_subregion(random.Random(seed), shapes))
    steps = mc._plan(dg)[0]
    for offset in range(mc.GROUP):
        check_fused(steps, offset)


# ---------------------------------------------------------------------------
# many subregions of one base on one plan
# ---------------------------------------------------------------------------

def plan_ends(base):
    """The base's first and last triangle in its whole graph's sweep order,
    and, where `count_without` joins the base across its reflection, the
    first of A, the last of X and one triangle of B in the plan it sweeps."""
    dg = g.dual_graph(base)
    steps = mc._plan(whole_plan(dg))[0]
    ends = [steps[0][0], steps[-1][0]]
    steps, stop, _, _, _ = mc._plan(dg)
    if stop:
        ends += [steps[0][0], steps[-1][0], dg.reflection[steps[0][0]]]
    return [dg.verts[v] for v in ends]


def members(base, rng):
    """`base` minus 0, 1, 2, many and all of its triangles, among them the
    `plan_ends`; the marks on removed triangles go."""
    tris = sorted(base.triangles)
    if not tris:
        return [base]
    first, last, *split = plan_ends(base)
    removals = [[], [first], [last], [first, last], rng.sample(tris, min(2, len(tris))),
                rng.sample(tris, len(tris) // 2), rng.sample(tris, max(len(tris) - 3, 0))]
    if split:  # A's first, X's last and B's triangle, alone and A's with B's
        removals += [[t] for t in split] + [split[::2]]
    return [base.remove(cells) for cells in removals + [tris]]


def counted_fallback(monkeypatch):
    """Record the regions `count_subregions` hands to `count_tilings`."""
    real = routes.count_tilings
    seen = []

    def recorded(region):
        seen.append(region)
        return real(region)

    monkeypatch.setattr(routes, "count_tilings", recorded)
    return seen, real


def test_subregions_equal_count_tilings_on_one_plan(monkeypatch):
    rng = random.Random(7)
    values = []
    for marked in RANDOM_REGIONS:
        for base in (marked, g.TriRegion(marked.triangles)):
            regions = members(base, rng)
            with monkeypatch.context() as mp:
                fallback, real = counted_fallback(mp)
                got = routes.count_subregions(base, regions)
            assert fallback == []
            assert got == [real(r) for r in regions]
            assert all(type(v) is Fraction for v in got)
            values.extend(got)
    # odd members count 0, and marked members keep their halves
    assert any(v == 0 for v in values) and any(v.denominator > 1 for v in values)
    assert any(v > 1 for v in values)


def test_subregions_plan_the_base_once(monkeypatch):
    base = g.build_hexagon(2, 3, 2)
    regions = members(base, random.Random(3))
    real = mc._plan
    plans = []
    monkeypatch.setattr(mc, "_plan", lambda dg: plans.append(len(dg.verts)) or real(dg))
    got = routes.count_subregions(base, regions)
    assert plans == [len(base)]
    assert got == [routes.count_tilings(r) for r in regions]


def test_non_members_take_the_fallback(monkeypatch):
    base = next(r for r in RANDOM_REGIONS if r.half_weight_edges)
    member = base.remove([min(base.triangles)])
    marks = sorted(base.half_weight_edges, key=sorted)
    dropped_mark = g.TriRegion(base.triangles, frozenset(marks[1:]))
    outside = next(t for t in (up(x, 9) for x in range(-9, 9)) if t not in base.triangles)
    extra = g.TriRegion(base.triangles | {outside}, base.half_weight_edges)
    stranger = g.build_hexagon(1, 1, 1)
    regions = [member, dropped_mark, extra, stranger, base]
    fallback, real = counted_fallback(monkeypatch)
    got = routes.count_subregions(base, regions)
    assert fallback == [dropped_mark, extra, stranger]
    assert got == [real(r) for r in regions]


def _refusal(count):
    try:
        return count()
    except ValueError as exc:
        return ("refused", str(exc))


def test_over_wide_base_refuses_as_count_tilings(monkeypatch):
    base = g.build_hexagon(3, 3, 3)
    regions = members(base, random.Random(5))
    # a limit between the narrowest and the widest region: the base is refused,
    # small members still count, and wide ones refuse with their own message
    monkeypatch.setattr(mc, "MAX_FRONTIER_WIDTH", 3)
    expected = [_refusal(lambda r=r: routes.count_tilings(r)) for r in regions]
    assert isinstance(expected[0], tuple) and "limit is 3" in expected[0][1]
    assert not isinstance(expected[-1], tuple)
    for k in range(len(regions)):
        got = _refusal(lambda: routes.count_subregions(base, regions[k:]))
        first_refusal = next((e for e in expected[k:] if isinstance(e, tuple)), None)
        assert got == (first_refusal or expected[k:])


def test_absent_steps_inside_fused_groups():
    rng = random.Random(11)
    inside = 0
    for base in [g.build_hexagon(3, 4, 3), g.split_halves(HexSpec(4, 6, 2))[1],
                 g.remove_axis_defect(HexSpec(3, 5, 2))] + RANDOM_REGIONS[:20]:
        dg = g.dual_graph(base)
        # the whole graph's steps, which every position of the base reaches
        steps = mc._plan(whole_plan(dg))[0]
        pos = {dg.verts[step[0]]: p for p, step in enumerate(steps)}
        regions = members(base, rng)
        assert routes.count_subregions(base, regions) == [routes.count_tilings(r) for r in regions]
        for region in regions:
            absent = sorted(pos[t] for t in base.triangles - region.triangles)
            if len(absent) < 2:
                continue
            tail = steps[absent[0]:]
            for p in absent:
                tail[p - absent[0]] = steps[p][:3] + (None,)
            inside += any((p - absent[0]) % mc.GROUP for p in absent)
            for offset in range(mc.GROUP):
                check_fused(tail, offset)
    assert inside


def test_subregions_at_the_axis_ends():
    # s = 0 and s = n, even and odd: the whole regions in the hexagon and
    # the lower halves in the hexagon's marked lower half
    for n, N in [(1, 2), (2, 4), (3, 3), (3, 6), (4, 5), (4, 2)]:
        hexagon = g.build_hexagon(n, N, n)
        lower_base = g.split_halves(HexSpec(n, N, n), hexagon)[1]
        specs = [HexSpec(n, N, N % 2), HexSpec(n, N, n)]
        whole = [g.remove_axis_defect(spec) for spec in specs]
        lower = [g.split_halves(spec)[1] for spec in specs]
        assert routes.count_subregions(hexagon, whole) == [routes.count_tilings(r) for r in whole]
        assert routes.count_subregions(lower_base, lower) == [
            routes.count_tilings(r) for r in lower]


# ---------------------------------------------------------------------------
# one side of a reflection, joined across its fixed vertices
# ---------------------------------------------------------------------------

def whole_plan(dg):
    """dg without its reflection, so it is counted on the whole graph's plan."""
    return dataclasses.replace(dg, reflection=())


def half_plan(dg):
    """(steps, stop, pos, join) of the plan `count_without` sweeps for dg
    where it joins one side A to its reflection (A is not empty), or None."""
    steps, stop, pos, join, _ = mc._plan(dg)
    return (steps, stop, pos, join) if stop else None


def mirror_grid(rows, cols):
    """rows x cols grid graph, cols odd, with its reflection in the middle
    column and weights 1, 2, 1/2 and 3 that the reflection keeps."""
    key = [(c, r) for c in range(cols) for r in range(rows)]
    index = {k: i for i, k in enumerate(key)}
    weights = (1, 2, Fraction(1, 2), 3)
    edges = []
    for (c, r), i in index.items():
        for nb in ((c + 1, r), (c, r + 1)):
            if nb in index:
                # c + nb's column is the edge's doubled column, mirrored about cols - 1
                edges.append((i, index[nb], weights[(abs(c + nb[0] - cols + 1) + r) % 4]))
    mirror = tuple(index[(cols - 1 - c, r)] for c, r in key)
    return mc.DualGraph(tuple(key), tuple((c + r) % 2 for c, r in key), tuple(edges),
                        reflection=mirror)


# hexagons a, b, a of at most BACKTRACK_CAP triangles
SYMMETRIC_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 4), (3, 1), (2, 3), (2, 4)]


def symmetric_subregion(rng):
    """A small hexagon a, b, a minus a few triangles and their reflections,
    with weight-1/2 marks on a few adjacent pairs and their reflections."""
    a, b = rng.choice(SYMMETRIC_SHAPES)
    spec = HexSpec(a, b, b % 2)  # its K is a + b, the hexagon's axis
    hexagon = g.build_hexagon(a, b, a)
    cells = set()
    for t in rng.sample(sorted(hexagon.triangles), rng.randint(0, 3)):
        cells |= {t, reflect_axis(spec, t)}
    region = hexagon.remove(cells)
    pairs = sorted(adjacent_pairs(region), key=sorted)
    marks = set()
    for pair in rng.sample(pairs, min(rng.randint(0, 3), len(pairs))):
        marks |= {pair, frozenset(reflect_axis(spec, t) for t in pair)}
    return g.TriRegion(region.triangles, frozenset(marks))


SYMMETRIC_REGIONS = [symmetric_subregion(random.Random(k)) for k in range(60)]


def test_reflection_plan_agrees_on_weighted_grids():
    for rows, cols in [(1, 3), (2, 3), (4, 3), (3, 5), (4, 5), (2, 7), (5, 5)]:
        dg = mirror_grid(rows, cols)
        assert half_plan(dg) is not None
        expected = count_matchings_backtrack(dg) if len(dg.verts) <= BACKTRACK_CAP else None
        got = mc.count_matchings(dg)
        assert got == mc.count_matchings(whole_plan(dg))
        assert expected is None or got == expected
    # the weights are not all 1, and the counts keep their halves
    assert mc.count_matchings(mirror_grid(2, 3)).denominator > 1


def test_reflection_plan_agrees_on_symmetric_random_subregions():
    values = []
    for region in SYMMETRIC_REGIONS:
        dg = g.dual_graph(region)
        # the join applies wherever the reflection swaps a pair (two of
        # the regions lie on the axis, fixed by it, with no side to join)
        swapped = any(dg.reflection[v] != v for v in range(len(dg.verts)))
        assert dg.reflection and (half_plan(dg) is not None) == swapped
        values.append(mc.count_matchings(dg))
        assert values[-1] == mc.count_matchings(whole_plan(dg))
        assert values[-1] == count_matchings_backtrack(dg)
    # tileable, untileable and half-weighted regions alike
    assert any(v == 0 for v in values) and any(v.denominator > 1 for v in values)
    assert any(v > 1 for v in values)


def absent_sets(dg, rng):
    """Absent vertex lists that reach A, the fixed set X and B, alone and
    together, the first and last of A's sweep among them, and at random."""
    steps, stop, pos, _, _ = mc._plan(dg)
    order = sorted(range(len(dg.verts)), key=pos.__getitem__)
    a, x, b = order[:stop], order[stop:len(steps)], order[len(steps):]
    picks = [[], a[:1], a[-1:], x[:1], x[-1:], b[:1], b[-1:], a[:1] + b[-1:], x[:2],
             x[-1:] + b[:1], a[1:2] + x[:1] + b[:1]]
    picks += [[v, dg.reflection[v]] for v in a[-1:]]
    picks += [rng.sample(order, min(k, len(order))) for k in (2, 3, len(order) // 3)]
    return picks


def test_reflection_plan_agrees_with_absent_vertices_on_every_side():
    rng = random.Random(13)
    graphs = [g.dual_graph(g.build_hexagon(3, 4, 3)), g.dual_graph(g.build_hexagon(2, 5, 2)),
              g.dual_graph(g.remove_axis_defect(HexSpec(4, 6, 2))), mirror_grid(4, 5)]
    graphs += [g.dual_graph(r) for r in SYMMETRIC_REGIONS[:20]]
    sides = set()
    for dg in graphs:
        steps, stop, pos, _, _ = mc._plan(dg)
        absent = absent_sets(dg, rng)
        for lacks in absent:
            sides.update("A" if pos[v] < stop else "X" if pos[v] < len(steps) else "B"
                         for v in lacks)
        assert mc.count_without(dg, absent) == mc.count_without(whole_plan(dg), absent)
    assert sides == {"A", "X", "B"}


def test_reflection_plan_falls_back_where_the_join_does_not_apply(monkeypatch):
    # a 4-cycle turned half way round: no fixed vertex, and g - X is one
    # component the reflection maps onto itself
    cycle = mc.DualGraph(tuple("abcd"), (0, 1, 0, 1),
                         ((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)), reflection=(2, 3, 0, 1))
    # that cycle beside two edges the reflection swaps: a side to join, but
    # the cycle has no side to put in it
    beside = mc.DualGraph(tuple("abcdefgh"), (0, 1) * 4,
                          cycle.edges + ((4, 5, 3), (6, 7, 3)),
                          reflection=(2, 3, 0, 1, 6, 7, 4, 5))
    # a fixed vertex x = 0 with two neighbors 2 and 4 on the side of 1 and 3
    fork = mc.DualGraph(tuple("xabcd"), (0, 1, 1, 1, 1),
                        ((0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)), reflection=(0, 2, 1, 4, 3))
    # two fixed vertices share their one neighbor on the far side
    shared = mc.DualGraph(tuple("xyab"), (0, 0, 1, 1),
                          ((0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1)), reflection=(0, 1, 3, 2))
    # a 6 x 2 grid in column order whose rows are narrower, and a
    # reflection that fixes every vertex: no side to join
    grid = _grid(6, 2)
    rows = tuple(sorted(range(12), key=lambda v: grid.verts[v][::-1]))
    fixed = dataclasses.replace(grid, orders=(("row", rows),), reflection=tuple(range(12)))
    for dg in (cycle, beside, fork, shared, fixed):
        assert half_plan(dg) is None
        assert mc.count_matchings(dg) == count_matchings_backtrack(dg)
        assert mc._plan(dg) == mc._plan(whole_plan(dg))
        assert swept_steps(monkeypatch, dg) == swept_steps(monkeypatch, whole_plan(dg))
    # the rows sweep with 3 slots, the columns with 7
    assert max(step[1] for step in swept_steps(monkeypatch, fixed)).bit_length() == 3
    # one side and the axis of (5, 2, 1) sweep at width 8, the whole region
    # at width 7: under a limit of 7 the whole region is swept, not refused
    dg = g.dual_graph(g.remove_axis_defect(HexSpec(5, 2, 1)))
    expected = mc.count_matchings(dg)
    assert half_plan(dg) is not None and expected > 0
    monkeypatch.setattr(mc, "MAX_FRONTIER_WIDTH", 7)
    assert half_plan(dg) is None and mc.count_matchings(dg) == expected
    assert mc._plan(dg) == mc._plan(whole_plan(dg))
    assert swept_steps(monkeypatch, dg) == swept_steps(monkeypatch, whole_plan(dg))


def swept_steps(monkeypatch, dg):
    """The steps `count_matchings(dg)` sweeps, in the order it sweeps them."""
    real = mc._sweep
    seen = []

    def recorded(steps, states=None):
        seen.extend(steps)
        return real(steps, states)

    with monkeypatch.context() as mp:
        mp.setattr(mc, "_sweep", recorded)
        mc.count_matchings(dg)
    return seen


def test_graph_checks_its_reflection():
    verts, classes = tuple("abcdef"), (0, 1, 0, 1, 0, 1)
    edges = ((0, 1, 1), (2, 3, 1), (4, 5, Fraction(1, 2)))
    mc.DualGraph(verts, classes, edges, reflection=(2, 3, 0, 1, 4, 5))
    for image in ((0, 1, 2), (0, 0, 2, 3, 4, 5), (2, 1, 4, 3, 0, 5)):
        with pytest.raises(ValueError, match="not an involution"):
            mc.DualGraph(verts, classes, edges, reflection=image)
    with pytest.raises(ValueError, match="swaps bipartition classes"):
        mc.DualGraph(verts, classes, edges, reflection=(1, 0, 2, 3, 4, 5))
    with pytest.raises(ValueError, match=r"breaks edge \(0,1\)"):
        mc.DualGraph(verts, classes, edges, reflection=(4, 5, 2, 3, 0, 1))
    with pytest.raises(ValueError, match="breaks edge"):
        mc.DualGraph(verts, classes, ((0, 1, 1), (2, 3, 2)), reflection=(2, 3, 0, 1, 4, 5))


def test_over_wide_symmetric_region_keeps_its_refusal(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept a graph above the width limit")

    for entry in ("_sweep", "_moves"):
        monkeypatch.setattr(mc, entry, no_sweep)
    assert g.dual_graph(g.remove_axis_defect(HexSpec(12, 14, 6))).reflection
    message = ("matching oracle refuses a frontier of width 24 (row order, 958 vertices); "
               "the limit is 20")
    with pytest.raises(ValueError) as refused:
        routes.oracle_route(12, 14, 6)
    assert str(refused.value) == message
