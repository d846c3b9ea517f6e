"""Regions, defects, halves: construction invariants and the boundary rule.

The axis reflection, the left-right mirror, the axis row and the tiling
cover check are written here, as references; the package finds the axis
reflection only in `dual_graph`, from the region's own levels."""

from types import SimpleNamespace

import pytest

from hexcount import geometry as g
from hexcount import routes
from hexcount.geometry import UP, HexSpec, UnitTriangle, down, up


def even_specs(max_n=4, max_m=3):
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for s in range(0, n + 1):
                yield HexSpec(n, 2 * m, s)


def odd_specs(max_n=4, max_m=3):
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for s in range(1, n + 1):
                yield HexSpec(n, 2 * m + 1, s)


def up_count(region):
    return sum(1 for t in region.triangles if t.orient == UP)


def axis_vertices(spec):
    """Axis vertices left to right (1-based positions index this list + 1)."""
    n, m = spec.n, spec.m
    if spec.is_even:
        return [(-n + 2 * k, m + n - k) for k in range(0, n + 1)]
    return [(-n + 2 * k - 1, m + n - k + 1) for k in range(1, n + 1)]


def reflect_axis(spec, t):
    """Reflection across the symmetry axis through the two N-sides."""
    k = spec.K
    if t.orient == UP:
        return up(t.x, k - 1 - t.x - t.y)
    return down(t.x, k - 2 - t.x - t.y)


def mirror_lr(spec, t):
    """Left-right mirror (through the hexagon corners), swapping s and n-s."""
    if t.orient == UP:
        return down(-t.x - 1, t.x + t.y)
    return up(-t.x - 1, t.x + t.y + 1)


def axis_triangles(spec, region):
    """The region's triangles fixed by the axis reflection, sorted."""
    k = spec.K
    out = [
        t
        for t in region.triangles
        if 2 * t.y + t.x == (k - 1 if t.orient == UP else k - 2)
    ]
    return sorted(out)


def covers_exactly(tiling, region):
    """Whether the tiling's rhombi, a set of triangle pairs, are disjoint
    adjacent pairs that cover the region's triangles exactly."""
    seen = set()
    for pair in tiling:
        a, b = tuple(pair)
        if b not in a.neighbors():
            return False
        if a in seen or b in seen:
            return False
        seen.update((a, b))
    return seen == set(region.triangles)


def test_triangle_adjacency_is_symmetric_and_three_way():
    for t in (up(0, 0), down(2, -1), up(-3, 5)):
        nbs = t.neighbors()
        assert len(set(nbs)) == 3
        for nb in nbs:
            assert t in nb.neighbors()


def test_adjacent_triangles_share_exactly_two_corners():
    t = up(1, 2)
    for nb in t.neighbors():
        assert len(set(t.corners()) & set(nb.corners())) == 2


def test_build_hexagon_counts():
    assert len(g.build_hexagon(1, 1, 1)) == 6
    region = g.build_hexagon(2, 2, 2)
    assert len(region) == 24
    assert up_count(region) == 12
    assert len(g.build_hexagon(4, 6, 4)) == 128
    for a, b, c in [(1, 2, 3), (3, 1, 4), (2, 5, 2)]:
        assert len(g.build_hexagon(a, b, c)) == 2 * (a * b + b * c + c * a)


def test_build_hexagon_rejects_negative_sides_and_keeps_zero_sides():
    with pytest.raises(ValueError):
        g.build_hexagon(2, -1, 2)
    with pytest.raises(ValueError):
        g.build_hexagon(0, 0, -1)
    # a zero side is the degenerate hexagon, still 2(ab+bc+ca) triangles
    for a, b, c in ((0, 2, 2), (3, 0, 2), (1, 3, 0), (0, 0, 3), (0, 0, 0)):
        tris = g.build_hexagon(a, b, c).triangles
        assert len(tris) == 2 * (a * b + b * c + c * a), (a, b, c)
        assert sum(t.orient == UP for t in tris) == a * b + b * c + c * a


def test_hexspec_validation():
    with pytest.raises(ValueError):
        HexSpec(3, 4, 4)  # even: s <= n
    with pytest.raises(ValueError):
        HexSpec(3, 5, 0)  # odd: s >= 1
    with pytest.raises(ValueError):
        HexSpec(0, 4, 0)
    with pytest.raises(ValueError):
        HexSpec(3, 0, 1)
    HexSpec(3, 1, 2)  # odd cut side of length one is a valid hexagon


def test_defect_region_size_and_balance():
    for spec in list(even_specs()) + list(odd_specs()):
        region = g.remove_axis_defect(spec)
        full = 2 * (spec.n * spec.n + 2 * spec.n * spec.N)
        assert len(region) == full - 2
        assert 2 * up_count(region) == len(region)


def test_defect_region_example_sizes():
    assert len(g.remove_axis_defect(HexSpec(1, 2, 0))) == 10 - 2
    assert len(g.remove_axis_defect(HexSpec(3, 4, 2))) == 66 - 2
    assert len(g.remove_axis_defect(HexSpec(3, 5, 2))) == 78 - 2


def test_defect_cells_share_the_designated_axis_vertex():
    for spec in list(even_specs()) + list(odd_specs()):
        a, b = sorted(g.defect_cells(spec))
        shared = set(a.corners()) & set(b.corners())
        verts = axis_vertices(spec)
        pos = spec.s if spec.is_even else spec.s - 1
        pos = min(max(pos, 0), len(verts) - 1)
        assert verts[pos] in shared


def test_interior_defect_cells_straddle_the_axis():
    # interior bowties are fixed by the axis reflection, cell by cell
    for spec in list(even_specs()) + list(odd_specs()):
        interior = (not spec.is_even) or (1 <= spec.s <= spec.n - 1)
        cells = g.defect_cells(spec)
        fixed = all(reflect_axis(spec, t) == t for t in cells)
        assert fixed == interior


def test_axis_vertex_count():
    assert len(axis_vertices(HexSpec(3, 4, 1))) == 4   # includes both side midpoints
    assert len(axis_vertices(HexSpec(3, 5, 1))) == 3   # all interior


@pytest.mark.parametrize("n, N, s, boundary, mirror", [
    (1, 2, 0, True, 1), (1, 2, 1, True, 0),  # n = 1: both positions are side midpoints
    (1, 1, 1, False, 1),                     # N = 1 (m = 0): every axis vertex is interior
    (4, 1, 1, False, 4), (4, 1, 4, False, 1),
    (3, 4, 0, True, 3), (3, 4, 1, False, 2), (3, 4, 2, False, 1), (3, 4, 3, True, 0),
    (3, 5, 1, False, 3), (3, 5, 2, False, 2), (3, 5, 3, False, 1),
])
def test_boundary_rule_and_mirror_index_table(n, N, s, boundary, mirror):
    spec = HexSpec(n, N, s)
    assert spec.on_boundary is boundary
    assert spec.mirror_s == mirror


def test_mirror_index_is_a_valid_involution():
    specs = list(even_specs()) + list(odd_specs())
    specs += [HexSpec(n, 1, s) for n in range(1, 5) for s in range(1, n + 1)]
    for spec in specs:
        image = HexSpec(spec.n, spec.N, spec.mirror_s)  # raises if out of range
        assert image.mirror_s == spec.s
        assert image.on_boundary == spec.on_boundary


def test_axis_row_has_2n_minus_2_triangles():
    for spec in list(even_specs()) + list(odd_specs()):
        if spec.on_boundary:
            continue  # boundary surrogate removes one axis and one border cell
        region = g.remove_axis_defect(spec)
        assert len(axis_triangles(spec, region)) == 2 * (spec.n - 1)


def test_split_sizes_for_the_running_example():
    upper, lower = g.split_halves(HexSpec(3, 4, 2))
    assert len(upper) == 30 and len(lower) == 34
    assert len(g.split_halves(HexSpec(3, 5, 2))[0]) == 36


def test_split_halves_reglue_exactly():
    for spec in list(even_specs()) + list(odd_specs()):
        region = g.remove_axis_defect(spec)
        upper, lower = g.split_halves(spec)
        assert upper.triangles | lower.triangles == region.triangles
        assert not (upper.triangles & lower.triangles)
        assert not upper.half_weight_edges


def test_upper_half_is_the_region_above_the_axis_row():
    for spec in list(even_specs(3, 2)) + list(odd_specs(3, 2)):
        region = g.remove_axis_defect(spec)
        upper, lower = g.split_halves(spec)
        axis = set(axis_triangles(spec, region))
        assert axis <= set(lower.triangles)
        # reflecting the strictly-lower part gives exactly the upper part
        strict_lower = set(lower.triangles) - axis
        reflected = {reflect_axis(spec, t) for t in strict_lower}
        if not spec.on_boundary:
            assert reflected == set(upper.triangles)


def test_half_weight_marks_sit_on_surviving_axis_positions():
    spec = HexSpec(3, 4, 2)
    _, lower = g.split_halves(spec)
    assert len(lower.half_weight_edges) == spec.n - 2
    for pair in lower.half_weight_edges:
        a, b = tuple(pair)
        assert b in a.neighbors()
        assert {reflect_axis(spec, a), reflect_axis(spec, b)} == {a, b}
    # boundary defect keeps one extra intact position
    _, lower0 = g.split_halves(HexSpec(3, 4, 0))
    assert len(lower0.half_weight_edges) == spec.n - 1


def test_mirror_images_for_s_and_its_reflection():
    for spec in list(even_specs()) + list(odd_specs()):
        mirrored = {mirror_lr(spec, t) for t in g.remove_axis_defect(spec).triangles}
        assert mirrored == g.remove_axis_defect(HexSpec(spec.n, spec.N, spec.mirror_s)).triangles


def test_dual_graph_single_rhombus():
    pair = (up(0, 0), down(0, 0))
    plain = g.TriRegion(frozenset(pair))
    dg = g.dual_graph(plain)
    assert len(dg.verts) == 2 and len(dg.edges) == 1
    assert dg.edges[0][2] == 1 and isinstance(dg.edges[0][2], int)  # plain weights stay int
    marked = g.TriRegion(frozenset(pair), frozenset({frozenset(pair)}))
    assert g.dual_graph(marked).edges[0][2] == g.dual_graph(marked).edges[0][2].__class__(1, 2)


def test_dual_graph_of_smallest_hexagon_is_a_six_cycle():
    dg = g.dual_graph(g.build_hexagon(1, 1, 1))
    assert len(dg.verts) == 6 and len(dg.edges) == 6
    degree = [0] * 6
    for i, j, _ in dg.edges:
        degree[i] += 1
        degree[j] += 1
    assert degree == [2] * 6


def test_dual_graph_is_bipartite_with_one_edge_per_adjacent_pair():
    for spec in [HexSpec(2, 4, 1), HexSpec(3, 5, 2)]:
        region = g.remove_axis_defect(spec)
        dg = g.dual_graph(region)
        for i, j, _ in dg.edges:
            assert dg.classes[i] != dg.classes[j]
        assert len(dg.edges) == sum(nb in region.triangles for t in region.triangles
                                    if t.orient == UP for nb in t.neighbors())


def reflected(dg):
    """Each vertex's image under the graph's reflection, as triangles."""
    return [dg.verts[j] for j in dg.reflection]


def test_dual_graph_carries_the_axis_reflection():
    # every hexagon and interior defect region of `verify --max-n 4
    # --max-m 4` carries the axis reflection; a boundary surrogate, a
    # boundary witness and a half carry none, except the halves of n = 1 and
    # odd N: strips that their own middle level reflects onto themselves
    strips = 0
    for spec in list(even_specs(4, 4)) + list(odd_specs(4, 4)):
        n, N = spec.n, spec.N
        regions = [g.build_hexagon(n, N, n), g.remove_axis_defect(spec)]
        if spec.on_boundary:
            assert g.dual_graph(regions.pop()).reflection == ()
            witness = routes.boundary_witness_region(n, spec.m)
            assert g.dual_graph(witness).reflection == ()
        for region in regions:
            dg = g.dual_graph(region)
            assert reflected(dg) == [reflect_axis(spec, t) for t in dg.verts]
        for half in g.split_halves(spec):
            dg = g.dual_graph(half)
            if n == 1 and N % 2:
                strips += 1
                levels = [2 * t.y + t.x for t in half.triangles if t.orient == UP]
                middle = SimpleNamespace(K=(min(levels) + max(levels)) // 2 + 1)
                assert middle.K != spec.K
                assert reflected(dg) == [reflect_axis(middle, t) for t in dg.verts]
            else:
                assert dg.reflection == ()
    assert strips == 8


def test_half_weight_validation():
    with pytest.raises(ValueError):
        g.TriRegion(
            frozenset({up(0, 0), down(5, 5)}),
            frozenset({frozenset({up(0, 0), down(5, 5)})}),
        )


def test_remove_requires_present_cells():
    region = g.build_hexagon(1, 1, 1)
    with pytest.raises(ValueError):
        region.remove([up(9, 9)])


def test_tiling_covers_exactly():
    region = g.TriRegion(frozenset({up(0, 0), down(0, 0)}))
    good = frozenset({frozenset({up(0, 0), down(0, 0)})})
    assert covers_exactly(good, region)
    assert not covers_exactly(good, g.build_hexagon(1, 1, 1))
