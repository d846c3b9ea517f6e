"""Triangular-lattice regions: hexagons, axis defects, and symmetry-axis halves.

Coordinates
-----------
Lattice points are integer pairs (x, y) placed in the plane at
x*e1 + y*e2 with |e1| = |e2| = 1 and a 60-degree angle between them.
Each lattice cell holds an up triangle and a down triangle:

    up   U(x,y):  corners (x, y), (x+1, y), (x, y+1)
    down D(x,y):  corners (x+1, y), (x, y+1), (x+1, y+1)

        (x,y+1) ___ (x+1,y+1)
           | \\  D  |
           |  \\    |            U(x,y) is edge-adjacent to exactly
           | U  \\  |            D(x,y), D(x-1,y) and D(x,y-1).
        (x,y) ---- (x+1,y)

The hexagon with side sequence a, b, c, a, b, c is the set of triangles in

    0 <= y <= b+c,   -c <= x <= a,   0 <= x+y <= a+b,

read as corner constraints.  For the defect problem we use a = c = n and
b = N, which puts the two N-sides on the lattice lines x = -n and x = n.
The reflection that swaps them out of the picture -- the symmetry axis through
their midpoints -- acts on triangles as

    U(x, y) -> U(x, K-1-x-y),   D(x, y) -> D(x, K-2-x-y),   K = N + n,

so a triangle lies on the axis exactly when 2y + x equals K-1 (up) or K-2
(down).  Axis vertices, the lattice points fixed by the reflection, are the
points (x, (K-x)/2) with x = K (mod 2); for even N they run from the midpoint
of the left N-side to the midpoint of the right one (n+1 of them), for odd N
all n of them are interior.  Between consecutive axis vertices sits one
"crossing" rhombus position, a D/U pair sharing an edge cut by the axis; each
axis vertex is the tip of the two bowtie triangles removed by the defect.

`split_halves` reads the axis level off 2y + x.  `dual_graph` builds the
oracle's graph, with the lattice's sweep orders attached, and with the
reflection as a vertex permutation when it maps the region and its marks
onto themselves: the oracle never reads a triangle.  `dual_graph` finds
the axis from the region itself, halfway between its lowest and highest
up-triangle levels, so it needs no HexSpec.  The reflection and the
left-right mirror of a HexSpec, and the axis row, live in
tests/test_geometry.py as references for the region checks, with the
check that a tiling, the set of its rhombi (adjacent triangle pairs),
covers its region exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .matchcount import DualGraph

UP = "u"
DOWN = "d"

_HALF = Fraction(1, 2)


class UnitTriangle(NamedTuple):
    """One unit triangle of the lattice, identified by cell and orientation."""

    x: int
    y: int
    orient: str

    def neighbors(self) -> tuple["UnitTriangle", ...]:
        """The three triangles sharing a full edge with this one."""
        x, y = self.x, self.y
        if self.orient == UP:
            return (
                UnitTriangle(x, y, DOWN),
                UnitTriangle(x - 1, y, DOWN),
                UnitTriangle(x, y - 1, DOWN),
            )
        return (
            UnitTriangle(x, y, UP),
            UnitTriangle(x + 1, y, UP),
            UnitTriangle(x, y + 1, UP),
        )

    def corners(self) -> tuple[tuple[int, int], ...]:
        x, y = self.x, self.y
        if self.orient == UP:
            return ((x, y), (x + 1, y), (x, y + 1))
        return ((x + 1, y), (x, y + 1), (x + 1, y + 1))


def up(x: int, y: int) -> UnitTriangle:
    return UnitTriangle(x, y, UP)


def down(x: int, y: int) -> UnitTriangle:
    return UnitTriangle(x, y, DOWN)


@dataclass(frozen=True)
class TriRegion:
    """A finite set of unit triangles, with optional weight-1/2 rhombus marks.

    half_weight_edges holds unordered adjacent pairs whose shared edge lies on
    the symmetry axis of a split region; a tiling that uses such a rhombus
    counts with a factor 1/2.
    """

    triangles: frozenset
    half_weight_edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for pair in self.half_weight_edges:
            a, b = tuple(pair)
            if a not in self.triangles or b not in self.triangles:
                raise ValueError(f"half-weight pair {pair} not inside region")
            if b not in a.neighbors():
                raise ValueError(f"half-weight pair {pair} is not adjacent")

    def __len__(self) -> int:
        return len(self.triangles)

    def sorted_triangles(self) -> list:
        return sorted(self.triangles)

    def remove(self, cells: Iterable[UnitTriangle]) -> "TriRegion":
        cells = frozenset(cells)
        missing = cells - self.triangles
        if missing:
            raise ValueError(f"cannot remove absent triangles {sorted(missing)}")
        keep = self.triangles - cells
        edges = frozenset(e for e in self.half_weight_edges if not (e & cells))
        return TriRegion(keep, edges)


# ---------------------------------------------------------------------------
# hexagons and defects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexSpec:
    """Hexagon n,n,N,n,n,N with a two-triangle defect at an axis vertex.

    For even N = 2m the axis vertices are numbered 1..n+1 left to right
    (including the two N-side midpoints) and the defect sits at vertex s+1
    with 0 <= s <= n.  For odd N = 2m+1 they are numbered 1..n (all interior)
    and the defect sits at vertex s with 1 <= s <= n.
    """

    n: int
    N: int
    s: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"side n must be positive, got {self.n}")
        if self.N < 2 - self.N % 2:
            raise ValueError(f"cut side N must be positive and even N at least 2, got {self.N}")
        if self.is_even:
            if not 0 <= self.s <= self.n:
                raise ValueError(f"even case needs 0 <= s <= n, got s={self.s}")
        else:
            if not 1 <= self.s <= self.n:
                raise ValueError(f"odd case needs 1 <= s <= n, got s={self.s}")

    @property
    def m(self) -> int:
        return self.N // 2

    @property
    def is_even(self) -> bool:
        return self.N % 2 == 0

    @property
    def K(self) -> int:
        return self.N + self.n

    @property
    def on_boundary(self) -> bool:
        """Whether the defect sits at a side midpoint (even N, s = 0 or s = n), where
        the closed form has no two-triangle region of its own (see the README)."""
        return self.is_even and self.s in (0, self.n)

    @property
    def mirror_s(self) -> int:
        """The defect index of the left-right mirror image: n - s, or n + 1 - s for odd N."""
        return self.n - self.s if self.is_even else self.n + 1 - self.s


def build_hexagon(a: int, b: int, c: int) -> TriRegion:
    """The hexagonal region with side sequence a, b, c, a, b, c, degenerate
    where a side is 0.

    Contains 2(ab+bc+ca) triangles, equally many up and down.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"hexagon sides must be nonnegative, got {(a, b, c)}")
    tris = set()
    for x in range(-c, a):
        for y in range(0, b + c):
            if 0 <= x + y <= a + b - 1:
                tris.add(up(x, y))
            if -1 <= x + y <= a + b - 2:
                tris.add(down(x, y))
    return TriRegion(frozenset(tris))


def defect_cells(spec: HexSpec) -> frozenset:
    """The two triangles removed at the designated axis vertex.

    Interior vertices lose their bowtie: the axis triangle tipped at the
    vertex from the west and the one tipped from the east.  At the two
    boundary vertices of the even case only the inward axis triangle exists;
    there the removal pairs it with the adjacent N-side boundary triangle
    sharing the same vertex, which keeps the region balanced and the upper
    half untouched.  See the README for how those boundary defects relate to
    the closed-form counts.
    """
    n, m, s = spec.n, spec.m, spec.s
    if not spec.is_even:
        return frozenset((up(-n + 2 * s - 2, m + n - s + 1), down(-n + 2 * s - 1, m + n - s)))
    if s == 0:
        return frozenset((down(-n, m + n - 1), up(-n, m + n - 1)))
    if s == n:
        return frozenset((up(n - 1, m), down(n - 1, m - 1)))
    return frozenset((up(-n + 2 * s - 1, m + n - s), down(-n + 2 * s, m + n - s - 1)))


def remove_axis_defect(spec: HexSpec, hexagon: Optional[TriRegion] = None) -> TriRegion:
    """The hexagon n,n,N,n,n,N minus the two defect triangles.

    A caller that holds `build_hexagon(n, N, n)` already passes it as
    hexagon, and it is not built again.
    """
    if hexagon is None:
        hexagon = build_hexagon(spec.n, spec.N, spec.n)
    return hexagon.remove(defect_cells(spec))


def _crossing_pairs(spec: HexSpec, region: TriRegion) -> list:
    """Intact axis rhombus positions: D/U pairs sharing an axis-cut edge."""
    n, k = spec.n, spec.K
    pairs = []
    for c in range(-n, n + 1):
        if (c - (k - 1)) % 2:
            continue
        y0 = (k - c - 1) // 2
        d, u_ = down(c - 1, y0), up(c, y0)
        if d in region.triangles and u_ in region.triangles:
            pairs.append(frozenset((d, u_)))
    return pairs


def split_halves(spec: HexSpec, region: Optional[TriRegion] = None) -> tuple:
    """Split the defect region into its upper and lower halves.

    The upper half is the part strictly above the symmetry axis (the axis row
    belongs entirely to the lower half, which is why the factor 2^(n-1) shows
    up when the two halves are recombined).  The lower half keeps every
    surviving axis rhombus position with weight 1/2.  A caller that holds
    `remove_axis_defect(spec)` already passes it as region, and it is not
    built again.
    """
    if region is None:
        region = remove_axis_defect(spec)
    k = spec.K
    upper, lower = set(), set()
    for t in region.triangles:
        axis_level = k - 1 if t.orient == UP else k - 2
        if 2 * t.y + t.x > axis_level:
            upper.add(t)
        else:
            lower.add(t)
    half_edges = frozenset(_crossing_pairs(spec, region))
    return TriRegion(frozenset(upper)), TriRegion(frozenset(lower), half_edges)


def dual_graph(region: TriRegion) -> DualGraph:
    """Inner dual of the region: one vertex per triangle, one edge per
    adjacent pair, with weight 1/2 on the marked axis rhombus positions.

    A plain edge's weight is the int 1, an exact rational like the
    `Fraction` 1/2, and cheaper to check and scale.  The down neighbours are
    looked up as plain (x, y, DOWN) tuples, which hash and compare equal to
    the `UnitTriangle`s in the index.  Besides the column order of the
    vertices, the oracle may sweep rows or anti-diagonals: the lattice
    strips of the other two directions, each read along its length.  For a
    region that the reflection in its own middle level maps onto itself,
    marks included, the graph carries that reflection, and the oracle
    sweeps one side of it: every hexagon n, N, n and interior defect region
    (whose middle is the defect axis) has one, a boundary surrogate none,
    and a half none unless it is a strip (n = 1, odd N)."""
    verts = region.sorted_triangles()
    index = {t: i for i, t in enumerate(verts)}
    get = index.get
    marked = region.half_weight_edges
    edges = []
    for i, t in enumerate(verts):
        x, y, orient = t
        if orient != UP:
            continue
        for nb in ((x, y, DOWN), (x - 1, y, DOWN), (x, y - 1, DOWN)):
            j = get(nb)
            if j is not None:
                edges.append((i, j, _HALF if marked and frozenset((t, nb)) in marked else 1))
    classes = tuple(0 if t.orient == UP else 1 for t in verts)
    # along both strips, U(x, .) < D(x, .) < U(x + 1, .): 2x plus the class
    rows = [(t.y, 2 * t.x + c) for t, c in zip(verts, classes)]
    antidiagonals = [(t.x + t.y + c, 2 * t.x + c) for t, c in zip(verts, classes)]
    ids = range(len(verts))
    orders = (("row", tuple(sorted(ids, key=rows.__getitem__))),
              ("antidiagonal", tuple(sorted(ids, key=antidiagonals.__getitem__))))
    return DualGraph(tuple(verts), classes, tuple(edges), orders,
                     _reflection(region, verts, index))


def _reflection(region: TriRegion, verts: list, index: dict) -> tuple:
    """The index of each triangle's image under the reflection in the axis
    halfway between the region's lowest and highest up-triangle levels
    2y + x, if that maps the region and its marks onto themselves, else ()."""
    levels = [2 * t.y + t.x for t in verts if t.orient == UP]
    if not levels or (min(levels) + max(levels)) % 2:
        return ()
    k = (min(levels) + max(levels)) // 2 + 1
    get = index.get
    image = []
    for x, y, orient in verts:
        j = get((x, k - 1 - x - y, UP) if orient == UP else (x, k - 2 - x - y, DOWN))
        if j is None:
            return ()
        image.append(j)
    marked = region.half_weight_edges
    for a, b in map(tuple, marked):
        if frozenset((verts[image[index[a]]], verts[image[index[b]]])) not in marked:
            return ()
    return tuple(image)
