"""Exact weighted perfect-matching counts by frontier dynamic programming.

This is the package's independent oracle: it never sees a product formula or
a determinant, only a bipartite graph with positive rational edge weights.
`count_matchings` sweeps the vertices one at a time and keeps, for every
prefix, the weighted count of partial matchings per "frontier profile": the
set of swept, still-unmatched vertices that have a neighbor later in the
order.  The profile is a bitmask over slots that frontier vertices reuse, so
the cost is exponential only in the frontier width, the largest such set.

- Integer weights.  The weights are scaled by L, the lcm of their
  denominators (1 for plain regions, 2 for halves with weight-1/2 marks), so
  the sweep adds plain ints and multiplies only by scaled weights other than
  1; the count is the sweep's total over L^(V/2).
- Per-graph order.  The width depends on the order, and no order is best for
  every region.  For lattice-triangle keys the candidates are the given
  order (columns, as `geometry.dual_graph` sorts them), rows and
  anti-diagonals; each width is read off the vertices' first and last
  positions in O(V+E) and the narrowest order is swept.  Other keys are swept
  in the given order.
- Bounded work.  A graph whose chosen width exceeds MAX_FRONTIER_WIDTH is
  refused with a ValueError before any sweeping.

`find_tiling` makes one forward pass that keeps the reachable profiles of
every step and then traces a tiling back from the empty profile.

A second, independently coded oracle (`count_matchings_backtrack`) does plain
exhaustive backtracking; it is capped at 40 vertices and exists to guard the
DP in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

MatchCount = Fraction

BACKTRACK_CAP = 40

# A sweep keeps up to 2^width profiles per step.  Width 20 (n=10, N=14 at
# s=4) takes about 30 s and 75 MB on a 2-vCPU Xeon, and every region in the
# tests and the benchmark sweeps at width 14 or less.
MAX_FRONTIER_WIDTH = 20


@dataclass(frozen=True)
class DualGraph:
    """Bipartite weighted graph; for tilings, the inner dual of a region.

    verts holds arbitrary hashable keys, in the order the sweep falls back
    on (scanline order for regions), classes the bipartition class of each
    vertex, edges triples (i, j, weight) of vertex indices with exact
    positive rational weights.
    """

    verts: tuple
    classes: tuple
    edges: tuple

    def __post_init__(self):
        for i, j, w in self.edges:
            if self.classes[i] == self.classes[j]:
                raise ValueError(f"edge ({i},{j}) is not bipartite")
            if w <= 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")

    def adjacency(self) -> list:
        adj = [[] for _ in self.verts]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj


def candidate_orders(g: DualGraph) -> dict:
    """Sweep orders of g's vertex indices by name, the given order first.

    Lattice triangles also get the row and anti-diagonal sweeps: lattice
    strips of the other two directions, each read along its length.
    """
    from .geometry import UP, UnitTriangle

    n = len(g.verts)
    orders = {"given": list(range(n))}
    if n and all(isinstance(t, UnitTriangle) for t in g.verts):
        # along both strips, U(x, .) < D(x, .) < U(x + 1, .)
        along = [2 * t.x + (t.orient != UP) for t in g.verts]
        rows = [(t.y, a) for t, a in zip(g.verts, along)]
        antidiagonals = [(t.x + t.y + (t.orient != UP), a) for t, a in zip(g.verts, along)]
        orders["row"] = sorted(range(n), key=rows.__getitem__)
        orders["antidiagonal"] = sorted(range(n), key=antidiagonals.__getitem__)
    return orders


def _positions_and_lasts(nbrs: list, order: list) -> tuple:
    """Each vertex's position in the order and its last neighbor's (-1 if none)."""
    pos = [0] * len(order)
    for p, v in enumerate(order):
        pos[v] = p
    return pos, [max(map(pos.__getitem__, us), default=-1) for us in nbrs]


def _frontier_width(nbrs: list, order: list) -> int:
    """Largest number of swept vertices still waiting for a later neighbor.

    nbrs lists each vertex's neighbor indices.
    """
    pos, last = _positions_and_lasts(nbrs, order)
    delta = [0] * (len(order) + 1)
    for p, q in zip(pos, last):
        if q > p:
            delta[p] += 1
            delta[q] -= 1
    width = live = 0
    for d in delta:
        live += d
        width = max(width, live)
    return width


def _plan(g: DualGraph) -> tuple:
    """Per-step transfer data for the narrowest sweep order, and the scale L.

    Step p sweeps vertex v and is (v, vbit, dying, earlier): vbit is v's slot
    bit if v has a later neighbor (else 0), dying the slot bits of frontier
    vertices whose last neighbor is v, and earlier lists v's earlier
    neighbors as (slot bit, scaled weight, vertex), parallel edges summed, in
    vertex order.  Raises ValueError above MAX_FRONTIER_WIDTH.
    """
    adj = g.adjacency()
    nbrs = [[u for u, _ in a] for a in adj]
    widths = {name: (_frontier_width(nbrs, order), order)
              for name, order in candidate_orders(g).items()}
    name = min(widths, key=lambda k: widths[k][0])
    width, order = widths[name]
    if width > MAX_FRONTIER_WIDTH:
        raise ValueError(
            f"matching oracle refuses a frontier of width {width} ({name} order, "
            f"{len(g.verts)} vertices); the limit is {MAX_FRONTIER_WIDTH}"
        )
    # ints and Fractions both carry numerator and denominator
    scale = math.lcm(*{w.denominator for _, _, w in g.edges})
    pos, last = _positions_and_lasts(nbrs, order)
    slot_bit = [0] * len(order)
    free, used = [], 0
    steps = []
    for p, v in enumerate(order):
        earlier = {}
        for u, w in adj[v]:
            if pos[u] < p:
                earlier[u] = earlier.get(u, 0) + w.numerator * (scale // w.denominator)
        if last[v] > p:
            if free:
                slot = free.pop()
            else:
                slot, used = used, used + 1
            slot_bit[v] = 1 << slot
        dying = 0
        for u in earlier:
            if last[u] == p:
                dying |= slot_bit[u]
                free.append(slot_bit[u].bit_length() - 1)
        steps.append((v, slot_bit[v], dying,
                      [(slot_bit[u], w, u) for u, w in sorted(earlier.items())]))
    return steps, scale


def _sweep(steps: list, layers: Optional[list] = None) -> dict:
    """Profile -> scaled weighted count after the last step; with `layers`,
    the profiles after every step are appended to it as well."""
    states = {0: 1}
    for _, vbit, dying, earlier in steps:
        nxt: dict = {}
        get = nxt.get
        for mask, val in states.items():
            d = mask & dying
            if d:
                # frontier vertices whose last chance is v: one must take v,
                # and two (no ubit equals d) kill the profile
                for ubit, w, _ in earlier:
                    if ubit == d:
                        m = mask ^ d
                        nxt[m] = get(m, 0) + (val if w == 1 else val * w)
                        break
                continue
            if vbit:
                m = mask | vbit
                nxt[m] = get(m, 0) + val
            for ubit, w, _ in earlier:
                if mask & ubit:
                    m = mask ^ ubit
                    nxt[m] = get(m, 0) + (val if w == 1 else val * w)
        if layers is not None:
            layers.append(nxt)
        states = nxt
        if not states:
            break
    return states


def count_matchings(g: DualGraph) -> MatchCount:
    """Sum over perfect matchings of the product of edge weights, exactly.

    Returns 0 when no perfect matching exists (in particular for an odd
    number of vertices); the empty graph counts 1.  Raises ValueError when
    the frontier is wider than MAX_FRONTIER_WIDTH.
    """
    n = len(g.verts)
    if n % 2:
        return Fraction(0)
    steps, scale = _plan(g)
    return Fraction(_sweep(steps).get(0, 0), scale ** (n // 2))


def count_matchings_backtrack(g: DualGraph) -> MatchCount:
    """Naive exhaustive matching count; independent check for the DP.

    Refuses graphs above BACKTRACK_CAP vertices, where enumeration stops
    being a sane oracle.
    """
    n = len(g.verts)
    if n > BACKTRACK_CAP:
        raise ValueError(f"backtracking oracle capped at {BACKTRACK_CAP} vertices, got {n}")
    if n % 2:
        return Fraction(0)
    adj = g.adjacency()
    matched = [False] * n

    def recurse(lo: int) -> Fraction:
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


# ---------------------------------------------------------------------------
# region-level wrappers
# ---------------------------------------------------------------------------

def count_tilings(region) -> MatchCount:
    """Weighted count of rhombus tilings of a region (1 for the empty region).

    Integral whenever the region carries no half-weight marks; in general the
    denominator divides 2^(number of marked positions).
    """
    from .geometry import dual_graph

    return count_matchings(dual_graph(region))


def find_tiling(region) -> Optional[object]:
    """One tiling of the region, deterministically, or None if untileable.

    One forward sweep in the order `count_matchings` would choose keeps the
    reachable profiles of every step.  The trace then walks back from the
    empty final profile: a vertex whose slot is set was left for a later
    neighbor, any other was matched to its smallest earlier neighbor whose
    predecessor profile is reachable.  Raises ValueError when the frontier is
    wider than MAX_FRONTIER_WIDTH.
    """
    from .geometry import Tiling, dual_graph

    g = dual_graph(region)
    if len(g.verts) % 2:
        return None
    steps, _ = _plan(g)
    layers = [{0: 1}]
    if 0 not in _sweep(steps, layers):
        return None
    mask = 0
    pairs = []
    for p in range(len(steps) - 1, -1, -1):
        v, vbit, _, earlier = steps[p]
        if mask & vbit:
            mask ^= vbit
            continue
        before = layers[p]
        for ubit, _, u in earlier:
            if not mask & ubit and (mask | ubit) in before:
                mask |= ubit
                pairs.append(frozenset((g.verts[v], g.verts[u])))
                break
        else:
            raise AssertionError("reachable profile has no reachable predecessor")
    return Tiling(frozenset(pairs))
