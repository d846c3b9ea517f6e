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
  every graph.  The candidates are the given order and `DualGraph.orders`
  (for a region, the rows and anti-diagonals of `geometry.dual_graph`).
  One pass per candidate finds each vertex's position and its last
  neighbor's, which give the width in O(V+E); the narrowest order is swept
  and its positions are reused for the slot plan.
- Bounded work.  A graph whose chosen width exceeds MAX_FRONTIER_WIDTH is
  refused with a ValueError before any sweeping.
- Fused steps.  The sweep applies GROUP consecutive steps at once.  Those
  steps read and write only a few slot bits, so their effect on a profile
  depends on the profile's pattern in those bits alone; a table built lazily
  per pattern maps it to its `_moves`, the output patterns and weights the
  steps make of that one pattern, and no profile dict is built between the
  steps of a group.  `_moves` is the one statement of the step rule.

`count_without` counts many graphs that are one base graph minus some
vertices on the base's plan: a missing vertex stays in the order as an
absent step (`earlier` is None), which matches nothing, so it leaves each
profile as it is and drops a profile still waiting on it.  The graphs fork
off one shared sweep of the base at their first absent step, so the steps
before it run once for all of them.

- Reflection.  A graph with a weight-preserving involution
  (`DualGraph.reflection`; for a defect region, its reflection in the axis)
  splits into its fixed vertices X, one side A and A's image B, with no
  edge between A and B (Ciucu, "Enumeration of perfect matchings in graphs
  with reflective symmetry", JCTA 77, 1997, works on the same split).
  `count_without` then sweeps A and X only and joins the result to itself
  across X: B's matchings are A's reflected.  A missing vertex of B is
  missing from a second sweep of A at its reflection.  Every other graph
  is the join's empty case, A and B empty and X all of it, so each graph
  has one plan (`_plan`) and one counting path.  The refusal is decided by
  the whole graph's narrowest order, which `find_tiling` sweeps.

`find_tiling` makes one forward pass that sweeps one step at a time, keeps
the reachable profiles of every step and then traces a matching back from
the empty profile.  The oracle imports nothing from the package: regions
and their graphs are built in `geometry`, and counted as regions in
`routes`.

The DP's guard, a plain exhaustive backtracking count capped at 40
vertices, is coded independently in tests/test_matchcount.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

# A sweep keeps up to 2^width profiles per step.  Width 20 (n=10, N=14 at
# s=4) takes about 6 s and 75 MB on a 2-vCPU Xeon with Python 3.11 in one
# sweep of the whole region (18 s with one profile dict per step), and
# 2.7-4.2 s swept as one side and joined across the axis; every region in
# the tests and the benchmark sweeps at width 14 or less.
MAX_FRONTIER_WIDTH = 20

# Steps per fused group.  On that host, in groups of 3, 4, 5, 6, 7 and 8,
# the `oracle` benchmark's commands (verify 4/4, oracle counts at 6/10/2,
# 7/8/3, 5/7/1 and 5/7/3, a render) took 120.7, 114.4, 115.0, 115.8, 119.6
# and 121.1 ms (medians of ten interleaved processes, each the minimum of
# five passes), and n=10 N=14 s=4 took 3.8-4.1, 3.2-3.3, 2.7-3.1, 2.3-2.8,
# 2.8-3.5 and 2.4-3.8 s.  Groups of 6 gain on that widest count but cost
# verify about 3%, and verify is most of the benchmark's time.
GROUP = 5

_by_vertex = itemgetter(2)


@dataclass(frozen=True)
class DualGraph:
    """Bipartite weighted graph; for tilings, the inner dual of a region.

    verts holds opaque hashable keys, in the order the sweep falls back on
    (scanline order for regions), classes the bipartition class of each
    vertex, edges triples (i, j, weight) of vertex indices with exact
    positive rational weights, orders (name, vertex order) pairs to try.
    reflection, if not empty, maps each vertex index to its image under an
    involution that keeps classes, edges and weights (for a region, see
    `geometry.dual_graph`).
    """

    verts: tuple
    classes: tuple
    edges: tuple
    orders: tuple = ()
    reflection: tuple = ()

    def __post_init__(self):
        for i, j, w in self.edges:
            if self.classes[i] == self.classes[j]:
                raise ValueError(f"edge ({i},{j}) is not bipartite")
            if w <= 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")
        for name, order in self.orders:
            if sorted(order) != list(range(len(self.verts))):
                raise ValueError(f"{name} order is not a permutation of the vertices")
        if self.reflection:
            self._check_reflection()

    def _check_reflection(self):
        image, classes = self.reflection, self.classes
        ids = range(len(self.verts))
        if sorted(image) != list(ids) or any(image[image[v]] != v for v in ids):
            raise ValueError("reflection is not an involution of the vertices")
        if any(classes[image[v]] != classes[v] for v in ids):
            raise ValueError("reflection swaps bipartition classes")
        weight = {}
        for i, j, w in self.edges:
            key = (i, j) if i < j else (j, i)
            weight[key] = weight.get(key, 0) + w
        for (i, j), w in weight.items():
            a, b = image[i], image[j]
            if weight.get((a, b) if a < b else (b, a)) != w:
                raise ValueError(f"reflection breaks edge ({i},{j}) or its weight")


def candidate_orders(g: DualGraph) -> dict:
    """Sweep orders of g's vertex indices by name, the given order first."""
    return {"given": list(range(len(g.verts))), **dict(g.orders)}


def _width(order: list, nbrs: list, stop: int) -> tuple:
    """The frontier width of sweeping order[:stop] as a prefix of `order`,
    each vertex's position in `order` (len(nbrs) if outside it) and its last
    neighbor's there (-1 if none)."""
    n = len(nbrs)
    pos = [n] * n
    last = [-1] * n
    for p, v in enumerate(order):
        pos[v] = p
        for u in nbrs[v]:
            last[u] = p
    # the most swept vertices still waiting for a later neighbor
    delta = [0] * (len(order) + 1)
    for p in range(stop):
        q = last[order[p]]
        if q > p:
            delta[p] += 1
            delta[q] -= 1
    return max(itertools.islice(itertools.accumulate(delta), stop), default=0), pos, last


def _steps(order: list, pos: list, last: list, nbrs: list) -> list:
    """The steps of `_plan` that sweep `order`, given `_width`'s positions.

    A vertex takes a slot freed before its own step (last freed, first
    taken) or else a new one, and frees it at its last neighbor's step."""
    slot_bit = [0] * len(nbrs)
    free, used = [], 0
    steps = []
    for p, v in enumerate(order):
        vbit = 0
        if last[v] > p:
            if free:
                vbit = free.pop()
            else:
                vbit, used = 1 << used, used + 1
            slot_bit[v] = vbit
        dying = 0
        earlier = []
        for u, w in nbrs[v].items():
            if pos[u] < p:
                ubit = slot_bit[u]
                earlier.append((ubit, w, u))
                if last[u] == p:
                    dying |= ubit
                    free.append(ubit)
        earlier.sort(key=_by_vertex)
        steps.append((v, vbit, dying, earlier))
    return steps


def _order(g: DualGraph) -> tuple:
    """The narrowest candidate order of g (the first of equals) with its
    `_width` positions, the scaled neighbor weights and the scale L.

    nbrs[v] maps each neighbor of v to the weight of their edges, parallel
    edges summed, times L.  Raises ValueError above MAX_FRONTIER_WIDTH.
    """
    n = len(g.verts)
    # ints and Fractions both carry numerator and denominator
    scale = math.lcm(*{w.denominator for _, _, w in g.edges})
    nbrs = [{} for _ in range(n)]
    for i, j, w in g.edges:
        w = w.numerator * (scale // w.denominator)
        nbrs[i][j] = nbrs[i].get(j, 0) + w
        nbrs[j][i] = nbrs[j].get(i, 0) + w
    best = None
    for name, order in candidate_orders(g).items():
        width, pos, last = _width(order, nbrs, n)
        if best is None or width < best[0]:
            best = (width, name, order, pos, last)
    width, name, order, pos, last = best
    if width > MAX_FRONTIER_WIDTH:
        raise ValueError(
            f"matching oracle refuses a frontier of width {width} ({name} order, "
            f"{n} vertices); the limit is {MAX_FRONTIER_WIDTH}"
        )
    return order, pos, last, nbrs, scale


def _plan(g: DualGraph) -> tuple:
    """The plan `count_without` sweeps: (steps, stop, pos, join, scale).

    Where g's reflection splits it into its fixed vertices X, one side A
    and A's image B (see `_sides`), the steps sweep A and then X, stop is
    the number over A, and join lists, for each X vertex x with a neighbor
    b in B, (slot bit of x, slot bit of b's reflection, scaled weight of
    x-b).  A is swept in the candidate order, or its reverse, that keeps
    the fewest of A's vertices waiting at once (a vertex with a neighbor in
    X waits to the end of A), and X follows in the same order.  Elsewhere,
    and where A and X together are wider than MAX_FRONTIER_WIDTH, A and B
    are empty: the steps sweep the whole graph in `_order`'s order, stop is
    0 and join is [].  pos[v] is v's position in A + X + B (in the whole
    order where A is empty).

    Step p sweeps vertex v and is (v, vbit, dying, earlier): vbit is v's
    slot bit if v has a later neighbor (else 0), dying the slot bits of
    frontier vertices whose last neighbor is v, and earlier lists v's
    earlier neighbors as (slot bit, scaled weight, vertex) in vertex order.
    `count_without` turns the step of a vertex its graph lacks into an
    absent step, (v, vbit, dying, None).  Raises ValueError, as `_order`,
    when the whole graph is too wide.
    """
    order, pos, last, nbrs, scale = _order(g)
    stop, partner = 0, {}
    split = _sides(g.reflection, nbrs)
    if split is not None:
        side = split[0]
        best = None
        for candidate in candidate_orders(g).values():
            for seq in (candidate, candidate[::-1]):
                ours = [v for v in seq if side[v] == 1]
                half = ours + [v for v in seq if not side[v]]
                width = _width(half, nbrs, len(ours))[0]
                if best is None or width < best[0]:
                    best = (width, ours, half)
        _, ours, half = best
        width, half_pos, half_last = _width(
            half + [g.reflection[v] for v in ours], nbrs, len(half))
        if width <= MAX_FRONTIER_WIDTH:
            order, pos, last, stop = half, half_pos, half_last, len(ours)
            partner = split[1]
    steps = _steps(order, pos, last, nbrs)
    bit = {v: vbit for v, vbit, _, _ in steps}
    join = [(bit[x], bit[g.reflection[b]], nbrs[x][b]) for x, b in partner.items()]
    return steps, stop, pos, join, scale


def _sides(mirror: tuple, nbrs: list) -> Optional[tuple]:
    """Each vertex's side under the reflection `mirror` (0 if fixed, in X;
    1 in A; 2 in B) and each X vertex's neighbor in B, if any; None where
    the join of `count_without` does not apply.

    A is one component of g - X from each pair the reflection swaps, so B,
    A's image, has no edge to A.  The join needs A not empty, every X
    vertex to have at most one neighbor in B, and no two of them the same
    one.
    """
    n = len(mirror)
    # A grows one component of g - X at a time, and B takes its image
    side = [0] * n
    for v in range(n):
        if side[v] or mirror[v] == v:
            continue
        side[v] = 1
        component, stack = [v], [v]
        while stack:
            for u in nbrs[stack.pop()]:
                if not side[u] and mirror[u] != u:
                    side[u] = 1
                    stack.append(u)
                    component.append(u)
        for u in component:
            if side[mirror[u]]:
                return None  # a component the reflection maps onto itself
            side[mirror[u]] = 2
    pairs = [(x, b) for x in range(n) if not side[x] for b in nbrs[x] if side[b] == 2]
    partner = dict(pairs)
    if 1 not in side or not len(pairs) == len(partner) == len(set(partner.values())):
        return None
    return side, partner


def _moves(mask: int, steps: list) -> list:
    """The (profile, scaled weight) pairs that sweeping `steps` makes of the
    one profile `mask`, one pair per way through the steps: a profile that
    two ways reach is listed twice, and the caller sums them.

    This is the step rule.  The step of v takes v to a frontier vertex
    whose last neighbor is v (a dying bit set in the profile), and a
    profile with two of them (no ubit equals both) dies; a profile with
    none leaves v for a later neighbor (its vbit set) or matches v to any
    earlier neighbor still on the frontier.  An absent step (`earlier`
    None) matches nothing: a profile still waiting on it dies, and any
    other stays as it is.
    """
    out = [(mask, 1)]
    for _, vbit, dying, earlier in steps:
        nxt = []
        for m, val in out:
            d = m & dying
            if earlier is None:
                if not d:
                    nxt.append((m, val))
            elif d:
                for ubit, w, _ in earlier:
                    if ubit == d:
                        nxt.append((m ^ d, val * w))
                        break
            else:
                if vbit:
                    nxt.append((m | vbit, val))
                for ubit, w, _ in earlier:
                    if m & ubit:
                        nxt.append((m ^ ubit, val * w))
        out = nxt
    return out


def _sweep(steps: list, states: Optional[dict] = None) -> dict:
    """Profile -> scaled weighted count after the last step, from `states`
    (the empty profile alone by default).

    The steps are applied in groups of GROUP.  A group reads and writes only
    the slot bits in `local`, so it leaves mask & ~local alone and its effect
    depends on mask & local only; the table maps each such pattern to its
    `_moves` through the group, built the first time the pattern is met.
    """
    if states is None:
        states = {0: 1}
    for k in range(0, len(steps), GROUP):
        group = steps[k:k + GROUP]
        local = 0
        for _, vbit, dying, earlier in group:
            local |= vbit | dying
            for ubit, _, _ in earlier or ():
                local |= ubit
        table: dict = {}
        nxt: dict = {}
        get = nxt.get
        for mask, val in states.items():
            key = mask & local
            moves = table.get(key)
            if moves is None:
                moves = table[key] = _moves(key, group)
            rest = mask ^ key
            for pattern, w in moves:
                m = rest | pattern
                nxt[m] = get(m, 0) + (val if w == 1 else val * w)
        states = nxt
        if not states:
            break
    return states


def count_matchings(g: DualGraph) -> Fraction:
    """Sum over perfect matchings of the product of edge weights, exactly.

    Returns 0 when no perfect matching exists (in particular for an odd
    number of vertices); the empty graph counts 1.  Raises ValueError when
    the frontier is wider than MAX_FRONTIER_WIDTH.
    """
    if len(g.verts) % 2:
        return Fraction(0)
    return count_without(g, [()])[0]


def count_without(g: DualGraph, absent: list) -> list:
    """[count_matchings(g minus the vertices in a) for a in absent], each a
    list of distinct vertex indices, on one plan of g (see `_plan`).

    Each graph's count is the sum, over the profiles P of X vertices left
    for the other side B,

        H[P] * prod over x in P of w(x, b(x)) * F[reflection of b(P)],

    where b(x) is x's neighbor in B, H holds the profiles after X, swept
    on from the graph's own sweep of A, and F those after A swept with the
    reflections of the graph's missing B vertices absent: by the
    reflection, B's matchings are those of A.  Where A is empty, F is the
    empty profile alone and the count is H's.  A missing vertex is an
    absent step of these sweeps; the sweeps of A fork off one shared sweep
    at their first absent step, and so do the sweeps of X that go on from
    one sweep of A.  Raises ValueError, before any sweeping, when g is
    wider than MAX_FRONTIER_WIDTH in `_order`'s order.
    """
    steps, stop, pos, join, scale = _plan(g)
    mirror = g.reflection
    sides = {}  # absent positions in A -> index of its sweep of A
    members = []
    for lacks in absent:
        own, other, fixed = [], [], []
        for v in lacks:
            p = pos[v]
            if p < stop:
                own.append(p)
            elif p < len(steps):
                fixed.append(p - stop)
            else:
                other.append(pos[mirror[v]])
        own = sides.setdefault(tuple(sorted(own)), len(sides))
        other = sides.setdefault(tuple(sorted(other)), len(sides))
        members.append((own, other, sorted(fixed)))
    ends = _sweep_forks(steps[:stop], list(sides))
    after = {}  # index of a sweep of A -> the graphs that go on from it
    for k, (own, _, _) in enumerate(members):
        after.setdefault(own, []).append(k)
    finals = [None] * len(members)
    for own, ks in after.items():
        forks = _sweep_forks(steps[stop:], [members[k][2] for k in ks], ends[own])
        for k, final in zip(ks, forks):
            finals[k] = final
    values = []
    for (_, other, _), final, lacks in zip(members, finals, absent):
        across = ends[other]
        total = 0
        for mask, val in final.items():
            key = 0
            for xbit, abit, w in join:
                if mask & xbit:
                    key |= abit
                    val *= w
            total += val * across.get(key, 0)
        values.append(Fraction(total, scale ** ((len(g.verts) - len(lacks)) // 2)))
    return values


def _sweep_forks(steps: list, absent_at: list, states: Optional[dict] = None) -> list:
    """[the profiles after `steps` from `states` with the steps at the
    positions in `at` absent, for at in absent_at], each `at` in increasing
    order.  The sweeps fork off one shared sweep at their first absent
    step, in plan order."""
    forks = sorted((at[0] if at else len(steps), k, at) for k, at in enumerate(absent_at))
    finals = [None] * len(absent_at)
    done = 0
    for first, k, at in forks:
        states = _sweep(steps[done:first], states)
        done = first
        tail = steps[first:]
        for p in at:
            tail[p - first] = steps[p][:3] + (None,)
        finals[k] = _sweep(tail, states)
    return finals


def find_tiling(g: DualGraph) -> Optional[frozenset]:
    """One perfect matching of g as a set of key pairs (for a region's graph,
    a tiling's rhombi), deterministically, or None if there is none.

    One forward sweep of the whole graph in `_order`'s order, one step per
    `_sweep`, keeps the reachable profiles of every step.  The trace then walks back from the
    empty final profile: a vertex whose slot is set was left for a later
    neighbor, any other was matched to its smallest earlier neighbor whose
    predecessor profile is reachable.  Raises ValueError when the frontier is
    wider than MAX_FRONTIER_WIDTH, and ArithmeticError when the stored
    profiles do not trace back, an internal exactness failure.
    """
    if len(g.verts) % 2:
        return None
    order, pos, last, nbrs, _ = _order(g)
    steps = _steps(order, pos, last, nbrs)
    layers = [{0: 1}]
    for step in steps:
        layers.append(_sweep([step], layers[-1]))
        if not layers[-1]:
            break
    if 0 not in layers[-1]:
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
            raise ArithmeticError("reachable profile has no reachable predecessor")
    return frozenset(pairs)
