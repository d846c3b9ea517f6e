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
  per pattern, by running the unit steps on that one pattern, maps it to its
  output patterns and weights, and no profile dict is built between the
  steps of a group.  A group whose input holds too few profiles to share the
  tables runs as unit steps.

`count_without` counts many graphs that are one base graph minus some
vertices on the base's plan: a missing vertex stays in the order as an
absent step (`earlier` is None), which matches nothing, so it leaves each
profile as it is and drops a profile still waiting on it.  The graphs fork
off one shared sweep of the base at their first absent step, so the steps
before it run once for all of them.

`find_tiling` makes one forward pass of unit steps that keeps the reachable
profiles of every step and then traces a matching back from the empty
profile.  The oracle imports nothing from the package: regions and their
graphs are built in `geometry`, and counted as regions in `routes`.

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
# s=4) takes about 6 s and 75 MB on a 2-vCPU Xeon with Python 3.11 (18 s
# with one profile dict per step), and every region in the tests and the
# benchmark sweeps at width 14 or less.
MAX_FRONTIER_WIDTH = 20

# Steps per fused group.  On that host, sweeping the three large oracle
# benchmark graphs (6/10/2, 7/8/3, 5/7/3) took 118 ms in unit steps and
# 55/49/45/44 ms in groups of 3/4/5/6; a set of small regions (every region
# of a `verify --max-n 4 --max-m 4` grid, one sweep each) took 57-61 ms in
# each; n=10 N=12 s=4 took 11-17 s in unit steps and 5.0, 3.7-4.1, 3.4-3.6
# and 3.3 s in groups of 4, 5, 6 and 8.  Larger groups gain little more on
# large graphs and cost on small ones.
GROUP = 5

# A group runs as unit steps when its input holds at most TABLE_MIN_SHARE
# profiles per possible input pattern: building a table entry costs a few
# unit steps on one profile, so the tables pay only when patterns repeat.
# On that set of small regions with groups of 5, tables everywhere took
# 87 ms against 58 ms in unit steps, and shares 1, 4 and 8 gave 66, 62 and
# 57 ms.
TABLE_MIN_SHARE = 4

_by_vertex = itemgetter(2)


@dataclass(frozen=True)
class DualGraph:
    """Bipartite weighted graph; for tilings, the inner dual of a region.

    verts holds opaque hashable keys, in the order the sweep falls back on
    (scanline order for regions), classes the bipartition class of each
    vertex, edges triples (i, j, weight) of vertex indices with exact
    positive rational weights, orders (name, vertex order) pairs to try.
    """

    verts: tuple
    classes: tuple
    edges: tuple
    orders: tuple = ()

    def __post_init__(self):
        for i, j, w in self.edges:
            if self.classes[i] == self.classes[j]:
                raise ValueError(f"edge ({i},{j}) is not bipartite")
            if w <= 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")
        for name, order in self.orders:
            if sorted(order) != list(range(len(self.verts))):
                raise ValueError(f"{name} order is not a permutation of the vertices")


def candidate_orders(g: DualGraph) -> dict:
    """Sweep orders of g's vertex indices by name, the given order first."""
    return {"given": list(range(len(g.verts))), **dict(g.orders)}


def _plan(g: DualGraph) -> tuple:
    """Per-step transfer data for the narrowest sweep order, and the scale L.

    Step p sweeps vertex v and is (v, vbit, dying, earlier): vbit is v's slot
    bit if v has a later neighbor (else 0), dying the slot bits of frontier
    vertices whose last neighbor is v, and earlier lists v's earlier
    neighbors as (slot bit, scaled weight, vertex), parallel edges summed, in
    vertex order.  Raises ValueError above MAX_FRONTIER_WIDTH.

    `count_without` turns the step of a vertex its graph lacks into an
    absent step, (v, vbit, dying, None).
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
        # each vertex's position, and its last neighbor's (-1 if none)
        pos = [0] * n
        last = [-1] * n
        for p, v in enumerate(order):
            pos[v] = p
            for u in nbrs[v]:
                last[u] = p
        # the width: most swept vertices still waiting for a later neighbor
        delta = [0] * (n + 1)
        for p, q in zip(pos, last):
            if q > p:
                delta[p] += 1
                delta[q] -= 1
        width = max(itertools.accumulate(delta))
        if best is None or width < best[0]:
            best = (width, name, order, pos, last)
    width, name, order, pos, last = best
    if width > MAX_FRONTIER_WIDTH:
        raise ValueError(
            f"matching oracle refuses a frontier of width {width} ({name} order, "
            f"{n} vertices); the limit is {MAX_FRONTIER_WIDTH}"
        )
    # a vertex takes a slot freed before its own step (last freed, first
    # taken) or else a new one, and frees it at its last neighbor's step
    slot_bit = [0] * n
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
    return steps, scale


def _step(states: dict, step: tuple) -> dict:
    """Profile -> scaled weighted count after sweeping one more vertex."""
    _, vbit, dying, earlier = step
    if earlier is None:
        # an absent vertex matches nothing: a profile still waiting on it dies
        return {mask: val for mask, val in states.items() if not mask & dying}
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
    return nxt


def _sweep(steps: list, states: Optional[dict] = None) -> dict:
    """Profile -> scaled weighted count after the last step, from `states`
    (the empty profile alone by default).

    The steps are applied in groups of GROUP.  A group reads and writes only
    the slot bits in `local`, so it leaves mask & ~local alone and its effect
    depends on mask & local only; the table maps each such pattern to the
    (pattern out, weight) moves the group's unit steps make of it.  `inputs`
    holds the bits a group reads before it writes them; the others are slots
    the group allocates and are clear in every profile it receives.  An
    absent step (`earlier` None) reads only its dying bits.
    """
    if states is None:
        states = {0: 1}
    for k in range(0, len(steps), GROUP):
        group = steps[k:k + GROUP]
        local = inputs = 0
        for _, vbit, dying, earlier in group:
            read = dying
            for ubit, _, _ in earlier or ():
                read |= ubit
            inputs |= read & ~local
            local |= vbit | read
        if len(states) <= TABLE_MIN_SHARE << inputs.bit_count():
            for step in group:
                states = _step(states, step)
        else:
            table: dict = {}
            nxt: dict = {}
            get = nxt.get
            for mask, val in states.items():
                key = mask & local
                moves = table.get(key)
                if moves is None:
                    out = {key: 1}
                    for step in group:
                        out = _step(out, step)
                    moves = table[key] = list(out.items())
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
    list of distinct vertex indices, on one plan of g.

    Each graph is swept on g's plan with its missing vertices' steps absent:
    it forks off one shared sweep of g at its first absent step, the forks
    taken in plan order.  None is wider than g.  Raises ValueError, before
    any sweeping, when g is wider than MAX_FRONTIER_WIDTH.
    """
    steps, scale = _plan(g)
    pos = {step[0]: p for p, step in enumerate(steps)}
    forks = []
    for k, lacks in enumerate(absent):
        at = sorted(pos[v] for v in lacks)
        forks.append((at[0] if at else len(steps), k, at))
    forks.sort()
    values = [None] * len(absent)
    states, done = {0: 1}, 0
    for first, k, at in forks:
        states = _sweep(steps[done:first], states)
        done = first
        tail = steps[first:]
        for p in at:
            tail[p - first] = steps[p][:3] + (None,)
        final = _sweep(tail, states).get(0, 0)
        values[k] = Fraction(final, scale ** ((len(steps) - len(at)) // 2))
    return values


def find_tiling(g: DualGraph) -> Optional[frozenset]:
    """One perfect matching of g as a set of key pairs (for a region's graph,
    a tiling's rhombi), deterministically, or None if there is none.

    One forward sweep in the order `count_matchings` would choose keeps the
    reachable profiles of every step.  The trace then walks back from the
    empty final profile: a vertex whose slot is set was left for a later
    neighbor, any other was matched to its smallest earlier neighbor whose
    predecessor profile is reachable.  Raises ValueError when the frontier is
    wider than MAX_FRONTIER_WIDTH, and ArithmeticError when the stored
    profiles do not trace back, an internal exactness failure.
    """
    if len(g.verts) % 2:
        return None
    steps, _ = _plan(g)
    layers = [{0: 1}]
    for step in steps:
        layers.append(_step(layers[-1], step))
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
