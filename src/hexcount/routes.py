"""The counting routes for one case, and the verify pass over blocks of cases.

A defect hexagon (n, N, s) is counted by the closed form, the lattice-path
determinants and the matching oracle; a full hexagon by MacMahon's formula
and the oracle.  Routes stay independent: no route reads another's result,
so their agreement is evidence and not an echo.  At the side midpoints
(`HexSpec.on_boundary`) the closed form counts the recombined pair of
halves, so the oracle counts those two halves there and nothing else; only
`verify` also counts the two-triangle surrogate region, as a note.

The oracle counts graphs; its region-level counts, `count_tilings` and
`count_subregions`, live here and hand it `geometry.dual_graph`'s graphs.

Calls into the other modules are looked up on the module at call time, so a
tracer or a test that rebinds a module function reaches every route.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from . import formulas, geometry, matchcount, pathdet

BOUNDARY_NOTE = (
    "boundary defect (s=0 or s=n, even cut side): the closed form counts the "
    "factorized half pair, certified here by half-region oracles"
)


def closed_route(n: int, N: int, s: int) -> int:
    m = N // 2
    if N % 2 == 0:
        return formulas.even_case_count(n, m, s)
    return formulas.odd_case_count(n, m, s)


def product_route(n: int, N: int, s: int) -> Fraction:
    m = N // 2
    if N % 2 == 0:
        return formulas.even_case_product(n, m, s)
    return formulas.odd_case_product(n, m, s)


def det_route(n: int, N: int, s: int) -> Fraction:
    m = N // 2
    if N % 2 == 0:
        upper = pathdet.det_exact(pathdet.upper_path_matrix(n, m))
        lower = pathdet.det_exact(pathdet.lower_path_matrix(n, m, min(s, n - s)))
    else:
        upper = pathdet.det_exact(pathdet.upper_path_matrix(n + 1, m))
        lower = pathdet.det_exact(pathdet.odd_lower_path_matrix(n, m, s))
    return Fraction(2) ** (n - 1) * upper * lower


def count_tilings(region) -> Fraction:
    """Weighted count of rhombus tilings of a region (1 for the empty region).

    Integral whenever the region carries no half-weight marks; in general the
    denominator divides 2^(number of marked positions).
    """
    return matchcount.count_matchings(geometry.dual_graph(region))


def count_subregions(base, regions) -> list:
    """[count_tilings(r) for r in regions], a sequence, with one plan of `base`
    for the regions that are `base` minus some triangles.

    Such a member keeps `base`'s marks on the pairs it holds whole, so its
    graph is the base graph minus the missing triangles' vertices, which
    `matchcount.count_without` counts on the base's plan.  Any other region,
    and every region when the base is refused, goes through `count_tilings`,
    which counts or refuses it as it would alone.
    """
    g = geometry.dual_graph(base)
    index = {t: i for i, t in enumerate(g.verts)}
    tris, marks = base.triangles, base.half_weight_edges
    absent = {}
    for k, region in enumerate(regions):
        kept = region.triangles
        if kept <= tris and region.half_weight_edges == {e for e in marks if e <= kept}:
            absent[k] = [index[t] for t in tris - kept]
    try:
        values = dict(zip(absent, matchcount.count_without(g, list(absent.values()))))
    except ValueError:
        values = {}  # a refused base: every region is counted alone
    return [values[k] if k in values else count_tilings(r) for k, r in enumerate(regions)]


def boundary_witness_region(n: int, m: int):
    """Lower-half region whose oracle count equals lower_half_count(n, m, 0).

    The even boundary defect has no symmetric region of its own, but its
    lower-half value is the lower half of the odd hexagon with sides n+1 and
    2m-1, defect at the first axis vertex.
    """
    return geometry.split_halves(geometry.HexSpec(n + 1, 2 * m - 1, 1))[1]


def oracle_route(n: int, N: int, s: int) -> Fraction:
    """Oracle count of the closed form's object.

    Interior defects (and every odd-case defect) are counted directly as
    regions.  The even boundary defects are formula extensions with no
    symmetric region, so their value is certified as 2^(n-1) times the oracle
    counts of the two halves (the lower one through its odd-case witness),
    and the surrogate region `geometry.remove_axis_defect` builds there is
    not counted.
    """
    spec = geometry.HexSpec(n, N, s)
    if spec.on_boundary:
        upper = geometry.split_halves(spec)[0]
        return (
            Fraction(2) ** (n - 1)
            * count_tilings(upper)
            * count_tilings(boundary_witness_region(n, spec.m))
        )
    return count_tilings(geometry.remove_axis_defect(spec))


DEFECT_ROUTES = {"closed": closed_route, "det": det_route, "oracle": oracle_route}


def box_closed_route(a: int, b: int, c: int) -> int:
    return formulas.box_count(a, b, c)


def box_oracle_route(a: int, b: int, c: int) -> Fraction:
    return count_tilings(geometry.build_hexagon(a, b, c))


BOX_ROUTES = {"closed": box_closed_route, "oracle": box_oracle_route}


def verify_case(spec: geometry.HexSpec, counts: tuple, witness):
    """All cross-checks for one case; returns the per-case report dict.

    `counts` holds the oracle's counts of the case's defect region, upper
    half and lower half, and `witness` its count of the boundary witness
    (None in a block with no boundary case).  The report's `wall_s` is the
    time of these checks alone; `verify_cases` adds the block's shared
    counting time to its first case.

    Each closed-form and determinant value is evaluated once, through
    `value`.  One that raises ArithmeticError is failed: its name goes into
    the report's `failed` list, a note names it and the error, and the error
    stands in for the value.  An error equals no count and no other error,
    so every check that reads a failed value fails, and the other checks
    and cases still run.  The oracle's values are failed the same way, as
    "oracle", when the block's shared counting raised: then `counts` and
    `witness` hold its error.
    """
    n, N, s, m = spec.n, spec.N, spec.s, spec.m
    t0 = time.perf_counter()
    checks = {}
    notes = []
    failed = []

    def value(name, route, *args):
        try:
            return route(*args)
        except ArithmeticError as err:
            failed.append(name)
            notes.append(f"{name} value failed: {err!r}")
            return err

    closed = value("closed", closed_route, n, N, s)
    checks["product"] = value("product", product_route, n, N, s) == closed
    checks["determinant"] = value("determinant", det_route, n, N, s) == closed
    checks["mirror"] = value("mirror", closed_route, n, N, spec.mirror_s) == closed

    region, count_upper, count_lower = counts
    # the closed form's lower half is the boundary witness, not the surrogate's
    lower_object = witness if spec.on_boundary else count_lower
    if spec.on_boundary:
        notes.append(BOUNDARY_NOTE + "; the two-triangle surrogate region's own "
                     "count is reported informationally")
        notes.append(f"surrogate region count {region} vs closed form {closed}")
    if isinstance(region, ArithmeticError):
        failed.append("oracle")
        notes.append(f"oracle value failed: {region!r}")
        oracle_value = region
        checks["oracle"] = checks["factorization"] = False
    else:
        oracle_value = (Fraction(2) ** (n - 1) * count_upper * lower_object
                        if spec.on_boundary else region)
        checks["oracle"] = oracle_value == closed
        checks["factorization"] = region == Fraction(2) ** (n - 1) * count_upper * count_lower
    if spec.is_even:
        upper_half = value("upper_half", formulas.upper_half_count, n, m)
        lower_half = value("lower_half", formulas.lower_half_count, n, m, min(s, n - s))
    else:
        upper_half = value("upper_half", formulas.odd_upper_half_count, n, m)
        lower_half = value("lower_half", formulas.odd_lower_half_count, n, m, s)
    checks["upper_half"] = count_upper == upper_half
    checks["lower_half"] = lower_object == lower_half

    return {
        "case": {"n": n, "N": N, "s": s},
        "values": {
            "closed": str(closed),
            "oracle": str(oracle_value),
            "upper_half": str(count_upper),
            "lower_half": str(count_lower),
        },
        "checks": checks,
        "agree": all(checks.values()),
        "notes": notes,
        "failed": failed,
        "wall_s": time.perf_counter() - t0,
    }


def verify_grid(max_n: int, max_m: int):
    cases = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            cases.extend((n, 2 * m, s) for s in range(0, n + 1))
            cases.extend((n, 2 * m + 1, s) for s in range(1, n + 1))
    return sorted(cases)


def verify_cases(cases):
    """verify_case for each case, in order.

    Each (n, N) block of consecutive cases is counted in one pass.  The pass
    builds the hexagon once, and each case's own defect region from it and
    halves from that region, so a fault in one case's region reaches only
    that case.  The oracle counts the block's defect regions, upper halves
    and lower halves on one plan each (`count_subregions`), and
    the boundary witness, shared by s = 0 and s = n, once if the block has
    a boundary case.  An ArithmeticError from that counting fails the
    block's oracle values (see `verify_case`), and the other blocks still
    run.  The pass's time is added to the `wall_s` of the block's first
    case.  The counts end with the block, so no count outlives the cases
    that can reuse it.
    """
    results = []
    for (n, N), group in itertools.groupby(cases, key=lambda case: case[:2]):
        t0 = time.perf_counter()
        specs = [geometry.HexSpec(*case) for case in group]
        hexagon = geometry.build_hexagon(n, N, n)
        whole = [geometry.remove_axis_defect(spec, hexagon) for spec in specs]
        upper, lower = zip(*map(geometry.split_halves, specs, whole))
        # every defect region is the hexagon minus two triangles, every upper
        # half the hexagon's upper half, and every lower half the hexagon's
        # marked lower half minus the same two triangles
        upper_base, lower_base = geometry.split_halves(geometry.HexSpec(n, N, n), hexagon)
        witness = None
        try:
            counts = list(zip(count_subregions(hexagon, whole),
                              count_subregions(upper_base, upper),
                              count_subregions(lower_base, lower)))
            if any(spec.on_boundary for spec in specs):
                witness = count_tilings(boundary_witness_region(n, N // 2))
        except ArithmeticError as err:
            # the error stands in for every oracle value of the block
            counts, witness = [(err, err, err)] * len(specs), err
        shared_s = time.perf_counter() - t0
        block = [verify_case(spec, c, witness) for spec, c in zip(specs, counts)]
        block[0]["wall_s"] += shared_s
        results += block
    return results


def exact_ratio(alpha: int, beta: int, gamma: int, t: int) -> Fraction:
    """Defect count over box count at scale t, as an exact rational."""
    n, m, s = alpha * t, beta * t // 2, gamma * t
    if beta * t % 2:
        raise ValueError(f"beta*t must be even, got beta={beta}, t={t}")
    return formulas.even_case_ratio(n, m, s)
