"""Operation lists of the two workloads and the checks on their outputs.

Every operation is one `hexcount` command line.  The seed varies only
inputs whose cost does not depend on it: the defect position of the small
odd oracle case, of the odd det case and of the closed case, and the random
seed of the identity suites.  The defect positions of the large oracle and
even det cases stay fixed, because their cost changes by up to 40% with s.

Expected values live in refs.json, written by make_refs.py at the commit
that defined the benchmark.  Every count (oracle, det, closed, box and the
verify grid) is checked against the closed route's value computed there;
asymptotic rows, polynomial coefficients and identity tuple counts against
that commit's output.  Values of more than 64 characters are stored as a
sha256 digest of their decimal string.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"

WORKLOADS = ("oracle", "exact")

# Seeded ranges; make_refs.py writes a reference for every value in them.
ORACLE_SMALL_S = range(1, 6)        # count --route oracle at (5, 7, s)
DET_ODD_S = range(8, 25)            # count --route det at (49, 49, s)
CLOSED_N = 110                      # largest even size below 4300 digits
CLOSED_S = range(30, 46)            # count --route closed at (110, 110, s)
IDENTITY_SEEDS = range(1, 17)       # identities --seed k

# At the seed this exits 2: the count has more than 4300 digits, Python's
# default int->str limit.  It is run once per exact run, outside the
# timed passes, and reported as a probe (see README.md).
PROBE_ARGV = ("count", "--route", "closed", "--n", "200", "--N", "200", "--s", "70", "--json")


@dataclass(frozen=True)
class Op:
    name: str     # per-operation metric is op.<name>_s
    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def count_argv(route: str, n: int, N: int, s: int) -> tuple:
    return ("count", "--route", route, "--n", str(n), "--N", str(N), "--s", str(s), "--json")


def identities_argv(seed: int) -> tuple:
    return ("identities", "--suite", "all", "--max-n", "7", "--count", "400", "--seed", str(seed))


def build(workload: str, seed: int) -> list:
    """The workload's operations for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        return [
            Op("verify", ("verify", "--max-n", "4", "--max-m", "4", "--json")),
            Op("count_oracle", count_argv("oracle", 6, 10, 2)),
            Op("count_oracle", count_argv("oracle", 7, 8, 3)),
            Op("count_oracle", count_argv("oracle", 5, 7, rng.choice(ORACLE_SMALL_S))),
            Op("render", ("render", "--n", "5", "--N", "6", "--s", "2")),
        ]
    if workload == "exact":
        return [
            Op("count_det_even", count_argv("det", 48, 48, 16)),
            Op("count_det_odd", count_argv("det", 49, 49, rng.choice(DET_ODD_S))),
            Op("count_closed", count_argv("closed", CLOSED_N, CLOSED_N, rng.choice(CLOSED_S))),
            Op("count_box", ("count", "--box", "60", "60", "60", "--json")),
            Op("asymptotic", ("asymptotic", "--alpha", "2", "--beta", "2", "--gamma", "1",
                              "--t-list", "32,64,96", "--json")),
            Op("polydet", ("polydet", "--n", "11", "--s", "4", "--json")),
            Op("polydet", ("polydet", "--n", "8", "--s", "0", "--json")),
            Op("identities", identities_argv(rng.choice(IDENTITY_SEEDS))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def op_names() -> list:
    """Every operation name of every workload, sorted."""
    return sorted({op.name for w in WORKLOADS for op in build(w, 0)})


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def fingerprint(value: str) -> str:
    """The value itself, or a sha256 digest when it has more than 64 characters."""
    if len(value) <= 64:
        return value
    return "sha256:" + hashlib.sha256(value.encode("ascii")).hexdigest()


def load_refs() -> dict:
    with open(REFS, encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------

def check(op: Op, rc, out: str, svg: str | None, refs: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    cmd = op.argv[0]
    if cmd == "render":
        return _check_render(op, out, svg)
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    ref = refs.get(op.key)
    if ref is None:
        return "no reference for this operation"
    if cmd == "count":
        route = op.argv[op.argv.index("--route") + 1] if "--route" in op.argv else "closed"
        if report.get("agree") is not True:
            return "agree is false"
        got = report.get("values", {}).get(route)
        if got is None or fingerprint(got) != ref:
            return f"{route} value differs from reference"
        return None
    if cmd == "verify":
        if report.get("ok") is not True:
            return "ok is false"
        cases = report.get("cases", [])
        if len(cases) != len(ref):
            return f"{len(cases)} cases, expected {len(ref)}"
        for c in cases:
            key = "{n},{N},{s}".format(**c["case"])
            if not c.get("agree") or key not in ref:
                return f"case {key} disagrees or is unexpected"
            if c["values"]["closed"] != ref[key] or c["values"]["oracle"] != ref[key]:
                return f"case {key} value differs from reference"
        return None
    if cmd == "asymptotic":
        if report.get("relative_error_decreasing") is not True:
            return "relative error not decreasing"
        if report.get("rows") != ref:
            return "rows differ from reference"
        return None
    if cmd == "polydet":
        if report.get("ok") is not True:
            return "ok is false"
        coeffs = fingerprint("\n".join(report.get("coefficients", [])))
        if report.get("degree") != ref["degree"] or coeffs != ref["coefficients"]:
            return "polynomial differs from reference"
        return None
    if cmd == "identities":
        if report.get("ok") is not True:
            return "ok is false"
        got = {s["suite"]: s["tuples_checked"] for s in report.get("suites", []) if not s["failures"]}
        if got != ref:
            return "suites or tuple counts differ from reference"
        return None
    return f"no check for command {cmd!r}"


_POLYGON = re.compile(r'<polygon points="([^"]*)" fill="([^"]*)"')
_REMOVED_FILL = "#3d3d3d"


def _check_render(op: Op, out: str, svg: str | None) -> str | None:
    """The picture shows the hexagon and a tiling of the defect region.

    The full hexagon with sides n, N, n has 4nN + 2n^2 unit triangles, all
    drawn, the removed ones dark.  Each tiling rhombus is drawn by its four
    corners (outer, shared, outer, shared); its two unit triangles must be
    drawn triangles, and together the rhombi must cover every triangle that
    is not removed exactly once.  Any valid tiling passes.
    """
    if svg is None:
        return "no SVG written"
    if not out.startswith("wrote "):
        return "unexpected stdout"
    n = int(op.argv[op.argv.index("--n") + 1])
    N = int(op.argv[op.argv.index("--N") + 1])
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        return "SVG is not closed"
    polys = [(points.split(), fill) for points, fill in _POLYGON.findall(svg)]
    triangles = {frozenset(pts): fill for pts, fill in polys if len(pts) == 3}
    if len(triangles) != 4 * n * N + 2 * n * n:
        return f"{len(triangles)} triangles drawn, expected {4 * n * N + 2 * n * n}"
    removed = {t for t, fill in triangles.items() if fill == _REMOVED_FILL}
    if len(removed) != 2:
        return f"{len(removed)} removed cells drawn, expected 2"
    covered = set()
    for pts, _ in polys:
        if len(pts) != 4:
            continue
        outer_a, shared_a, outer_b, shared_b = pts
        for half in (frozenset((outer_a, shared_a, shared_b)),
                     frozenset((outer_b, shared_a, shared_b))):
            if half not in triangles or half in removed:
                return "a rhombus covers a removed cell or leaves the hexagon"
            if half in covered:
                return "two rhombi overlap"
            covered.add(half)
    if len(covered) + len(removed) != len(triangles):
        return f"{len(triangles) - len(removed) - len(covered)} cells left uncovered"
    return None
