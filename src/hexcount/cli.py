"""Command-line surface: argument parsing and output formatting.

Commands:

  count       one defect hexagon (or a full box) through chosen routes
  verify      the full cross-verification grid; exit 1 on any disagreement,
              3 when a value's exact arithmetic fails
  polydet     factor structure of the lower-half determinant polynomial
  identities  the summation-identity and vanishing-relation suites
  asymptotic  exact ratios against the limiting proportion; exit 1 unless the
              relative error decreases
  render      SVG picture of a region, its defect, and one tiling

The routes and the per-case cross-check live in `routes`; this module only
times them, compares their values and reports.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
check that would run no cases or compare nothing), 3 internal exactness
failure.  The default output is a human table; --json switches to the
machine format, which is byte-stable for fixed flags (timing is only
included with --timing).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import formulas, geometry, hyperid, matchcount, polyfactor, routes
from .render import region_svg
from .routes import verify_grid

EXIT_OK, EXIT_DISAGREE, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _fmt_ms(seconds: float) -> str:
    return f"{1000.0 * seconds:.1f}"


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    notes = []
    if args.box is not None:
        if args.route == "det":
            raise ValueError("route 'det' applies to defect hexagons, not --box")
        table, params = routes.BOX_ROUTES, tuple(args.box)
        case = {"box": list(params)}
    else:
        table, params = routes.DEFECT_ROUTES, (args.n, args.N, args.s)
        if geometry.HexSpec(*params).on_boundary:  # validates ranges
            notes.append(routes.BOUNDARY_NOTE)
        case = {"n": args.n, "N": args.N, "s": args.s}
    names = tuple(table) if args.route == "all" else (args.route,)
    values = {}
    timing = {}
    for r in names:
        t0 = time.perf_counter()
        values[r] = table[r](*params)
        timing[r] = time.perf_counter() - t0
    agree = len({Fraction(v) for v in values.values()}) == 1
    report = {
        "command": "count",
        "case": case,
        "values": {r: str(values[r]) for r in names},
        "agree": agree,
        "notes": notes,
    }
    if args.timing:
        report["wall_ms"] = {r: _fmt_ms(timing[r]) for r in names}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        label = " ".join(f"{k}={v}" for k, v in case.items())
        for r in names:
            print(f"{label}  {r:>6}: {values[r]}   ({_fmt_ms(timing[r])} ms)")
        if len(names) > 1:
            print(f"{label}  agreement: {'yes' if agree else 'NO'}")
        for note in notes:
            print(f"note: {note}")
    return EXIT_OK if agree else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cases = verify_grid(args.max_n, args.max_m)
    if not cases:
        raise ValueError(f"empty verify grid: --max-n {args.max_n} --max-m {args.max_m} "
                         "gives no cases; both must be at least 1")
    results = routes.verify_cases(cases)
    ok = all(r["agree"] for r in results)
    report = {
        "command": "verify",
        "grid": {"max_n": args.max_n, "max_m": args.max_m},
        "cases": [
            {k: r[k] for k in ("case", "values", "checks", "agree", "notes")}
            for r in results
        ],
        "ok": ok,
    }
    if args.timing:
        report["wall_ms"] = {
            f"n={r['case']['n']},N={r['case']['N']},s={r['case']['s']}": _fmt_ms(r["wall_s"])
            for r in results
        }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for r in results:
            c = r["case"]
            flags = " ".join(k for k, v in r["checks"].items() if not v)
            line = (
                f"n={c['n']} N={c['N']} s={c['s']}: closed={r['values']['closed']} "
                f"oracle={r['values']['oracle']} "
                f"{'ok' if r['agree'] else 'FAIL [' + flags + ']'} "
                f"({_fmt_ms(r['wall_s'])} ms)"
            )
            print(line)
            if not r["agree"]:
                for note in r["notes"]:
                    print(f"  note: {note}")
        bad = [r["case"] for r in results if not r["agree"]]
        print(f"verify: {len(results)} cases, {'all agree' if ok else f'disagreements at {bad}'}")
    failed = [r["case"] for r in results if r["failed"]]
    if failed:
        print(f"internal exactness failure: a value failed at {failed} (the cases' "
              "notes name each value and its error)", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# polydet
# ---------------------------------------------------------------------------

def cmd_polydet(args) -> int:
    n, s = args.n, args.s
    poly = polyfactor.lower_det_polynomial(n, s)
    half = polyfactor.half_integer_factor_report(poly, n)
    integer = polyfactor.integer_factor_report(poly, n, s)
    lead_ok = polyfactor.leading_coefficient_check(poly, n, s)
    product_ok = polyfactor.closed_product_matches_polynomial(poly, n, s)
    ok = half.ok and integer.ok and lead_ok and product_ok
    report = {
        "command": "polydet",
        "case": {"n": n, "s": s},
        "degree": poly.degree,
        "expected_degree": polyfactor.expected_degree(n),
        "coefficients": poly.coeff_strings(),
        "half_integer_factors": [
            {"factor": d, "required": req, "actual": act} for d, _, req, act in half.factors
        ],
        "integer_factors": [
            {"factor": d, "required": req, "actual": act} for d, _, req, act in integer.factors
        ],
        "leading_coefficient": str(poly.leading_coefficient()),
        "leading_coefficient_ok": lead_ok,
        "closed_product_ok": product_ok,
        "ok": ok,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"n={n} s={s}: degree {poly.degree} (expected {polyfactor.expected_degree(n)})")
        print("coefficients (ascending):", ", ".join(poly.coeff_strings()))
        for line in half.lines() + integer.lines():
            print(" ", line)
        print(f"leading coefficient {poly.leading_coefficient()}: {'ok' if lead_ok else 'FAIL'}")
        print(f"closed product match: {'ok' if product_ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

# --suite name -> its run on the parsed arguments; "all" runs them in this
# order.  The runners are looked up on `hyperid` at call time, so a tracer
# that rebinds them is reached.
SUITES = {
    "vandermonde": lambda args: hyperid.run_vandermonde_suite(args.count, args.seed),
    "pfaff": lambda args: hyperid.run_pfaff_suite(args.count, args.seed),
    "halb": lambda args: hyperid.run_half_root_suite(args.max_n),
    "ganz": lambda args: hyperid.run_integer_root_suite(args.max_n),
}


def cmd_identities(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    suites = [SUITES[name](args) for name in names]
    empty = [s["suite"] for s in suites if not s["tuples_checked"]]
    if empty:
        raise ValueError(f"suites {', '.join(empty)} checked no tuples at --max-n {args.max_n}")
    ok = all(not s["failures"] for s in suites)
    print(json.dumps({"command": "identities", "suites": suites, "ok": ok}, sort_keys=True))
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

def cmd_asymptotic(args) -> int:
    alpha, beta, gamma = args.alpha, args.beta, args.gamma
    limit = formulas.asymptotic_proportion(alpha, beta, gamma)
    ts = [int(t) for t in args.t_list.split(",")]
    if len(ts) < 2:
        raise ValueError(f"--t-list needs at least two scales to compare, got {args.t_list!r}")
    if min(ts) < 1:
        raise ValueError(f"--t-list scales need t >= 1, got t={min(ts)}")
    if len(set(ts)) < len(ts):
        raise ValueError(f"--t-list repeats a scale, which compares nothing, got {args.t_list!r}")
    rows = []
    for t in ts:
        ratio = routes.exact_ratio(alpha, beta, gamma, t)
        rel = abs(float(ratio) / limit - 1.0)
        rows.append({"t": t, "ratio": f"{float(ratio):.15g}", "rel_error": f"{rel:.6e}"})
    decreasing = all(
        float(rows[i]["rel_error"]) > float(rows[i + 1]["rel_error"]) for i in range(len(rows) - 1)
    )
    report = {
        "command": "asymptotic",
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "limit": f"{limit:.15g}",
        "rows": rows,
        "relative_error_decreasing": decreasing,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"limit proportion: {limit:.15g}")
        for r in rows:
            print(f"  t={r['t']:>4}: ratio={r['ratio']}  rel.err={r['rel_error']}")
        print(f"relative error decreasing: {'yes' if decreasing else 'NO'}")
    return EXIT_OK if decreasing else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    spec = geometry.HexSpec(args.n, args.N, args.s)
    if args.half is None:
        name, region = "defect", geometry.remove_axis_defect(spec)
        removed = geometry.defect_cells(spec)
        dashed = ()
    else:
        upper, lower = geometry.split_halves(spec)
        name, region = ("upper", upper) if args.half == "plus" else ("lower", lower)
        removed = ()
        dashed = region.half_weight_edges
    tiling = matchcount.find_tiling(geometry.dual_graph(region))
    if tiling is None:
        print(f"warning: region {name}(n={args.n},N={args.N},s={args.s}) has no tiling",
              file=sys.stderr)
    svg = region_svg(region, removed=removed, tiling=tiling, dashed_pairs=dashed)
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="hexcount",
        description="exact tiling counts for hexagons with a two-triangle axis defect",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="count one case through chosen routes")
    p.set_defaults(handler=cmd_count)
    p.add_argument("--n", type=int, help="the four equal sides")
    p.add_argument("--N", type=int, help="the two sides cut by the symmetry axis")
    p.add_argument("--s", type=int, help="defect vertex index")
    p.add_argument("--box", type=int, nargs=3, metavar=("A", "B", "C"),
                   help="count a full hexagon with sides A,B,C instead")
    p.add_argument("--route", choices=("closed", "det", "oracle", "all"), default="closed")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("verify", help="run the full cross-verification grid")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("polydet", help="factor structure of the determinant polynomial")
    p.set_defaults(handler=cmd_polydet)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("identities", help="summation identity suites")
    p.set_defaults(handler=cmd_identities)
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)

    p = sub.add_parser("asymptotic", help="exact ratios against the limit proportion")
    p.set_defaults(handler=cmd_asymptotic)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--t-list", default="4,8,16,32,64")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="write an SVG of a region and one tiling")
    p.set_defaults(handler=cmd_render)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--half", choices=("plus", "minus"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "count" and (args.box is None) == (args.n is None):
        parser.error("give either --box A B C or all of --n --N --s")
    if args.cmd == "count" and args.box is None and (args.N is None or args.s is None):
        parser.error("defect counting needs --n, --N and --s")
    # Exact counts are printed in full, whatever their length: lift Python's
    # int->str digit limit (3.11+) for this call and give the caller theirs back.
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ArithmeticError as exc:
        print(f"internal exactness failure: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
