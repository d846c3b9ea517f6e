"""One measured pass of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload W --seed S --spawned-at T [--trace] [--probe]

Imports hexcount from the checkout's src/, builds the workload's operations
and loads their references (this is set-up), then runs the operations one
after another through `hexcount.cli.main` with output captured, checks the
outputs, and prints one JSON line.  T is `time.monotonic()` in the parent
just before it started this process; on Linux that clock is system-wide, so
set-up time is measured from process start.  With --probe the pass runs the
probe operation instead of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = wl.HERE.parent
# The probe's digit-limit failure shows only under Python's default limit.
DEFAULT_INT_MAX_STR_DIGITS = 4300


def run_op(main, argv) -> tuple:
    """Run one command line in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            rc = "exception"
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    if sys.get_int_max_str_digits() != DEFAULT_INT_MAX_STR_DIGITS:
        print(f"int->str digit limit is {sys.get_int_max_str_digits()}, not Python's default "
              f"{DEFAULT_INT_MAX_STR_DIGITS}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from hexcount import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"hexcount imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        ops = [wl.Op("probe", wl.PROBE_ARGV)]
    else:
        ops = wl.build(args.workload, args.seed)
    refs = wl.load_refs()
    svg_path = ROOT / "perfbench" / "out" / f"render-{os.getpid()}.svg"
    argvs = [op.argv + ("--out", str(svg_path)) if op.argv[0] == "render" else op.argv
             for op in ops]
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()
    svg_path.parent.mkdir(parents=True, exist_ok=True)

    runs = []
    clock = time.perf_counter
    start = clock()
    for argv in argvs:
        t0 = clock()
        rc, out, err = run_op(cli.main, argv)
        runs.append((rc, out, err, clock() - t0))
    wall_s = clock() - start

    failures = []
    op_s = {}
    for op, (rc, out, err, secs) in zip(ops, runs):
        op_s[op.name] = op_s.get(op.name, 0.0) + secs
        svg = None
        if op.argv[0] == "render" and svg_path.exists():
            svg = svg_path.read_text(encoding="ascii")
            svg_path.unlink()
        reason = wl.check(op, rc, out, svg, refs)
        if reason is not None:
            failures.append({"op": op.key, "reason": reason, "stderr": err[-500:]})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        result["missing_targets"] = tracer.missing
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
