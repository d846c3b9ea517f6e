"""Write refs.json, the expected output of every operation the benchmark runs.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_refs.py

Count values come from the closed route (`formulas`); asymptotic rows,
polynomial coefficients and identity tuple counts from the command's own
output.  This process lifts Python's int->str digit limit so that it can
fingerprint the probe's count; the measured processes never do.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))

from hexcount import cli, formulas  # noqa: E402


def closed_value(n: int, N: int, s: int) -> str:
    count = formulas.even_case_count if N % 2 == 0 else formulas.odd_case_count
    return str(count(n, N // 2, s))


def command_output(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"reference command failed with exit {rc}: {' '.join(argv)}")
    return json.loads(buf.getvalue())


def count_ref(argv) -> str:
    if "--box" in argv:
        a, b, c = (int(x) for x in argv[argv.index("--box") + 1:argv.index("--box") + 4])
        return wl.fingerprint(str(formulas.box_count(a, b, c)))
    n, N, s = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--N", "--s"))
    return wl.fingerprint(closed_value(n, N, s))


def reference(argv) -> object:
    cmd = argv[0]
    if cmd == "count":
        return count_ref(argv)
    if cmd == "verify":
        max_n, max_m = int(argv[argv.index("--max-n") + 1]), int(argv[argv.index("--max-m") + 1])
        return {
            f"{n},{N},{s}": closed_value(n, N, s)
            for n, N, s in cli.verify_grid(max_n, max_m)
        }
    report = command_output(argv)
    if cmd == "asymptotic":
        return report["rows"]
    if cmd == "polydet":
        return {"degree": report["degree"],
                "coefficients": wl.fingerprint("\n".join(report["coefficients"]))}
    if cmd == "identities":
        if not report["ok"]:
            raise SystemExit(f"identity suite fails at the reference commit: {' '.join(argv)}")
        return {s["suite"]: s["tuples_checked"] for s in report["suites"]}
    raise SystemExit(f"no reference rule for {cmd!r}")


def every_op() -> list:
    """Each distinct operation any seed can produce, plus the probe."""
    argvs = [op.argv for w in wl.WORKLOADS for op in wl.build(w, 0) if op.argv[0] != "render"]
    argvs += [wl.count_argv("oracle", 5, 7, s) for s in wl.ORACLE_SMALL_S]
    argvs += [wl.count_argv("det", 49, 49, s) for s in wl.DET_ODD_S]
    argvs += [wl.count_argv("closed", wl.CLOSED_N, wl.CLOSED_N, s) for s in wl.CLOSED_S]
    argvs += [wl.identities_argv(k) for k in wl.IDENTITY_SEEDS]
    argvs.append(wl.PROBE_ARGV)
    return sorted({" ".join(argv): argv for argv in argvs}.items())


def main() -> None:
    sys.set_int_max_str_digits(0)
    refs = {key: reference(argv) for key, argv in every_op()}
    with open(wl.REFS, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {wl.REFS}")


if __name__ == "__main__":
    main()
