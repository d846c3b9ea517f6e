"""Run a set of benchmark runs, summarise a set, or compare two sets.

    python3 perfbench/report.py run perfbench/out/base
    python3 perfbench/report.py summary perfbench/out/base
    python3 perfbench/report.py compare perfbench/out/base perfbench/out/change

`run` makes one --trace 0 run per workload for each of the seeds 1-10,
cycling through the workloads so that slow drift of the machine spreads over
all of them, then one traced run per workload (seed 1), and prints the
summary.  A set is a
directory of run.py records.

`summary` prints, per workload, each end-to-end metric with its unit,
median, quartiles and run count, its spread (quartile distance over median)
against the bound in BENCHMARK.json, and failed_share, the failed
operations over those attempted.

`compare` prints, per workload and end-to-end metric, both medians and both
quartile ranges with a verdict: "unresolved" when either set's spread
exceeds the bound (unless every run of one set beats every run of the
other), "worse beyond bound", "better" when the medians differ by more than
the base set's quartile distance, else "within bound".  The per-layer
medians of the traced runs follow, with their deltas.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl
from run import spread

BENCHMARK = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SEEDS = range(1, 11)


def rel_spread(values: list) -> float:
    med, q1, q3 = spread(values)
    return (q3 - q1) / med if med else 0.0


def load(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} for every record in the directory."""
    sets = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        sets.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return sets


def metric_values(records: list, name: str) -> list:
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def summary(directory: Path) -> None:
    sets = load(directory)
    for workload in wl.WORKLOADS:
        records = sets.get((workload, 0))
        if not records:
            continue
        print(f"{workload}  ({len(records)} runs)")
        for name, spec in BOUNDS.items():
            values = metric_values(records, name)
            med, q1, q3 = spread(values)
            rel = rel_spread(values)
            flag = "" if rel <= spec["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"  {name:<12} {med:12.6f} {spec['unit']:<3} q1 {q1:.6f}  q3 {q3:.6f}  "
                  f"n={len(values)}  spread {rel:.3f} / bound {spec['bound']}{flag}")
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        print(f"  {'failed_share':<12} {failed / attempted:12.6f} ops  ({failed} of {attempted})")
        probes = {p["failures"][0]["reason"] if p["failures"] else "ok"
                  for p in (r["probe"] for r in records) if p}
        if probes:
            print(f"  probe {' '.join(wl.PROBE_ARGV)}: {', '.join(sorted(probes))}")
    first = next(iter(sets.values()), [None])[0]
    if first:
        print("environment " + json.dumps(first["environment"], sort_keys=True))


def verdict(base: list, new: list, bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    b_med, b_q1, b_q3 = spread(base)
    n_med = spread(new)[0]
    worse = sign * (n_med - b_med) / b_med
    if max(rel_spread(base), rel_spread(new)) > bound:
        if all(sign * x < sign * y for x in new for y in base):
            return "better"
        if all(sign * x > sign * y for x in new for y in base):
            return "worse beyond bound"
        return "unresolved"
    if worse > bound:
        return "worse beyond bound"
    if -worse * b_med > b_q3 - b_q1:
        return "better"
    return "within bound"


def compare(base_dir: Path, new_dir: Path) -> None:
    base, new = load(base_dir), load(new_dir)
    for workload in wl.WORKLOADS:
        b, n = base.get((workload, 0)), new.get((workload, 0))
        if not b or not n:
            continue
        print(f"{workload}  (base {len(b)} runs, new {len(n)} runs)")
        for name, spec in BOUNDS.items():
            bv, nv = metric_values(b, name), metric_values(n, name)
            bm, bq1, bq3 = spread(bv)
            nm, nq1, nq3 = spread(nv)
            v = verdict(bv, nv, spec["bound"], spec["better"] == "lower")
            print(f"  {name:<12} base {bm:.6f} [{bq1:.6f}, {bq3:.6f}]  new {nm:.6f} "
                  f"[{nq1:.6f}, {nq3:.6f}] {spec['unit']}  {100 * (nm - bm) / bm:+.1f}%  {v}")
        fb = sum(r["result"]["failed"] for r in b), sum(r["result"]["attempted"] for r in b)
        fn = sum(r["result"]["failed"] for r in n), sum(r["result"]["attempted"] for r in n)
        print(f"  {'failed_share':<12} base {fb[0]}/{fb[1]}  new {fn[0]}/{fn[1]}")
        bt, nt = base.get((workload, 1)), new.get((workload, 1))
        if not bt or not nt:
            continue
        print("  per layer (traced runs, medians):")
        for name in sorted(bt[0]["result"]["metrics"]):
            bm, nm = spread(metric_values(bt, name))[0], spread(metric_values(nt, name))[0]
            if bm == 0 and nm == 0:
                continue
            rel = f"{100 * (nm - bm) / bm:+.1f}%" if bm else "new"
            print(f"    {name:<32} base {bm:14.6f}  new {nm:14.6f}  delta {nm - bm:+.6f} ({rel})")


def run_set(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    jobs = [(w, s, 0) for s in SEEDS for w in wl.WORKLOADS]
    jobs += [(w, SEEDS[0], 1) for w in wl.WORKLOADS]
    for workload, seed, trace in jobs:
        record = directory / f"{workload}-seed{seed}-trace{trace}.json"
        cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
               "--trace", str(trace), "--record", str(record)]
        proc = subprocess.run(cmd, cwd=wl.HERE.parent, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} {last[0][:100]}",
              flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
    summary(directory)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("dir", type=Path)
    s = sub.add_parser("summary")
    s.add_argument("dir", type=Path)
    c = sub.add_parser("compare")
    c.add_argument("base", type=Path)
    c.add_argument("new", type=Path)
    args = p.parse_args()
    if args.cmd == "run":
        run_set(args.dir)
    elif args.cmd == "summary":
        summary(args.dir)
    else:
        compare(args.base, args.new)


if __name__ == "__main__":
    main()
