"""Benchmark of the hexcount checker: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The loop is closed and single-client:
each pass is a fresh worker process (worker.py) that runs the workload's
operations one at a time, so set-up time and peak memory belong to that
pass and nothing cached by one pass can speed up the next.  Passes repeat
until --seconds are used; each metric is the median over the passes.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics: untraced passes (per-operation times)
alternate with traced passes (spans and counters, which must be identical
between the traced passes), at least two of each.  A full
record, with the environment, goes to --record (default
perfbench/out/last/<workload>-seed<seed>-trace<t>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

ROOT = wl.HERE.parent
RUN_LIMIT_S = 170.0      # a run must end within 180 s
MIN_PASSES = 3           # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2    # the counter self-test compares two traced passes


class RunError(Exception):
    pass


def child_env() -> tuple:
    """Environment of the measured processes, and whether HEXCOUNT_THREADS was removed."""
    env = dict(os.environ)
    had_threads = env.pop("HEXCOUNT_THREADS", None) is not None
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # would hide the probe's digit-limit failure
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env, had_threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """Commit of the checkout; None when it is not a git repository or git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # look no higher
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(had_threads: bool) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "hexcount_threads": "unset" + (" (removed from the caller's environment)"
                                       if had_threads else ""),
        "pythonhashseed": "0",
    }


def spawn(args, env, deadline: float, *flags) -> dict:
    """Run one worker pass and return its result."""
    cmd = [sys.executable, str(wl.HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *flags, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker pass did not finish before the run limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def passes(args, env, until: float, deadline: float, minimum: int, kinds: list) -> list:
    """Passes cycling through `kinds` (worker flags) until `until`, at least `minimum`.

    A pass that would end after `until` is not started.
    """
    out, took = [], []
    while True:
        t0 = time.monotonic()
        out.append(spawn(args, env, deadline, *kinds[len(out) % len(kinds)]))
        took.append(time.monotonic() - t0)
        if len(out) >= minimum and time.monotonic() + statistics.median(took) > until:
            return out


def spread(values: list) -> tuple:
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(untraced: list) -> dict:
    return {
        "wall_s": ([p["wall_s"] for p in untraced], "s"),
        "setup_s": ([p["setup_s"] for p in untraced], "s"),
        "peak_rss_mb": ([p["peak_rss_kb"] / 1024 for p in untraced], "MB"),
    }


def per_layer(untraced: list, traced: list) -> tuple:
    """Per-layer samples, and the counters that differ between traced passes."""
    samples = {}
    for name in wl.op_names():
        samples[f"op.{name}_s"] = ([p["op_s"].get(name, 0.0) for p in untraced], "s")
    layers = [p["layers"] for p in traced]
    for name in layers[0]:
        if name in spans.COUNTERS:
            samples[name] = ([layers[0][name]], "count")
        else:
            samples[name] = ([lay[name] for lay in layers], "s")
    samples["trace.wall_s"] = ([p["wall_s"] for p in traced], "s")
    overhead = statistics.median(samples["trace.wall_s"][0]) - statistics.median(
        [p["wall_s"] for p in untraced])
    samples["trace.overhead_s"] = ([overhead], "s")
    drift = sorted(n for n in spans.COUNTERS if len({lay[n] for lay in layers}) != 1)
    return samples, drift


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path)
    args = p.parse_args()

    if not (ROOT / "src" / "hexcount" / "cli.py").is_file():
        print(f"error: no hexcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env, had_threads = child_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        if args.trace:  # alternate, so that both kinds see the same machine state
            measured = passes(args, env, start + args.seconds, deadline,
                              2 * MIN_TRACED_PASSES, [(), ("--trace",)])
        else:
            measured = passes(args, env, start + args.seconds, deadline, MIN_PASSES, [()])
        probe = spawn(args, env, deadline, "--probe") if args.workload == "exact" else None
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [pas for pas in measured if "layers" not in pas]
    traced = [pas for pas in measured if "layers" in pas]
    failures = [f for pas in measured for f in pas["failures"]]
    attempted = sum(pas["attempted"] for pas in measured)
    if args.trace:
        samples, drift = per_layer(untraced, traced)
    else:
        samples, drift = end_to_end(untraced), []
    metrics = {}
    lines = [f"hexcount benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={len(untraced)} untraced, {len(traced)} traced"]
    for name, (values, unit) in samples.items():
        med, q1, q3 = spread(values)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"  {name:<32} {med:14.6f} {unit:<6} q1 {q1:.6f}  q3 {q3:.6f}  n={len(values)}")
    lines.append(f"  failed_share {len(failures)}/{attempted}")
    for f in failures[:5]:
        lines.append(f"  failed: {f['op']}: {f['reason']}")
    if drift:
        lines.append(f"  counters differ between traced passes: {', '.join(drift)}")
    missing = sorted({name for pas in traced for name in pas["missing_targets"]})
    if missing:
        lines.append(f"  trace targets no longer defined (their spans read 0): {', '.join(missing)}")
    if probe is not None:
        status = "ok" if not probe["failures"] else probe["failures"][0]["reason"]
        lines.append(f"  probe {' '.join(wl.PROBE_ARGV)}: {status}")
    env_record = environment(had_threads)
    lines.append("  environment " + json.dumps(env_record, sort_keys=True))

    result = {
        "correct": not failures and not drift,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env_record, "result": result,
        "failures": failures, "counter_drift": drift, "probe": probe,
        "samples": {name: values for name, (values, _) in samples.items()},
        "passes": measured,
    }
    path = args.record or ROOT / "perfbench" / "out" / "last" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
