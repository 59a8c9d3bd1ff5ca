#!/usr/bin/env python3
"""Runs sets of benchmark runs and summarizes or compares them.

    # ten runs of each workload, seeds 1..10, results saved under DIR
    python3 perfbench/summarize.py sweep --out DIR --seeds 1-10 [--workload W ...] [--trace 1]
    # per workload x metric: median, quartiles, spread (IQR / median), how
    # many runs set each validity guard, and the metrics a guard puts in doubt
    python3 perfbench/summarize.py show DIR
    # flags every metric whose median in NEW is worse than in BASE by more
    # than its bound in BENCHMARK.json (exit code 1 when any is), and marks
    # UNRESOLVED every metric a validity guard in either set puts in doubt
    python3 perfbench/summarize.py compare BASE NEW

A run is stored as DIR/<workload>__s<seed>__t<trace>.json holding the run's
whole stdout; its last line is the result, the line before it the run's
info with its validity guards. Every run measures BENCHMARK.json's
run_seconds. Quartiles are those of statistics.quantiles(values, n=4).
Run from the root of a checkout.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def sweep(args):
    spec, _ = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for seed in parse_seeds(args.seeds):
        for name in workloads:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            path = os.path.join(args.out,
                                "%s__s%d__t%d.json" % (name, seed, args.trace))
            with open(path, "w") as f:
                f.write(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d exit %d: %s" % (name, seed, proc.returncode,
                                               last[0][:160]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                status = 1
    return status


# Each validity guard a run's info line can set, and the metrics it leaves
# unresolved: generator_bound means the benchmark's own generator thread
# may be what limits the saturated phase; steal_bound means even the
# least-stolen rounds lost much of the host's CPU to other guests.
GUARDS = {
    "generator_bound": ("ops_s", "sat_p99_us"),
    "steal_bound": ("ops_s", "sat_p99_us", "lat_p50_us", "lat_p99_us",
                    "cpu_us_per_op"),
}


def load_runs(directory):
    """{workload: {metric: [values]}}, incorrect runs per workload, and
    {workload: {guard: runs that set it}}."""
    runs = {}
    bad = {}
    guarded = {}
    for path in sorted(glob.glob(os.path.join(directory, "*__s*__t*.json"))):
        name = os.path.basename(path).split("__")[0]
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            bad[name] = bad.get(name, 0) + 1
            continue
        if not result.get("correct") or result.get("failed"):
            bad[name] = bad.get(name, 0) + 1
        info = {}
        if len(lines) > 1:
            try:
                info = json.loads(lines[-2]).get("info", {})
            except ValueError:
                pass
        counts = guarded.setdefault(name, {g: 0 for g in GUARDS})
        for guard in GUARDS:
            counts[guard] += bool(info.get(guard))
        for metric, entry in result["metrics"].items():
            runs.setdefault(name, {}).setdefault(metric, []).append(
                entry["value"])
    return runs, bad, guarded


def unresolved(metric, *counts):
    """"" or a note naming the guards that leave `metric` unresolved in any
    of the given {guard: runs} counts."""
    hits = sorted({g for c in counts for g, n in c.items()
                   if n and metric in GUARDS[g]})
    return "  UNRESOLVED (%s)" % ", ".join(hits) if hits else ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def show(args):
    _, metrics = load_spec()
    runs, bad, guarded = load_runs(args.dir)
    status = 0
    for name in sorted(runs):
        print("== %s (%d runs, %d incorrect; %s)" % (
            name, len(next(iter(runs[name].values()))), bad.get(name, 0),
            ", ".join("%s in %d" % (g, n)
                      for g, n in guarded[name].items())))
        if bad.get(name):
            status = 1
        for metric, values in runs[name].items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = metrics.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  SPREAD > BOUND"
                    status = 1
                elif spread > bound / 3:
                    flag = "  spread > bound/3"
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                  "%s%s%s" % (metric, q2, q1, q3, 100 * spread,
                              "" if bound is None else
                              "  (bound %g%%)" % (100 * bound), flag,
                              unresolved(metric, guarded[name])))
    return status


def compare(args):
    _, metrics = load_spec()
    base, _, base_guarded = load_runs(args.base)
    new, bad, new_guarded = load_runs(args.new)
    status = 1 if bad else 0
    for name in sorted(set(base) & set(new)):
        print("== %s" % name)
        for metric in base[name]:
            if metric not in new[name] or metric not in metrics:
                continue
            m = metrics[metric]
            a = statistics.median(base[name][metric])
            b = statistics.median(new[name][metric])
            change = (b - a) / a if a else 0.0
            worse = -change if m["better"] == "higher" else change
            bound = m.get("bound")
            flag = ""
            if bound is not None and worse > bound:
                flag = "  REGRESSION (bound %g%%)" % (100 * bound)
                status = 1
            # A guard set in either set means the change may not be the
            # server's own; it is printed, not hidden.
            print("  %-34s base %-12.6g new %-12.6g change %+7.2f%%%s%s" % (
                metric, a, b, 100 * change, flag,
                unresolved(metric, base_guarded[name], new_guarded[name])))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, default=0)
    p = sub.add_parser("show")
    p.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"sweep": sweep, "show": show, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
