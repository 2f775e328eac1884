#!/usr/bin/env python3
"""Checks that the benchmark is steady on one commit.

    python3 perfbench/steadiness.py [--seeds 1,2,...] [--workloads a,b]
                                    [--seconds S] [--trace]

Runs two sets of the benchmark command from BENCHMARK.json, interleaved
(set A seed 1, set B seed 1, set A seed 2, ...), from the repository root.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance / median) and the drift between
the two medians, and whether they stay within the metric's bound. Runs with
the same seed must agree exactly on every count metric (unit "count" or
"B"), and the share of failed operations must be the same in both sets.

With --trace each seed also gets a traced run in each set: per-layer count
metrics must then repeat exactly too, and the tracing overhead on query_qps
(untraced vs traced median) is reported.

Exits 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"count", "B"}


def run(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced_qps = None
    for line in lines:
        m = re.match(r"traced query_qps (\S+)", line)
        if m:
            traced_qps = float(m.group(1))
    return result, traced_qps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    ok = True

    for workload in workloads:
        sets = {"A": [], "B": []}
        traced = {"A": [], "B": []}
        for seed in seeds:
            for name in ("A", "B"):
                sets[name].append(run(bench["command"], workload, seed, seconds, False)[0])
                if args.trace:
                    traced[name].append(run(bench["command"], workload, seed, seconds, True))
                print(f"  {workload} set {name} seed {seed} done", file=sys.stderr, flush=True)
        print(f"== {workload}: {len(seeds)} seeds per set, {seconds} s runs")
        print(f"{'metric':24} {'set':3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                med[s] = q2
                if spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "within bound, over a third of it"
                else:
                    verdict = "ok"
                print(f"{name:24} {s:3} {q1:12.6g} {q2:12.6g} {q3:12.6g} "
                      f"{spread:7.2%} {bound:6.2f} {verdict}")
            worse = (med["B"] - med["A"]) / med["A"]
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok"
            if worse > bound:
                verdict, ok = "DRIFT OVER BOUND", False
            print(f"{name:24} B vs A worse by {worse:+.2%} (bound {bound:.2f}) {verdict}")
            if m["unit"] in EXACT_UNITS:
                for i, seed in enumerate(seeds):
                    a = sets["A"][i]["metrics"][name]["value"]
                    b = sets["B"][i]["metrics"][name]["value"]
                    if a != b:
                        ok = False
                        print(f"  COUNT DIFFERS: {name} seed {seed}: {a} vs {b}")
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s]} for s in sets}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"  FAILED SHARE DIFFERS: {shares}")
        else:
            print(f"failed share {shares['A'].pop():.6f} in every run")
        if args.trace:
            for i, seed in enumerate(seeds):
                ta, tb = traced["A"][i][0]["metrics"], traced["B"][i][0]["metrics"]
                for name, v in ta.items():
                    if v["unit"] in EXACT_UNITS and v["value"] != tb[name]["value"]:
                        ok = False
                        print(f"  COUNT DIFFERS (traced): {name} seed {seed}: "
                              f"{v['value']} vs {tb[name]['value']}")
            plain = statistics.median(r["metrics"]["query_qps"]["value"]
                                      for s in sets for r in sets[s])
            with_trace = statistics.median(q for s in traced for _, q in traced[s])
            print(f"tracing overhead on query_qps: untraced median {plain:.6g}, "
                  f"traced median {with_trace:.6g} ({with_trace / plain - 1:+.2%})")
            print("per-layer medians (traced runs):")
            for name in traced["A"][0][0]["metrics"]:
                values = [r[0]["metrics"][name]["value"] for s in traced for r in traced[s]]
                unit = traced["A"][0][0]["metrics"][name]["unit"]
                print(f"  {name:38} {statistics.median(values):.6g} {unit}")
        print()
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
