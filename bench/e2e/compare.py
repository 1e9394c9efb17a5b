#!/usr/bin/env python3
"""Run pfbench on several seeds, summarize, and compare against a baseline.

    python3 bench/e2e/compare.py [--runs 10] [--seconds S] [--workload W ...]
                                 [--write FILE] [--baseline FILE]

Each run is one invocation of the `BENCHMARK.json` command on one workload
and one seed (seeds 1..runs), in a process of its own. For every
end-to-end metric the summary gives the median of the runs, the first and
third quartiles (statistics.quantiles, n=4), and the spread: (q3 - q1) as a
share of the median.

--write FILE stores that summary (the committed baseline is one).
--baseline FILE compares the medians with the stored ones under each
metric's bound from BENCHMARK.json and prints one row per workload. A
metric whose spread, here or in the baseline, exceeds its bound is
reported as unresolved, not as unchanged. Exit status 1 on a regression.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{' '.join(cmd)}: incorrect output\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def measure(bench, workloads, runs, seconds):
    summary = {}
    for w in workloads:
        per_metric = {}
        for seed in range(1, runs + 1):
            for k, v in run_once(bench, w, seed, seconds).items():
                per_metric.setdefault(k, []).append(v)
            print(f"  {w} seed {seed} done", file=sys.stderr)
        summary[w] = {k: summarize(vs) for k, vs in per_metric.items()}
    return summary


def verdict(metric, base, cur):
    bound = metric["bound"]
    if cur["spread"] > bound or base["spread"] > bound:
        return "unresolved"
    change = (cur["median"] - base["median"]) / base["median"]
    worse = change > bound if metric["better"] == "lower" else change < -bound
    return "REGRESSION" if worse else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--write")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    summary = measure(bench, workloads, args.runs, seconds)

    for w in workloads:
        print(f"{w}")
        for name, m in metrics.items():
            s = summary[w][name]
            flag = "" if s["spread"] <= m["bound"] / 3 else "  (spread above bound/3)"
            print(f"  {name:26} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}  bound {m['bound']}{flag}")

    if args.write:
        with open(args.write, "w") as f:
            json.dump({"runs": args.runs, "seconds": seconds, "seeds": list(range(1, args.runs + 1)),
                       "workloads": summary}, f, indent=1, sort_keys=True)
            f.write("\n")

    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["workloads"]
        regressed = False
        for w in workloads:
            verdicts = {name: verdict(m, base[w][name], summary[w][name]) for name, m in metrics.items()}
            bad = {k: v for k, v in verdicts.items() if v != "ok"}
            regressed |= "REGRESSION" in bad.values()
            detail = ", ".join(
                f"{k} {v} ({summary[w][k]['median']:.6g} vs {base[w][k]['median']:.6g})"
                for k, v in bad.items())
            print(f"{w:12}  {len(verdicts) - len(bad)}/{len(verdicts)} ok  {detail}")
        sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
