#!/usr/bin/env python3
"""Steadiness report: run the benchmark over several seeds and summarise.

    python3 perfbench/steady.py --workload table1-backedge --seeds 101-110 --seconds 10
    python3 perfbench/steady.py --workload all --seeds 101-110 --json set1.json
    python3 perfbench/steady.py --report set2.json --against set1.json

For each workload and metric it prints the median and quartiles across
the runs (statistics.quantiles, n=4) and the spread, (q3 - q1) / median.
It flags a spread above the metric's bound in BENCHMARK.json, and marks
one below a third of it as steady. It prints each run's latency sample
counts and how many samples lie beyond each reported p99 (a tail needs
at least ten), and checks that every run recorded the same environment
and WAL flush policy. With --against it compares medians with an earlier
set and flags a metric that got worse by more than its bound. Exits
nonzero if anything is flagged.
"""

import argparse
import json
import os
import re
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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    samples = next((l for l in lines if l.startswith("samples:")), "")
    return {"seed": seed, "result": json.loads(lines[-1]), "env": env, "samples": samples}


def summarise(runs, metrics):
    """Returns {metric: (median, q1, q3, spread)} over the runs."""
    out = {}
    names = sorted(runs[0]["result"]["metrics"])
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = (med, q1, q3, spread)
    return out


def report(data, metrics, against=None):
    flagged = 0
    for workload, runs in data.items():
        print(f"== {workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
        envs = {json.dumps({k: v for k, v in r["env"].items()}, sort_keys=True) for r in runs}
        if len(envs) != 1:
            print(f"  FLAG environment differs between runs: {sorted(envs)}")
            flagged += 1
        else:
            print(f"  env {envs.pop()}")
        for r in runs:
            if r["samples"]:
                tails = [int(n) for n in re.findall(r"\((\d+) beyond", r["samples"])]
                mark = "" if all(n >= 10 for n in tails) else "  FLAG fewer than 10 beyond a tail"
                flagged += bool(mark)
                print(f"  seed {r['seed']}: {r['samples']}{mark}")
        summary = summarise(runs, metrics)
        base = summarise(against[workload], metrics) if against and workload in against else None
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, (med, q1, q3, spread) in summary.items():
            m = metrics.get(name, {})
            bound = m.get("bound")
            note = ""
            if bound is not None:
                if spread > bound:
                    note, flagged = "FLAG spread above bound", flagged + 1
                elif spread < bound / 3:
                    note = "steady"
                else:
                    note = "within bound"
            if base and bound is not None and name in base:
                old = base[name][0]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                note += f"; vs earlier median {old:.4f}: {100 * worse:+.1f}% worse"
                if worse > bound:
                    note += " FLAG"
                    flagged += 1
            bstr = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:30} {med:14.4f} {q1:14.4f} {q3:14.4f} {100 * spread:7.2f}% {bstr:>6}  {note}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload name, or all (repeatable)")
    ap.add_argument("--seeds", default="101-110", help="seed range lo-hi")
    ap.add_argument("--seconds", type=int, help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="save the runs to this file")
    ap.add_argument("--report", help="report on runs saved earlier instead of running")
    ap.add_argument("--against", help="compare medians with runs saved earlier")
    args = ap.parse_args()
    spec, metrics = load_spec()
    if args.report:
        with open(args.report) as f:
            data = json.load(f)
    else:
        names = args.workload or ["all"]
        if "all" in names:
            names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        data = {}
        for w in names:
            data[w] = []
            for seed in parse_seeds(args.seeds):
                data[w].append(run_once(w, seed, seconds, args.trace))
                print(f"  {w} seed {seed} done", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(data, f)
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    flagged = report(data, metrics, against)
    print(f"{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
