"""Alternating parent/change runs of the benchmark, written as BENCH_<N>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --number N \
        [--first-seed 1] [--summary TEXT]

DIR is a source checkout (for example a `git clone` at the commit to time).
Every workload and the run length come from the change's BENCHMARK.json.
Pair k of ten runs `perfbench/run.py --trace 0` with seed first_seed + k
once in each checkout, the parent first when k is even and the change first
when k is odd, so that a drift of the host's speed falls on both sides
alike.  One `--trace 1` run per side and workload, with seed first_seed,
follows the pairs.  The file is written to BENCH_<N>.json in the current
directory.

For each end-to-end metric of the change's BENCHMARK.json the file records
every run's value, the median and quartiles of each side, per pair
whether the change reads better, and `worse_than_bound`: whether the
change's median is worse than the parent's by more than the metric's
relative `bound`; and `claim_met`: whether the change wins at least 9 of
10 pairs and its median is better than the parent's by more than the
parent's interquartile range, the rule for claiming a gain.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
PAIRS = 10


def run_bench(checkout, workload, seed, seconds, trace):
    """(provenance dict, result dict) of one run of perfbench/run.py."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    return provenance, json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def paired(metric, parent, change):
    """Wins of the change over the pairs, the relative move of the median,
    whether that move is worse than the metric's relative bound, and
    whether a claimed gain is met: the change wins at least nine tenths of
    the pairs, ties counting for neither side, and its median is better
    than the parent's by more than the parent's interquartile range."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    base, moved = statistics.median(parent), statistics.median(change)
    rel = (moved - base) / base if base else 0.0
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_change_rel": round(rel, 4),
        "bound": metric["bound"],
        "worse_than_bound": sign * rel > metric["bound"],
        "parent_iqr": round(q3 - q1, 4),
        "claim_met": 10 * wins >= 9 * len(parent) and sign * (base - moved) > q3 - q1,
    }


def measure(args, spec):
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    machine, commits, workloads, traced = None, {}, {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [args.first_seed + k for k in range(PAIRS)]
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        attempted = dict.fromkeys(sides, 0)
        failed = dict.fromkeys(sides, 0)
        for k, seed in enumerate(seeds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                prov, result = run_bench(sides[side], workload, seed, seconds, 0)
                machine = {key: prov[key] for key in ("python", "nproc", "cpu_model", "platform")}
                commits[side] = prov["commit"]
                attempted[side] += result["attempted"]
                failed[side] += result["failed"]
                for name in values[side]:
                    values[side][name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        workloads[workload] = {
            "seeds": seeds,
            "pairs": PAIRS,
            "failed_ops": failed,
            "attempted_ops": attempted,
            **{side: {name: spread(v) for name, v in values[side].items()} for side in sides},
            "paired": {m["name"]: paired(m, values["parent"][m["name"]], values["change"][m["name"]])
                       for m in metrics},
        }
        traced[workload] = {}
        for side in sides:
            _, result = run_bench(sides[side], workload, args.first_seed, seconds, 1)
            traced[workload][side] = {"seed": args.first_seed} | {
                name: m["value"] for name, m in result["metrics"].items()}
    return machine, commits, workloads, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--summary", default="", help="one line on what the change does")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    machine, commits, workloads, traced = measure(args, spec)
    report = {
        "pr": args.number,
        "change": args.summary,
        "machine": machine,
        "commits": commits,
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {spec['run_seconds']:g} --trace 0",
            "pairing": "pair k runs seed first_seed+k on both sides, parent first when k is even "
                       "and change first when odd; each side runs in its own checkout",
            "pairs": {w: PAIRS for w in workloads},
            "statistics": f"median and quartiles by {QUARTILES} over the runs of each side; "
                          "a win is a pair where the change reads better",
            "traced": f"one --trace 1 run per side, seed {args.first_seed}, after the untraced pairs",
        },
        "workloads": workloads,
        "traced": traced,
    }
    out = Path(f"BENCH_{args.number}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
