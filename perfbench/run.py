"""Benchmark of the perpetuants certificate engine.

    python3 perfbench/run.py --workload certify|oracle|qn --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is taken from the
checkout's `src/` and nothing is installed.  Inputs are generated from the
seed before any timing.  Each pass runs in a fresh interpreter
(`passrun.py`), so the package's caches start cold, as for every CLI call.

With --trace 0 it times passes until the next one would overrun --seconds
(always at least one) and reports the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 it runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  It exits 2 when the
checkout holds no package and 1 when a pass crashes or overruns the deadline,
without printing a result in either case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OP, SIZING

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 16
ORACLE_CELLS = ((5, 24), (6, 21), (7, 18), (8, 16))


class BenchError(Exception):
    pass


# -- inputs -----------------------------------------------------------------


def count_partitions(g, smallest, largest):
    """Partitions of g with every part in [smallest, largest]."""
    ways = [1] + [0] * g
    for part in range(smallest, largest + 1):
        for w in range(part, g + 1):
            ways[w] += ways[w - part]
    return ways[g]


def partitions_padded(g, n):
    """Partitions of g with at most n parts, padded with zeros to length n."""
    def rec(remaining, cap, slots):
        if remaining == 0:
            yield (0,) * slots
        elif slots:
            for first in range(min(cap, remaining), 0, -1):
                for rest in rec(remaining - first, first, slots - 1):
                    yield (first,) + rest

    return list(rec(g, g, n))


def stroh(n, g):
    """Perpetuant count of degree n >= 3 and weight g: the coefficient of
    x^g in x^(2^(n-1)-1) / ((1-x^2)...(1-x^n))."""
    shift = 2 ** (n - 1) - 1
    return count_partitions(g - shift, 2, n) if g >= shift else 0


def certify_inputs(rng):
    ops = [{"n": n, "g": g, "stroh": stroh(n, g)} for n in (3, 4, 5) for g in range(15)]
    return {"ops": ops}


def qn_inputs(rng):
    ops = [
        {"op": "qn", "n": n, "leading_exponent": [2 ** i for i in range(n - 2, -1, -1)]}
        for n in (5, 6)
    ]
    return {"ops": ops + [{"op": "relations", "checks": 6}]}


def oracle_cell(rng, n, g):
    """Known-answer inputs for one cell.  The kernel of D on S_{n,g} has one
    vector per partition of g into parts 2..n.  Recombining it by a matrix
    that is unitriangular up to a permutation keeps its span; a nonzero
    combination of it lies inside; adding any monomial of weight g >= 1
    leaves the kernel, since D maps a monomial to a nonzero sum."""
    dim = count_partitions(g, 2, n)
    order = rng.sample(range(dim), dim)
    recombine = []
    for i, col in enumerate(order):
        later = rng.sample(order[i + 1:], min(2, dim - i - 1))
        recombine.append([[col, 1]] + [[j, rng.choice((-3, -2, -1, 1, 2, 3))] for j in later])
    member = [rng.randint(-5, 5) for _ in range(dim)]
    member[rng.randrange(dim)] = rng.choice((-2, -1, 1, 2))
    return {
        "n": n,
        "g": g,
        "dim": dim,
        "recombine": recombine,
        "member": member,
        "member_inside": True,
        "monomial": list(rng.choice(partitions_padded(g, n))),
        "outsider_inside": False,
    }


def oracle_inputs(rng):
    return {"cells": [oracle_cell(rng, n, g) for n, g in ORACLE_CELLS]}


INPUTS = {"certify": certify_inputs, "oracle": oracle_inputs, "qn": qn_inputs}


def make_inputs(workload, seed):
    """The operations of one workload; the same seed gives the same inputs.
    `certify` and `qn` have fixed inputs and ignore the seed."""
    inputs = INPUTS[workload](random.Random(seed))
    inputs["workload"] = workload
    return inputs


# -- processes --------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # imports load cached bytecode, as from an installed package, whatever
    # the calling environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run passed its {DEADLINE_S} s deadline")
    return left


def spawn(args, deadline, stdin=None):
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run passed its {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def check_package(path):
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported perpetuants from {path}, not from {ROOT / 'src'}")


def check_import(deadline):
    """Import the package once, untimed: it must come from this checkout,
    and this first import writes the bytecode that later imports load."""
    check_package(spawn(["-c", "import perpetuants; print(perpetuants.__file__)"], deadline).strip())


def setup_samples(count, deadline):
    """Seconds for a fresh interpreter to start and import the package."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        spawn(["-c", "import perpetuants"], deadline)
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(inputs, traced, deadline):
    args = [str(HERE / "passrun.py")] + (["--trace"] if traced else [])
    t0 = time.perf_counter()
    result = json.loads(spawn(args, deadline, json.dumps(inputs)).splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    check_package(result["package"])
    return result


# -- metrics ----------------------------------------------------------------


def pass_wall(result):
    return sum(op[1] for op in result["ops"])


def tally(passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op[3]]
    return len(ops), failed


def end_to_end(passes, setup):
    """Each operation's time is its median over the passes.  `wall_s` and
    `cpu_s` sum those medians; `slowest_op_s` is the largest among operations
    that gave the right answer in every pass."""
    attempted, failed = tally(passes)
    by_op = list(zip(*(p["ops"] for p in passes)))
    wall = [statistics.median(op[1] for op in runs) for runs in by_op]
    cpu = [statistics.median(op[2] for op in runs) for runs in by_op]
    good = [w for w, runs in zip(wall, by_op) if all(op[3] for op in runs)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(wall),
        "slowest_op_s": max(good, default=0.0),
        "cpu_s": sum(cpu),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "success_ratio": (attempted - len(failed)) / attempted,
    }


def per_layer(names, untraced, traced):
    layers = traced["layers"]
    wall, base = pass_wall(traced), pass_wall(untraced)
    attributed = sum(v["self_s"] for k, v in layers.items() if k not in (OP, SIZING))
    special = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": base,
        "trace.overhead_s": wall - base,
        "trace.self_coverage": attributed / wall,
        "trace.unattributed_s": layers.get(OP, {}).get("self_s", 0.0),
        "trace.sizing_s": layers.get(SIZING, {}).get("self_s", 0.0),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        entry = layers.get(span, {})
        if stat == "hit_ratio":
            looked_up = entry.get("hits", 0) + entry.get("misses", 0)
            values[name] = entry.get("hits", 0) / looked_up if looked_up else 0.0
        else:
            values[name] = entry.get(stat, 0)
    return values


# -- provenance -------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, samples):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "samples": samples,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# -- main -------------------------------------------------------------------


def measure(args, spec):
    """Run the passes and return (report lines, result object)."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "perpetuants" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package at {ROOT / 'src' / 'perpetuants'}")
    inputs = make_inputs(args.workload, args.seed)
    if args.trace:
        untraced = run_pass(inputs, False, deadline)
        traced = run_pass(inputs, True, deadline)
        passes = [untraced, traced]
        wanted = spec["per_layer"]
        values = per_layer([m["name"] for m in wanted], untraced, traced)
        samples = {"untraced_passes": 1, "traced_passes": 1}
        notes = {}
    else:
        # set-up samples on both sides of the passes, so that a slow spell
        # of a shared machine hits fewer of them
        check_import(deadline)
        setup = setup_samples(SETUP_SAMPLES // 2, deadline)
        start, passes = time.monotonic(), []
        while True:
            passes.append(run_pass(inputs, False, deadline))
            if time.monotonic() - start + passes[-1]["process_s"] > args.seconds:
                break
        setup += setup_samples(SETUP_SAMPLES - len(setup), deadline)
        wanted = spec["end_to_end"]
        values = end_to_end(passes, setup)
        samples = {"setup": len(setup), "passes": len(passes)}
        notes = {name: f"  (median of {len(passes)} passes)" for name in ("wall_s", "slowest_op_s", "cpu_s", "peak_rss_mb")}
        notes["setup_s"] = f"  (median of {len(setup)} imports)"
    attempted, failed = tally(passes)
    lines = [f"provenance {json.dumps(provenance(args, samples))}"]
    lines += [f"FAILED {op[0]}: {op[4]}" for op in failed]
    lines.append(f"fail_ratio {len(failed)}/{attempted}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}{notes.get(m['name'], '')}")
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lines, result = measure(args, spec)
    except (OSError, BenchError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
