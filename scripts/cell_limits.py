"""Time the largest cell of each degree that the CLI's cell limit admits.

    python3 scripts/cell_limits.py [--degrees 3 4 ...] [--timeout SECONDS]

For each degree n (default 3 to 14) the top admitted cell is (n, g), with
g the largest weight whose degree-n monomials, the partitions of g into at
most n parts, number at most `cli.CELL_MAX_MONOMIALS`; they are counted by
`symfunc.partition_counts(n)`.  `perpetua.verify_complement(n, g)` and
`basis.u_basis(n, g)` then run there, each cold in a fresh interpreter
under the timeout (default 600 s).  Each run prints one JSON line: n, g,
monomials, call, seconds, peak_rss_mb (the child's ru_maxrss) and result,
which is the certificate's JSON for verify_complement, {"dim": size of the
basis} for u_basis, or "timeout" (then seconds is the timeout and
peak_rss_mb null).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from itertools import pairwise
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from perpetuants import cli, symfunc  # noqa: E402

CALLS = ("verify_complement", "u_basis")

CHILD = """
import json, resource, sys, time
from perpetuants import basis, perpetua
n, g, call = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
start = time.perf_counter()
if call == "verify_complement":
    result = perpetua.verify_complement(n, g).to_json_dict()
else:
    result = {"dim": len(basis.u_basis(n, g))}
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": round(seconds, 3), "peak_rss_mb": round(peak, 1),
                  "result": result}))
"""


def top_admitted_cell(n):
    """(g, monomials) for the largest weight g whose degree-n cell has at
    most cli.CELL_MAX_MONOMIALS monomials.  The count never falls as the
    weight grows once n >= 2, so the first weight past the limit ends the
    walk."""
    if n < 2:
        raise ValueError(f"every weight of degree {n} has one monomial; need n >= 2")
    for g, (count, following) in enumerate(pairwise(symfunc.partition_counts(n))):
        if following > cli.CELL_MAX_MONOMIALS:
            return g, count


def run_cell(n, g, call, timeout):
    """{seconds, peak_rss_mb, result} of one cold call in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", CHILD, str(n), str(g), call]
    try:
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"seconds": timeout, "peak_rss_mb": None, "result": "timeout"}
    if proc.returncode:
        raise SystemExit(f"{call}({n}, {g}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", type=int, nargs="+", default=list(range(3, 15)))
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)
    if min(args.degrees) < 3:
        parser.error("certificates need n >= 3")
    for n in args.degrees:
        g, monomials = top_admitted_cell(n)
        for call in CALLS:
            record = {"n": n, "g": g, "monomials": monomials, "call": call}
            record.update(run_cell(n, g, call, args.timeout))
            print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
