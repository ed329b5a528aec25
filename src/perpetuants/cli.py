"""Command line interface.

Subcommands: basis, perpetuants, dims, stroh, verify, qn, relations,
oracle.  Output is byte-deterministic for fixed arguments; --format json
emits the documented schemas.  Exit codes: 0 success, 1 when a
certificate reports a failure, 2 on usage errors, 141 (128 + SIGPIPE)
when the reader closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import basis as basis_mod
from . import binforms, perpetua, symfunc

# q_6 has 19930 terms; in a fresh interpreter on a 2-vCPU Xeon with
# CPython 3.11 it expands in 0.026-0.041 s (median 0.029 s over five runs)
# and writes its JSON in about 0.015 s.  q_7,
# of degree 63 in six variables, may have up to 10.4 million terms, and
# symfunc.q_n refuses it: its coefficient bound is 94 bits, past the
# 64-bit slots of a 39.1 million-slot box.
QN_MAX_N = 6

# `qn n` past QN_MAX_N names q_n's size in full up to n = 10, whose
# monomial count has 17 digits, and by its formula past that: 2^(n-1) has
# about 0.3 n digits, so the refusal of a huge n would never finish.
QN_FULL_SIZE_N = 10

# The a-monomials of a cell (n, g) index every matrix that basis,
# perpetuants, oracle and verify build for it.  Only the k1 = 0 rows of
# alpha(n, w) are built, for every w up to g.  At the largest admitted
# weight of each degree 3..14 (scripts/cell_limits.py, one cold run each
# on a 2-vCPU Xeon with CPython 3.11.7), verify_complement took 3.0 s at
# 66 MB at (3,170) (2494 monomials) and 0.2-1.9 s elsewhere, u_basis
# 1.6-4.5 s up to degree 9 (2.6 s at (3,170)), then 7.4 s at (10,27) up
# to 24 s at (14,26), at most 127 MB: the Pieri tables list the subsets
# of every partition, so basis and oracle slow down with the degree, and
# basis 20 26 did not finish in 150 s when last timed.  At (3,2000) the
# k1 = 0 rows alone would hold about 5 * 10^10 entries.
CELL_MAX_MONOMIALS = 2500

# basis and oracle build alpha(n, g), with one e-index of n entries per
# monomial, and basis prints each U_k's index in full, so a cell with few
# monomials still costs time and memory linear in n.  They refuse a cell
# whose e-indices have more entries than this when S_{n,g} is nonempty
# (an empty cell builds no alpha).  On a 2-vCPU Xeon basis 500000 2, at
# the limit, took 0.3 s cold, 0.13 s and 64 MB of it in `run`.
INDEX_MAX_ENTRIES = 1_000_000

# dims and stroh take about min(n, gmax) * gmax steps, in the series and in
# its partition-count cross-check.  On a 2-vCPU Xeon, 3 * 10^6 steps took
# 2.7 s for dims 3 --gmax 10^6 and 2.3 s for dims 30 --gmax 10^5, while
# dims 10^4 --gmax 10^4, at 10^8 steps, took 87 s and 3.9 GB.
SERIES_MAX_STEPS = 3_000_000


def _add_format(p):
    p.add_argument("--format", choices=["text", "json"], default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perpetuants",
        description="Exact bases of U-invariants and perpetuants of binary forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="basis of the U-invariants S_{n,g}")
    p.add_argument("n", type=int)
    p.add_argument("g", type=int)
    p.add_argument(
        "--primitive",
        action="store_true",
        help="reduce each element to its primitive part for display",
    )
    _add_format(p)

    p = sub.add_parser("perpetuants", help="threshold-selected perpetuant basis")
    p.add_argument("n", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--primitive", action="store_true")
    _add_format(p)

    p = sub.add_parser("dims", help="dimension table of S_{n,g}")
    p.add_argument("n", type=int)
    p.add_argument("--gmax", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("stroh", help="perpetuant dimension table")
    p.add_argument("n", type=int)
    p.add_argument("--gmax", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("verify", help="complement certificates")
    p.add_argument("n", type=int)
    p.add_argument("g", type=int, nargs="?")
    p.add_argument("--gmax", type=int)
    _add_format(p)

    p = sub.add_parser("qn", help="the symmetric function q_n and its leading exponent")
    p.add_argument("n", type=int)
    _add_format(p)

    p = sub.add_parser("relations", help="classical degree-3/4 identities")
    _add_format(p)

    p = sub.add_parser("oracle", help="kernel-of-derivation basis with span comparison")
    p.add_argument("n", type=int)
    p.add_argument("g", type=int)
    _add_format(p)

    return parser


_PARSER = build_parser()


def _emit_elements(elements, args, out):
    if args.format == "json":
        items = []
        for u in elements:
            d = u.to_json_dict()
            if args.primitive:
                d["poly"] = u.poly.primitive_part().to_json_dict()
            items.append(d)
        out.write(json.dumps(items) + "\n")
    else:
        if not elements:
            out.write("(empty)\n")
        for u in elements:
            poly = u.poly.primitive_part() if args.primitive else u.poly
            out.write(f"U_{{{','.join(str(x) for x in u.k)}}} = {poly}\n")


def _qn_size(n):
    """q_n's degree 2^(n-1) - 1 and its bound on the terms, the number of
    monomials of that degree in n - 1 variables, as text: in full up to
    n = QN_FULL_SIZE_N, past it as the power and the binomial that give
    them, so that no number longer than n itself is evaluated."""
    if n <= QN_FULL_SIZE_N:
        degree = 2 ** (n - 1) - 1
        return str(degree), str(comb(degree + n - 2, n - 2))
    return f"2^{n - 1} - 1", f"binomial(2^{n - 1} + {n - 3}, {n - 2})"


def _too_large(n, g, err, indexed=False):
    """Write one line and return True when the cell (n, g) has more than
    CELL_MAX_MONOMIALS monomials or, when `indexed`, when S_{n,g} is
    nonempty and its e-indices have more than INDEX_MAX_ENTRIES entries."""
    # partitions of g into at most n parts, counted as their conjugates:
    # partitions of g with every part at most min(n, g).  With parts up
    # to 1 there is one for every g; with larger parts the count never
    # falls as the weight grows, so the walk stops at the first weight
    # past the limit.  dim S_{n,g} is the count at g less the count at
    # g - 1 (Cayley-Sylvester).
    below, count = int(g > 0), 1
    if min(n, g) > 1:
        for w, count in enumerate(symfunc.partition_counts(min(n, g))):
            if count > CELL_MAX_MONOMIALS:
                err.write(
                    f"({n}, {g}) has more than {CELL_MAX_MONOMIALS} degree-{n} "
                    f"weight-{g} monomials, the limit for a cell\n"
                )
                return True
            if w == g:
                break
            below = count
    if indexed and count > below and n * count > INDEX_MAX_ENTRIES:
        err.write(
            f"({n}, {g}) has e-indices of n * monomials = {n * count} entries, "
            f"more than {INDEX_MAX_ENTRIES}, the limit for a cell's e-indices\n"
        )
        return True
    return False


def run(argv, out=None, err=None):
    """Run one command; its output goes to `out` and its messages to
    `err`, by default the process's stdout and stderr at the time of the
    call.  Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    # argparse writes --help to sys.stdout and usage errors to sys.stderr,
    # so both are pointed at the given streams while it parses
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    finally:
        sys.stdout, sys.stderr = streams

    for flag in ("g", "gmax"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            err.write(f"need {flag} >= 0, got {value}\n")
            return 2
    if args.command in ("basis", "dims", "stroh", "oracle") and args.n < 1:
        err.write(f"need n >= 1, got {args.n}\n")
        return 2

    if args.command == "basis":
        if _too_large(args.n, args.g, err, indexed=True):
            return 2
        _emit_elements(basis_mod.u_basis(args.n, args.g), args, out)
        return 0

    if args.command == "perpetuants":
        if args.n < 3:
            err.write(
                "perpetuants for n <= 2 are special: a0 for n = 1, the unique "
                "even-weight degree-2 invariant for n = 2; use n >= 3 here\n"
            )
            return 2
        if _too_large(args.n, args.g, err):
            return 2
        _emit_elements(perpetua.perpetuant_basis(args.n, args.g), args, out)
        return 0

    if args.command in ("dims", "stroh"):
        steps = min(args.n, args.gmax) * args.gmax
        if steps > SERIES_MAX_STEPS:
            err.write(
                f"{args.command} {args.n} --gmax {args.gmax} takes min(n, gmax) * gmax = "
                f"{steps} steps, more than {SERIES_MAX_STEPS}, the limit for a series\n"
            )
            return 2
        build = basis_mod.dim_series if args.command == "dims" else perpetua.stroh_series
        return _emit_series(build(args.n, args.gmax), args, out)

    if args.command == "verify":
        if args.n < 3:
            err.write("certificates need n >= 3 (n <= 2 is handled in closed form)\n")
            return 2
        if (args.g is None) == (args.gmax is None):
            err.write("give either a weight g or --gmax\n")
            return 2
        weights = [args.g] if args.g is not None else range(args.gmax + 1)
        if _too_large(args.n, weights[-1], err):
            return 2
        all_ok = True
        results = []
        for g in weights:
            cert = perpetua.verify_complement(args.n, g)
            results.append(cert)
            all_ok = all_ok and cert.direct_sum_ok
            if args.format == "text":
                out.write(str(cert) + "\n")
        if args.format == "json":
            if args.g is not None:
                out.write(results[0].to_json() + "\n")
            else:
                out.write(json.dumps([c.to_json_dict() for c in results]) + "\n")
        return 0 if all_ok else 1

    if args.command == "qn":
        if args.n < 3:
            err.write("q_n needs n >= 3\n")
            return 2
        if args.n > QN_MAX_N:
            degree, terms = _qn_size(args.n)
            err.write(
                f"q_{args.n} has degree {degree} in {args.n - 1} variables, up to "
                f"{terms} terms; qn is limited to n <= {QN_MAX_N}\n"
            )
            return 2
        # the leading term is read off q_n's linear forms; one lookup
        # checks it against the expansion
        coefficient, lead = symfunc.q_n_leading_monomial(args.n)
        q = symfunc.q_n(args.n)
        if q.coefficient(lead) != coefficient:
            raise AssertionError(
                f"q_{args.n} has coefficient {q.coefficient(lead)} at its leading "
                f"exponent {lead.as_tuple(args.n - 1, first_index=1)}, not {coefficient}"
            )
        if args.format == "json":
            envelope = json.dumps(
                {"n": args.n, "leading_exponent": list(lead.as_tuple(args.n - 1, first_index=1))}
            )
            # the polynomial's own text goes in as the last member, unparsed
            out.write(envelope[:-1] + ', "poly": ' + q.to_json() + "}\n")
        else:
            out.write(f"q_{args.n} = {q}\n")
            out.write(f"leading exponent: {lead.as_tuple(args.n - 1, first_index=1)}\n")
        return 0

    if args.command == "relations":
        checks = binforms.relation_checks()
        ok = all(passed for _, passed, _ in checks)
        if args.format == "json":
            out.write(
                json.dumps(
                    [
                        {"check": name, "ok": passed, "value": value}
                        for name, passed, value in checks
                    ]
                )
                + "\n"
            )
        else:
            for name, passed, value in checks:
                status = "PASS" if passed else "FAIL"
                suffix = f"  {value}" if value else ""
                out.write(f"{status}  {name}{suffix}\n")
        return 0 if ok else 1

    if args.command == "oracle":
        if _too_large(args.n, args.g, err, indexed=True):
            return 2
        kernel = basis_mod.kernel_oracle(args.n, args.g)
        ub = basis_mod.u_basis(args.n, args.g)
        equal, ra, rb, ru = basis_mod.span_equal(
            [u.poly for u in ub], kernel
        )
        if args.format == "json":
            out.write(
                json.dumps(
                    {
                        "n": args.n,
                        "g": args.g,
                        "kernel": [p.to_json_dict() for p in kernel],
                        "rank_basis": ra,
                        "rank_kernel": rb,
                        "rank_union": ru,
                        "spans_equal": equal,
                    }
                )
                + "\n"
            )
        else:
            for p in kernel:
                out.write(f"{p}\n")
            out.write(
                f"ranks: basis={ra} kernel={rb} union={ru} "
                f"{'equal' if equal else 'DIFFER'}\n"
            )
        return 0 if equal else 1

    return 2


def _emit_series(series, args, out):
    if args.format == "json":
        out.write(
            json.dumps({"n": series.n, "coefficients": series.coefficients}) + "\n"
        )
    else:
        for g, c in enumerate(series.coefficients):
            out.write(f"{g}\t{c}\n")
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # interpreter's own flush at exit does not fail again, and exit as
        # a shell reports a process ended by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
