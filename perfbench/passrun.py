"""One cold pass of a benchmark workload, in a fresh interpreter.

Reads the generated inputs as one JSON object on stdin, runs each operation
through the package's public functions, checks every answer outside the
timing, and prints one JSON line: per-operation timings and verdicts, peak
RSS and, with --trace, the per-layer span summary.

    PYTHONPATH=src python3 perfbench/passrun.py [--trace] < inputs.json
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time

import perpetuants
from perpetuants import basis, cli
from perpetuants.polycore import ExponentVector, Poly

from spans import Recorder


class Pass:
    """Times operations and records whether each one gave the right answer."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.ops = []  # [label, wall seconds, cpu seconds, ok, detail]

    def run(self, label, call, check):
        """Time `call()`, then judge its result with `check` untimed.

        `check` returns None for a right answer and a reason otherwise.  An
        exception from either counts as a failure.  Returns the result of a
        successful operation and None after a failure.
        """
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if self.recorder is None:
                result = call()
            else:
                with self.recorder.operation():
                    result = call()
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, f"raised {exc!r}"
        else:
            error = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None:
            try:
                error = check(result)
            except Exception as exc:  # a malformed answer is a wrong answer
                error = f"check raised {exc!r}"
        self.ops.append([label, wall, cpu, error is None, error or ""])
        return result if error is None else None

    def skip(self, label, reason):
        """An operation whose inputs could not be built counts as failed."""
        self.ops.append([label, 0.0, 0.0, False, reason])


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue()


def _check_cli(judge):
    """A check for a CLI result: exit code 0, then `judge(output text)`."""
    return lambda result: f"exit code {result[0]}" if result[0] else judge(result[1])


def _expect(label, wanted):
    return lambda got: None if got == wanted else f"{label} is {got}, expected {wanted}"


def certify(p, inputs):
    for op in inputs["ops"]:
        n, g, stroh = op["n"], op["g"], op["stroh"]

        def judge(text):
            cert = json.loads(text)
            if not cert["ok"]:
                return f"certificate not ok: {cert}"
            if not cert["dim_perp"] == cert["stroh"] == stroh:
                return f"dim_perp {cert['dim_perp']}, stroh {cert['stroh']}, expected {stroh}"
            return None

        p.run(f"verify {n} {g}", lambda: _cli(["verify", str(n), str(g), "--format", "json"]), _check_cli(judge))


def qn(p, inputs):
    for op in inputs["ops"]:
        if op["op"] == "qn":
            n, lead = op["n"], op["leading_exponent"]

            def judge(text):
                return _expect("leading exponent", lead)(json.loads(text)["leading_exponent"])

            p.run(f"qn {n}", lambda: _cli(["qn", str(n), "--format", "json"]), _check_cli(judge))
        else:
            count = op["checks"]

            def judge(text):
                lines = text.splitlines()
                passed = [line for line in lines if line.startswith("PASS ")]
                if len(passed) != len(lines) or len(lines) != count:
                    return f"{len(passed)} of {len(lines)} checks PASS, expected {count} of {count}"
                return None

            p.run("relations", lambda: _cli(["relations"]), _check_cli(judge))


def _combine(kernel, coeffs):
    """Terms of sum(c * kernel[i]) over (i, c), by plain dict arithmetic so
    that building inputs calls no package function."""
    terms = {}
    for i, c in coeffs:
        for ev, x in kernel[i].terms():
            terms[ev] = terms.get(ev, 0) + c * x
    return terms


def oracle_inputs(kernel, cell):
    """The seeded recombinations, member and non-member of one cell."""
    recombined = [Poly("a", _combine(kernel, row)) for row in cell["recombine"]]
    member = _combine(kernel, enumerate(cell["member"]))
    exps = {}
    for part in cell["monomial"]:
        exps[part] = exps.get(part, 0) + 1
    outsider = dict(member)
    ev = ExponentVector(exps)
    outsider[ev] = outsider.get(ev, 0) + 1
    return recombined, Poly("a", member), Poly("a", outsider)


def oracle(p, inputs):
    for cell in inputs["cells"]:
        n, g, dim = cell["n"], cell["g"], cell["dim"]
        tag = f"({n},{g})"
        labels = [f"span_equal {tag}", f"in_span member {tag}", f"in_span non-member {tag}"]
        kernel = p.run(f"kernel_oracle {tag}", lambda: basis.kernel_oracle(n, g), lambda k: _expect("kernel size", dim)(len(k)))
        if kernel is None:
            for label in labels:
                p.skip(label, "no kernel to build inputs from")
            continue
        recombined, member, outsider = oracle_inputs(kernel, cell)
        p.run(labels[0], lambda: basis.span_equal(kernel, recombined), lambda r: _expect("spans equal", True)(r[0]))
        p.run(labels[1], lambda: basis.in_span(member, kernel), _expect("member inside", cell["member_inside"]))
        p.run(labels[2], lambda: basis.in_span(outsider, kernel), _expect("non-member inside", cell["outsider_inside"]))


WORKLOADS = {"certify": certify, "oracle": oracle, "qn": qn}


def run_pass(inputs, recorder=None):
    p = Pass(recorder)
    WORKLOADS[inputs["workload"]](p, inputs)
    return p.ops


def main():
    inputs = json.load(sys.stdin)
    recorder = None
    if "--trace" in sys.argv[1:]:
        recorder = Recorder()
        recorder.install(perpetuants)
    ops = run_pass(inputs, recorder)
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "package": perpetuants.__file__,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
