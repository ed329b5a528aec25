"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import passrun  # noqa: E402
import perpetuants  # noqa: E402
import run as bench  # noqa: E402
from perpetuants import basis, binforms, perpetua, umbral  # noqa: E402
from perpetuants.polycore import Poly  # noqa: E402
from spans import LAYERS, Recorder  # noqa: E402

# names that modules import with `from .x import y`; each site needs its own wrapper
BINDING_SITES = [
    (perpetua, "u_basis", "basis.u_basis"),
    (perpetua, "kernel_oracle", "basis.kernel_oracle"),
    (perpetua, "span_rank", "basis.span_rank"),
    (basis, "transition_alpha", "symfunc.transition_alpha"),
    (umbral, "transition_alpha", "symfunc.transition_alpha"),
    (binforms, "in_span", "basis.in_span"),
    (perpetuants, "u_basis", "basis.u_basis"),
    (perpetuants, "kernel_oracle", "basis.kernel_oracle"),
    (perpetuants, "verify_complement", "perpetua.verify_complement"),
    (perpetuants, "transition_beta", "symfunc.transition_beta"),
    (Poly, "__add__", "polycore.Poly.add"),
    (Poly, "__radd__", "polycore.Poly.add"),
    (Poly, "__mul__", "polycore.Poly.mul"),
    (Poly, "scale", "polycore.Poly.scale"),
]


def _traced():
    recorder = Recorder()
    recorder.install(perpetuants)
    return recorder


def test_every_binding_site_is_wrapped():
    originals = [getattr(site, attr) for site, attr, _ in BINDING_SITES]
    recorder = _traced()
    try:
        for site, attr, name in BINDING_SITES:
            assert getattr(getattr(site, attr), "span_name", None) == name, (site, attr)
        # no site anywhere still holds an unwrapped public layer function
        modules = [getattr(perpetuants, m) for m in LAYERS]
        for site in [perpetuants] + modules:
            for attr, obj in vars(site).items():
                defined_in_layer = getattr(obj, "__module__", "").startswith("perpetuants.")
                if callable(obj) and not isinstance(obj, type) and not attr.startswith("_") and defined_in_layer:
                    assert hasattr(obj, "span_name"), (site.__name__, attr)
    finally:
        recorder.uninstall()
    assert [getattr(site, attr) for site, attr, _ in BINDING_SITES] == originals


def test_traced_pass_accounts_for_its_time():
    inputs = {"workload": "certify", "ops": [{"n": 3, "g": 7, "stroh": 1}, {"n": 4, "g": 9, "stroh": 1}]}
    recorder = _traced()
    try:
        ops = passrun.run_pass(inputs, recorder)
    finally:
        recorder.uninstall()
    assert all(op[3] for op in ops), ops
    layers = recorder.summary()
    assert layers["cli.run"]["calls"] == 2
    assert layers["perpetua.verify_complement"]["calls"] == 2
    assert layers["bench.op"]["calls"] == 2
    wall = sum(op[1] for op in ops)
    self_total = sum(v["self_s"] for v in layers.values())
    assert 0.9 * wall <= self_total <= wall


def test_wrong_expectation_counts_as_failure():
    cell = bench.oracle_cell(random.Random(7), 4, 8)
    cell["outsider_inside"] = True  # deliberately wrong: the non-member is outside
    ops = passrun.run_pass({"workload": "oracle", "cells": [cell]})
    verdicts = {op[0]: op[3] for op in ops}
    assert verdicts == {
        "kernel_oracle (4,8)": True,
        "span_equal (4,8)": True,
        "in_span member (4,8)": True,
        "in_span non-member (4,8)": False,
    }
    attempted, failed = bench.tally([{"ops": ops}])
    assert (attempted, len(failed)) == (4, 1)


def test_failed_operation_is_never_a_timed_success():
    result = {"ops": [["right", 1.0, 1.0, True, ""], ["wrong", 5.0, 5.0, False, "wrong answer"]], "peak_rss_mb": 1.0}
    values = bench.end_to_end([result], setup=[0.1])
    assert values["slowest_op_s"] == 1.0
    assert values["success_ratio"] == 0.5


def test_oracle_answers_hold_on_other_seeds():
    for seed in (1, 2):
        cells = [bench.oracle_cell(random.Random(seed), n, g) for n, g in ((4, 10), (5, 9))]
        ops = passrun.run_pass({"workload": "oracle", "cells": cells})
        assert all(op[3] for op in ops), ops


def test_inputs_depend_only_on_seed():
    assert bench.make_inputs("oracle", 3) == bench.make_inputs("oracle", 3)
    assert bench.make_inputs("oracle", 3) != bench.make_inputs("oracle", 4)
    assert bench.make_inputs("certify", 3) == bench.make_inputs("certify", 4)


def test_expected_counts_match_the_package_series():
    for n in (3, 4, 5, 6):
        dims = perpetuants.dim_series(n, 20).coefficients
        stroh = perpetua.stroh_series(n, 20).coefficients
        for g in range(21):
            assert bench.count_partitions(g, 2, n) == dims[g]
            assert bench.stroh(n, g) == stroh[g]


def test_fails_without_a_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "qn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
