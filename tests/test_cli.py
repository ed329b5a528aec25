"""Command line interface: subcommands, output formats and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perpetuants import basis as basis_mod
from perpetuants import binforms, cli, perpetua, symfunc
from perpetuants.cli import run
from perpetuants.polycore import Poly


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_basis_empty_cell():
    code, out, err = call("basis", "1", "1")
    assert code == 0
    assert out == "(empty)\n"


def test_basis_3_3_text():
    code, out, _ = call("basis", "3", "3")
    assert code == 0
    assert out == "U_{0,1} = 3*a0^2*a3 - 3*a0*a1*a2 + a1^3\n"


def test_basis_at_large_weight_has_bounded_stack_depth():
    # S_{1,g} is empty for g >= 1, so no alpha is built at all; the depth
    # of alpha(1, g) built from its smaller weights is tested in
    # test_symfunc
    code, out, err = call("basis", "1", "3000")
    assert (code, out, err) == (0, "(empty)\n", "")


def test_basis_json():
    code, out, _ = call("basis", "3", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["k"] == [0, 1]
    assert data[0]["degree"] == 3 and data[0]["weight"] == 3


def test_basis_primitive_flag():
    # (2,4) basis element has content 2 in this normalization path or not;
    # the flag must at least be accepted and yield a primitive polynomial
    code, out, _ = call("basis", "2", "4", "--primitive")
    assert code == 0
    assert out.startswith("U_{")


def test_basis_usage_error():
    code, _, err = call("basis", "0", "3")
    assert code == 2
    assert err


def test_perpetuants_subcommand():
    code, out, _ = call("perpetuants", "3", "5")
    assert code == 0
    assert out.startswith("U_{1,1} = ")


def test_perpetuants_small_n_exits_2_with_hint():
    code, out, err = call("perpetuants", "2", "4")
    assert code == 2
    assert "n = 2" in err or "n=2" in err or "degree-2" in err


def test_dims_table():
    code, out, _ = call("dims", "3", "--gmax", "6")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(c) for _, c in rows] == [1, 0, 1, 1, 1, 1, 2]


def test_stroh_table():
    code, out, _ = call("stroh", "3", "--gmax", "9")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(c) for _, c in rows][3:] == [1, 0, 1, 1, 1, 1, 2]


def test_stroh_json():
    code, out, _ = call("stroh", "2", "--gmax", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "coefficients": [0, 0, 1, 0, 1, 0, 1]}


def test_verify_single_cell_json():
    code, out, _ = call("verify", "4", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["g"] == 6 and data["ok"] is True


def test_verify_range_text():
    code, out, _ = call("verify", "3", "--gmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.endswith("ok") for line in lines)


def test_verify_needs_weight():
    code, _, err = call("verify", "3")
    assert code == 2
    assert err


def test_qn_text():
    code, out, _ = call("qn", "3")
    assert code == 0
    assert "leading exponent: (2, 1)" in out


def test_qn_json():
    code, out, _ = call("qn", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["leading_exponent"] == [4, 2, 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_qn_json_equals_the_dumped_envelope(n):
    # the polynomial's text is spliced into the envelope, not re-encoded
    q = symfunc.q_n(n)
    lead = symfunc.leading_exponent(q).as_tuple(n - 1, first_index=1)
    expected = json.dumps({"n": n, "leading_exponent": list(lead), "poly": q.to_json_dict()})
    assert call("qn", str(n), "--format", "json") == (0, expected + "\n", "")


def test_qn_reads_the_leading_exponent_off_the_forms(monkeypatch):
    # the general scan over q_n's terms is not called
    def refuse(p):
        raise AssertionError("leading_exponent must not be called")

    monkeypatch.setattr(symfunc, "leading_exponent", refuse)
    code, out, _ = call("qn", "5")
    assert code == 0
    assert out.endswith("leading exponent: (8, 4, 2, 1)\n")


def test_qn_checks_the_forms_lead_against_the_expansion(monkeypatch):
    def wrong_sign(n):
        c, ev = lead(n)
        return -c, ev

    lead = symfunc.q_n_leading_monomial
    monkeypatch.setattr(symfunc, "q_n_leading_monomial", wrong_sign)
    with pytest.raises(
        AssertionError,
        match=r"^q_4 has coefficient 1 at its leading exponent \(4, 2, 1\), not -1$",
    ):
        call("qn", "4")


def test_qn_rejects_small_n():
    code, _, err = call("qn", "2")
    assert code == 2


def test_qn_7_fails_fast_with_its_size(monkeypatch):
    def expand(n):
        raise AssertionError("q_n must not be expanded past the guard")

    monkeypatch.setattr(symfunc, "q_n", expand)
    code, out, err = call("qn", "7")
    assert code == 2
    assert out == ""
    assert "degree 63" in err and "10424128 terms" in err and "n <= 6" in err


@pytest.mark.parametrize(
    "n,size",
    [
        (8, "degree 127 in 7 variables, up to 6856577728 terms"),
        (200, "degree 2^199 - 1 in 199 variables, up to binomial(2^199 + 197, 198) terms"),
        (10**4, "degree 2^9999 - 1 in 9999 variables, up to binomial(2^9999 + 9997, 9998) terms"),
        (10**20, f"degree 2^{10**20 - 1} - 1 in {10**20 - 1} variables"),
    ],
)
def test_qn_past_the_limit_fails_fast_for_every_n(monkeypatch, n, size):
    # past n = 10 the size is named by its formula: 2^(n-1) - 1 of a huge
    # n would have more digits than str() writes, or take hours to write
    def expand(n):
        raise AssertionError("q_n must not be expanded past the guard")

    monkeypatch.setattr(symfunc, "q_n", expand)
    start = time.perf_counter()
    code, out, err = call("qn", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("; qn is limited to n <= 6\n")
    assert err.startswith(f"q_{n} has {size}")


@pytest.mark.parametrize(
    "argv,cell",
    [
        ("verify 3 2000", "(3, 2000)"),
        ("verify 3 --gmax 2000 --format json", "(3, 2000)"),
        ("verify 3 171", "(3, 171)"),
        ("verify 7 33", "(7, 33)"),
        ("verify 8 --gmax 31", "(8, 31)"),
        ("basis 12 200", "(12, 200)"),
        ("perpetuants 3 2000", "(3, 2000)"),
        ("oracle 3 2000", "(3, 2000)"),
        ("verify 3 1000000000000", "(3, 1000000000000)"),
        ("verify 3 --gmax 1000000000000", "(3, 1000000000000)"),
        ("basis 1000000000000 1000000000000", "(1000000000000, 1000000000000)"),
    ],
)
def test_large_cell_fails_fast_with_its_size(monkeypatch, argv, cell):
    def compute(*args, **kwargs):
        raise AssertionError("no matrix may be built past the guard")

    for name in ("u_basis", "kernel_oracle"):
        monkeypatch.setattr(basis_mod, name, compute)
    for name in ("perpetuant_basis", "verify_complement"):
        monkeypatch.setattr(perpetua, name, compute)
    for name in ("transition_alpha", "transition_beta", "partitions_at_most", "partition_parts"):
        monkeypatch.setattr(symfunc, name, compute)
    code, out, err = call(*argv.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert cell in err and f"more than {cli.CELL_MAX_MONOMIALS} " in err


@pytest.mark.parametrize(
    "argv,coefficients",
    [
        ("dims 1000000000000 --gmax 5", [1, 0, 1, 1, 2, 2]),
        ("stroh 1000000000000 --gmax 5", [0] * 6),
    ],
)
def test_series_at_huge_n_answers_quickly(argv, coefficients):
    # parts above gmax add nothing, and 2^(n-1) - 1 > gmax decides an
    # all-zero Stroh series without computing the power
    code, out, err = call(*argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == coefficients


@pytest.mark.parametrize(
    "argv",
    [
        "dims 3 --gmax 100000000",
        "stroh 3 --gmax 100000000",
        "dims 1 --gmax 3000001",
        "dims 1000000000000 --gmax 1000000000000",
        "stroh 1000000000000 --gmax 1000000000000 --format json",
    ],
)
def test_series_past_the_step_limit_fails_fast(monkeypatch, argv):
    def build(n, g_max):
        raise AssertionError("no series may be built past the limit")

    monkeypatch.setattr(basis_mod, "dim_series", build)
    monkeypatch.setattr(perpetua, "stroh_series", build)
    code, out, err = call(*argv.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"more than {cli.SERIES_MAX_STEPS}, the limit for a series" in err


@pytest.mark.parametrize("argv", ["dims 3 --gmax 3000", "dims 3 --gmax 1000000", "stroh 1 --gmax 3000000"])
def test_series_limit_admits(monkeypatch, argv):
    def admitted(n, g_max):
        raise RuntimeError(f"admitted ({n}, {g_max})")

    monkeypatch.setattr(basis_mod, "dim_series", admitted)
    monkeypatch.setattr(perpetua, "stroh_series", admitted)
    with pytest.raises(RuntimeError, match="admitted"):
        call(*argv.split())


@pytest.mark.parametrize("n,g", [(1, 1000000000000), (1000000000000, 1)])
def test_cell_limit_admits_one_monomial_cells(monkeypatch, n, g):
    # with n = 1 or g = 1 every weight has one monomial
    def admitted(n, g):
        raise RuntimeError(f"admitted ({n}, {g})")

    monkeypatch.setattr(basis_mod, "u_basis", admitted)
    with pytest.raises(RuntimeError, match=rf"admitted \({n}, {g}\)"):
        call("basis", str(n), str(g))


@pytest.mark.parametrize("n,g", [(1, 1000000000000), (1000000000000, 1)])
def test_one_monomial_cells_are_empty_at_once(n, g):
    # S_{n,g} is empty for n = 1 or g = 1: u_basis answers before it
    # builds alpha(1, w) for every w < g or pads an e-index to n entries
    assert call("basis", str(n), str(g)) == (0, "(empty)\n", "")


@pytest.mark.parametrize(
    "argv,entries",
    [
        ("oracle 99999999999999 2", 199999999999998),
        ("oracle 99999999999999 0", 99999999999999),
        ("basis 100000000 2", 200000000),
        ("basis 500001 2 --format json", 1000002),
        ("basis 400000 3", 1200000),
    ],
)
def test_huge_degree_cells_past_the_index_limit_fail_fast(monkeypatch, argv, entries):
    # cells of two or three monomials: their e-indices, n entries each, are refused
    # before any is built
    def compute(*args, **kwargs):
        raise AssertionError("no e-index may be built past the limit")

    for name in ("u_basis", "kernel_oracle"):
        monkeypatch.setattr(basis_mod, name, compute)
    for name in ("transition_alpha", "e_indices"):
        monkeypatch.setattr(symfunc, name, compute)
    start = time.perf_counter()
    code, out, err = call(*argv.split())
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"n * monomials = {entries} entries, more than {cli.INDEX_MAX_ENTRIES}," in err


@pytest.mark.parametrize(
    "argv",
    ["basis 500000 2", "oracle 500000 2", "oracle 1000 10", "basis 1000000000000 1", "oracle 99999999999999 1"],
)
def test_index_limit_admits(monkeypatch, argv):
    def admitted(n, g):
        raise RuntimeError(f"admitted ({n}, {g})")

    monkeypatch.setattr(basis_mod, "u_basis", admitted)
    monkeypatch.setattr(basis_mod, "kernel_oracle", admitted)
    with pytest.raises(RuntimeError, match="admitted"):
        call(*argv.split())


def test_two_monomial_cells_of_a_huge_degree_answer_at_once():
    start = time.perf_counter()
    # S_{n,1} is empty: the kernel of D at weight 1 is found over the
    # monomial a_0^(n-1) a_1 without padding its exponents to n entries
    assert call("oracle", "99999999999999", "1") == (
        0, "ranks: basis=0 kernel=0 union=0 equal\n", ""
    )
    n = 100000
    code, out, err = call("basis", str(n), "2", "--format", "json")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    [u] = json.loads(out)
    assert u["k"] == [1] + [0] * (n - 2)
    assert Poly.from_json_dict(u["poly"]) == Poly.parse(f"-2*a0^{n - 1}*a2 + a0^{n - 2}*a1^2")


def test_cell_limit_admits_6_36(monkeypatch):
    # (6,36), with 2432 monomials, must pass the guard
    def admitted(n, g):
        raise RuntimeError(f"admitted ({n}, {g})")

    monkeypatch.setattr(perpetua, "verify_complement", admitted)
    with pytest.raises(RuntimeError, match=r"admitted \(6, 36\)"):
        call("verify", "6", "36")


@pytest.mark.parametrize(
    "argv",
    [
        "verify 10000 3",
        "verify 1000 10",
        "verify 200 14",
        "verify 32 24",
        "verify 10 --gmax 24",
        "verify 1000000000000 0",
    ],
)
def test_verify_certifies_few_monomial_cells_of_high_degree(argv):
    # few monomials at a high degree: the quotient's factors have degree
    # at most n - 2 and weight at most g - n, so these certify at once
    code, out, err = call(*argv.split(), "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    certs = data if isinstance(data, list) else [data]
    n, g_max = certs[-1]["n"], certs[-1]["g"]
    dims = basis_mod.dim_series(n, g_max)
    stroh = perpetua.stroh_series(n, g_max)
    for c in certs:
        assert c["ok"]
        assert c["dim_total"] == dims[c["g"]]
        assert c["dim_perp"] == c["stroh"] == stroh[c["g"]]


@pytest.mark.slow
@pytest.mark.parametrize("n,g,total", [(7, 32, 307), (8, 30, 358)])
def test_verify_top_admitted_cells_of_degree_7_and_8(n, g, total):
    # each is the largest weight the cell limit admits at its degree, and
    # lies below the degree's first perpetuant (weight 2^(n-1) - 1)
    code, out, err = call("verify", str(n), str(g), "--format", "json")
    assert (code, err) == (0, "")
    c = json.loads(out)
    assert c["ok"]
    assert c["dim_total"] == total == basis_mod.dim_series(n, g)[g]
    assert c["dim_perp"] == c["stroh"] == 0


@pytest.mark.parametrize(
    "n,g",
    [
        (6, 31), (6, 32), (6, 33), (6, 34), (6, 35), (6, 36), (12, 20), (1000, 3),
        (3, 170), (4, 66), (5, 44), (7, 32), (8, 30), (9, 28), (10, 27), (12, 26),
    ],
)
def test_verify_limit_admits(monkeypatch, n, g):
    # the degree-6 band up to (6,36), cells of many degrees, and the top
    # admitted cell of degrees 3 to 12
    def admitted(n, g):
        raise RuntimeError(f"admitted ({n}, {g})")

    monkeypatch.setattr(perpetua, "verify_complement", admitted)
    with pytest.raises(RuntimeError, match=rf"admitted \({n}, 0\)"):
        call("verify", str(n), "--gmax", str(g))
    with pytest.raises(RuntimeError, match=rf"admitted \({n}, {g}\)"):
        call("verify", str(n), str(g))


@pytest.mark.parametrize(
    "argv",
    [
        "basis 1 -1",
        "dims 3 --gmax -1",
        "dims 0 --gmax 3",
        "stroh 0 --gmax 3",
        "stroh 3 --gmax -1",
        "oracle 0 0",
        "oracle 3 -2",
        "perpetuants 3 -1",
        "verify 3 -1",
        "verify 3 --gmax -1",
        "verify 3 --gmax -1 --format json",
        "verify 3 5 --gmax 7",
    ],
)
def test_bad_input_is_one_line_and_exit_2(argv):
    code, out, err = call(*argv.split())
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1


def test_relations_all_pass():
    code, out, _ = call("relations")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split("  ")[1] for line in lines] == RELATIONS
    assert all(line.startswith("PASS") for line in lines)


RELATIONS = [
    "8*c2^3 + 9*c3^2 = a0^2*D",
    "2*c4 + c2^2 = a0^2*B",
    "6*c2*B - D = -a0*C",
    "D = 6*c2*B + a0*C",
    "D decomposable in degree 4",
    "D indecomposable over a0..a3",
]


def test_relations_report_a_failed_identity(monkeypatch):
    # a wrong B fails its own quotient, the C quotient (which is then not
    # exact) and the identity D = 6 c2 B + a0 C, and nothing else
    monkeypatch.setattr(binforms, "INVARIANT_B", Poly.parse("2*a0*a4 - 2*a1*a3 + 2*a2^2"))
    code, out, err = call("relations")
    assert (code, err) == (1, "")
    status = [line.split("  ")[:2] for line in out.splitlines()]
    assert [name for _, name in status] == RELATIONS
    assert [s for s, _ in status] == ["PASS", "FAIL", "FAIL", "FAIL", "PASS", "PASS"]
    assert "B quotient does not match" in out
    code, out, err = call("relations", "--format", "json")
    assert (code, err) == (1, "")
    assert [(c["check"], c["ok"]) for c in json.loads(out)] == list(
        zip(RELATIONS, [True, False, False, False, True, True])
    )


def test_relations_json():
    code, out, _ = call("relations", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(item["ok"] for item in data)


def test_oracle_subcommand():
    code, out, _ = call("oracle", "3", "6")
    assert code == 0
    assert "equal" in out


def test_oracle_json():
    code, out, _ = call("oracle", "2", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["spans_equal"] is True
    assert data["rank_basis"] == data["rank_kernel"] == data["rank_union"] == 1


def test_unknown_subcommand_is_usage_error():
    code, _, _ = call("frobnicate")
    assert code == 2


def test_run_builds_no_parser_per_call(monkeypatch):
    from perpetuants import cli

    def rebuild():
        raise AssertionError("run() rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    code, _, _ = call("dims", "3", "--gmax", "4")
    assert code == 0


def test_closed_stdout_exits_141_without_traceback():
    # `qn 6` prints 669,664 bytes, far more than a pipe buffer holds, so
    # the program is still writing when the reader goes away
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perpetuants.cli", "qn", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""
