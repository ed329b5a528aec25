"""scripts/cell_limits.py: the top admitted cell of each degree, and one
cold run in a fresh interpreter."""

import importlib.util
from pathlib import Path

import pytest

from perpetuants import basis as basis_mod
from perpetuants import cli, symfunc

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cell_limits.py"
_spec = importlib.util.spec_from_file_location("cell_limits", SCRIPT)
cell_limits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cell_limits)


@pytest.mark.parametrize("n,g,monomials", [(3, 170, 2494), (6, 36, 2432), (8, 30, 2462)])
def test_top_admitted_cell(n, g, monomials):
    assert cell_limits.top_admitted_cell(n) == (g, monomials)


@pytest.mark.parametrize("n", range(2, 15))
def test_top_admitted_cell_is_the_last_before_the_limit(n):
    g, monomials = cell_limits.top_admitted_cell(n)
    counts = [c for _, c in zip(range(g + 2), symfunc.partition_counts(n))]
    assert monomials == counts[g] <= cli.CELL_MAX_MONOMIALS < counts[g + 1]
    assert max(counts[: g + 1]) == monomials


def test_top_admitted_cell_needs_two_variables():
    with pytest.raises(ValueError):
        cell_limits.top_admitted_cell(1)


def test_run_cell_reports_the_certificate():
    got = cell_limits.run_cell(4, 8, "verify_complement", timeout=120)
    assert got["result"]["ok"] and got["result"]["dim_total"] == basis_mod.dim_series(4, 8)[8]
    assert got["seconds"] >= 0 and got["peak_rss_mb"] > 0
    got = cell_limits.run_cell(4, 8, "u_basis", timeout=120)
    assert got["result"] == {"dim": basis_mod.dim_series(4, 8)[8]}


def test_run_cell_reports_a_timeout():
    got = cell_limits.run_cell(3, 170, "u_basis", timeout=0.001)
    assert got == {"seconds": 0.001, "peak_rss_mb": None, "result": "timeout"}
