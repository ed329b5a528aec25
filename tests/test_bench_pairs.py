"""The statistics of scripts/bench_pairs.py on hand-made numbers: the
quartiles, the per-pair wins and ties, and the relative bound test."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.04}
HIGHER = {"name": "success_ratio", "better": "higher", "bound": 0.01}


def test_spread_uses_inclusive_quartiles():
    # the exclusive method would give q1 = 1.5 and q3 = 4.5
    assert bench_pairs.spread([5, 1, 4, 2, 3]) == {
        "median": 3, "q1": 2.0, "q3": 4.0, "runs": [5, 1, 4, 2, 3],
    }


def test_spread_rounds_to_four_places():
    got = bench_pairs.spread([0.123456, 0.2, 0.3])
    assert got["runs"] == [0.1235, 0.2, 0.3]
    assert (got["q1"], got["median"], got["q3"]) == (0.1617, 0.2, 0.25)


def test_paired_lower_is_better():
    got = bench_pairs.paired(LOWER, [10, 10, 10, 10], [9, 10, 11, 12])
    assert got == {
        "change_wins": 1,  # 9 < 10; the tie at 10 counts for neither side
        "ties": 1,
        "pairs": 4,
        # (10.5 - 10) / 10, relative to the parent's median, not the change's
        "median_change_rel": 0.05,
        "bound": 0.04,
        "worse_than_bound": True,
        "parent_iqr": 0,
    }
    assert not bench_pairs.paired(dict(LOWER, bound=0.1), [10] * 4, [9, 10, 11, 12])[
        "worse_than_bound"
    ]


def test_paired_higher_flips_the_sign():
    parent, change = [1.0, 1.0, 0.9, 1.0], [0.9, 1.0, 1.0, 0.8]
    got = bench_pairs.paired(HIGHER, parent, change)
    assert got["change_wins"] == 1 and got["ties"] == 1
    assert got["median_change_rel"] == -0.05
    # a fall of a higher-is-better metric is the worse direction
    assert got["worse_than_bound"]
    # inclusive quartiles of the parent: 0.975 and 1.0 (exclusive: 0.925)
    assert got["parent_iqr"] == 0.025
    # the same numbers under lower-is-better: the change's runs read better
    flipped = bench_pairs.paired(dict(HIGHER, better="lower"), parent, change)
    assert flipped["change_wins"] == 2 and not flipped["worse_than_bound"]


@pytest.mark.parametrize("metric", [LOWER, HIGHER], ids=["lower", "higher"])
def test_paired_all_ties(metric):
    got = bench_pairs.paired(metric, [2.0] * 10, [2.0] * 10)
    assert (got["change_wins"], got["ties"], got["median_change_rel"]) == (0, 10, 0.0)
    assert not got["worse_than_bound"]


def test_paired_zero_parent_median_has_no_relative_move():
    got = bench_pairs.paired(LOWER, [0, 0, 0], [0, 1, 1])
    assert got["median_change_rel"] == 0.0 and not got["worse_than_bound"]
