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
        "claim_met": False,
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


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_claim_met_needs_nine_wins_of_ten():
    # parent quartiles 0.9825 and 1.0175: IQR 0.035; every change run here
    # is 0.1 below its pair, a median gain of 0.1
    faster = [p - 0.1 for p in PARENT]
    assert bench_pairs.paired(LOWER, PARENT, faster)["claim_met"]
    nine = faster[:9] + [PARENT[9] + 0.01]
    got = bench_pairs.paired(LOWER, PARENT, nine)
    assert got["change_wins"] == 9 and got["claim_met"]
    eight = faster[:8] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    got = bench_pairs.paired(LOWER, PARENT, eight)
    assert got["change_wins"] == 8 and not got["claim_met"]
    # a tie is not a win
    tied = faster[:9] + [PARENT[9]]
    got = bench_pairs.paired(LOWER, PARENT, tied)
    assert (got["change_wins"], got["ties"]) == (9, 1) and got["claim_met"]
    tied = faster[:8] + PARENT[8:]
    assert not bench_pairs.paired(LOWER, PARENT, tied)["claim_met"]


def test_claim_met_needs_a_median_gain_past_the_parent_iqr():
    # ten wins of 0.03 each: the medians differ by 0.03, inside the
    # parent's IQR of 0.035
    got = bench_pairs.paired(LOWER, PARENT, [p - 0.03 for p in PARENT])
    assert got["change_wins"] == 10 and not got["claim_met"]
    assert bench_pairs.paired(LOWER, PARENT, [p - 0.04 for p in PARENT])["claim_met"]


def test_claim_met_follows_the_better_direction():
    higher = [p + 0.1 for p in PARENT]
    assert bench_pairs.paired(HIGHER, PARENT, higher)["claim_met"]
    assert not bench_pairs.paired(LOWER, PARENT, higher)["claim_met"]
    assert not bench_pairs.paired(HIGHER, PARENT, [p - 0.1 for p in PARENT])["claim_met"]
