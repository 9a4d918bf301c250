"""scripts/bench_pairs.py's summaries, loaded by path: wins count over
every pair run, a change that fails more invocations claims no gain,
and digests compare only when both sides gave one and the same."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.1}
NONE_FAILED = {"parent": 0, "change": 0}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_summary_gives_inclusive_quartiles_and_keeps_the_samples(bench_pairs):
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "samples": [4.0, 1.0, 3.0, 2.0, 5.0]
    }
    assert bench_pairs.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "samples": [7.0]}


def test_a_clear_gain_in_every_pair_holds(bench_pairs):
    parent = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01]
    change = [p - 0.2 for p in parent]
    r = bench_pairs.compare(LOWER, parent, change, 10, NONE_FAILED)
    assert (r["pairs"], r["compared_pairs"], r["change_wins"], r["ties"]) == (10, 10, 10, 0)
    assert r["gain_holds"] and r["within_bound"]
    r = bench_pairs.compare(HIGHER, parent, change, 10, NONE_FAILED)
    assert r["change_wins"] == 0 and not r["gain_holds"] and not r["within_bound"]  # 20% worse


def test_wins_count_over_all_pairs_run(bench_pairs):
    """9 wins in 9 surviving pairs are 9 of 10 when 10 pairs ran, 9 of 11
    when 11 ran: a failed pair is no win."""
    parent = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02]
    change = [p - 0.2 for p in parent]
    assert bench_pairs.compare(LOWER, parent, change, 10, {"parent": 1, "change": 1})["gain_holds"]
    r = bench_pairs.compare(LOWER, parent, change, 11, {"parent": 2, "change": 2})
    assert (r["pairs"], r["compared_pairs"], r["change_wins"]) == (11, 9, 9)
    assert not r["gain_holds"]


def test_no_gain_holds_while_the_change_fails_more_often(bench_pairs):
    parent = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01]
    change = [p - 0.2 for p in parent]
    assert not bench_pairs.compare(LOWER, parent, change, 10, {"parent": 0, "change": 1})["gain_holds"]
    assert bench_pairs.compare(LOWER, parent, change, 10, {"parent": 1, "change": 1})["gain_holds"]


def test_ties_are_no_wins_and_a_gap_inside_the_parents_spread_is_no_gain(bench_pairs):
    r = bench_pairs.compare(LOWER, [1.0, 2.0, 3.0], [1.0, 1.9, 2.9], 3, NONE_FAILED)
    assert (r["change_wins"], r["ties"]) == (2, 1) and not r["gain_holds"]
    r = bench_pairs.compare(LOWER, [1.0, 2.0, 3.0], [0.9, 1.9, 2.9], 3, NONE_FAILED)
    assert r["change_wins"] == 3 and not r["gain_holds"]  # gap 0.1 inside the IQR of 1.0


def test_within_bound_compares_the_medians_against_the_bound(bench_pairs):
    assert bench_pairs.compare(LOWER, [1.0], [1.25], 1, NONE_FAILED)["within_bound"]
    assert not bench_pairs.compare(LOWER, [1.0], [1.26], 1, NONE_FAILED)["within_bound"]
    assert not bench_pairs.compare(HIGHER, [1.0], [0.89], 1, NONE_FAILED)["within_bound"]


def test_digests_are_equal_only_when_both_sides_give_one_and_the_same(bench_pairs):
    same = {"parent": [{"d": ["a"]}, {"d": ["a"]}], "change": [{"d": ["a"]}]}
    assert bench_pairs.digests(same, "d") == {"parent": ["a"], "change": ["a"], "equal": True}
    other = {"parent": [{"d": ["a"]}], "change": [{"d": ["a"]}, {"d": ["b"]}]}
    assert bench_pairs.digests(other, "d") == {"parent": ["a"], "change": ["a", "b"], "equal": False}
    none = {"parent": [{"d": ["a"]}], "change": []}
    assert not bench_pairs.digests(none, "d")["equal"]
