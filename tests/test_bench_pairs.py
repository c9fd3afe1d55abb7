"""The summary arithmetic of the pair runner (`tests/bench_pairs.py`), on
fixed numbers; no benchmark runs."""

import pytest

from bench_pairs import compare, quartiles, refusal


def test_quartiles_are_inclusive_and_take_one_value():
    assert quartiles([130.0, 100.0, 120.0, 110.0]) == (107.5, 115.0, 122.5)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_a_higher_is_better_metric_counts_wins_and_ties_for_neither():
    row = compare([100.0, 110.0, 120.0, 130.0], [105.0, 110.0, 118.0, 140.0],
                  "higher", 0.25)
    # one tie, one loss
    assert row["wins"] == 2 and row["pairs"] == 4
    # pair ratios 1.05, 1, 0.983, 1.077
    assert row["ratio"] == pytest.approx(1.025)
    assert row["parent"] == (107.5, 115.0, 122.5)
    assert row["change"] == (108.75, 114.0, 123.5)
    assert row["verdict"] == "within"


def test_a_lower_is_better_metric_wins_by_falling():
    row = compare([1.0, 2.0, 3.0], [1.5, 1.0, 3.0], "lower", 0.25)
    assert row["wins"] == 1
    assert row["ratio"] == 1.0
    assert row["verdict"] == "within"


@pytest.mark.parametrize("better, verdict", [("lower", "worse"), ("higher", "better")])
def test_a_move_past_the_bound_is_named_by_its_direction(better, verdict):
    # pair ratios 1.2, 1.3, 1.4: the median moves by 0.3, past 0.25
    row = compare([10.0, 10.0, 10.0], [12.0, 13.0, 14.0], better, 0.25)
    assert row["ratio"] == pytest.approx(1.3)
    assert row["verdict"] == verdict
    assert compare([10.0], [12.0], better, 0.25)["verdict"] == "within"


def test_a_pair_is_refused_unless_correct_with_equal_attempts():
    ok = {"correct": True, "attempted": 400}
    assert refusal(ok, dict(ok)) is None
    assert refusal(ok, {"correct": False, "attempted": 400}) == "not correct"
    assert refusal({"correct": False, "attempted": 400}, ok) == "not correct"
    assert refusal(ok, {"correct": True, "attempted": 401}) == "attempted 400 != 401"
