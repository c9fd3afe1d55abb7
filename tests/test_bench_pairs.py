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
    # the parent's quartiles [1.5, 2.5] span half its median
    assert row["verdict"] == "unresolved"
    assert not row["claimable"]


# construct_render setup_s at seeds 40200-40211 of a parent: quartiles
# [0.0462, 0.0679] around 0.0584, a spread of 37% against a bound of 25%
WIDE = [0.0441, 0.0452, 0.0462, 0.0462, 0.0530, 0.0570,
        0.0598, 0.0640, 0.0679, 0.0679, 0.0700, 0.0720]


def test_a_spread_wider_than_the_bound_is_unresolved():
    assert quartiles(WIDE) == pytest.approx((0.0462, 0.0584, 0.0679))
    row = compare(WIDE, [v * 1.02 for v in WIDE], "lower", 0.25)
    assert row["ratio"] == pytest.approx(1.02)
    assert row["verdict"] == "unresolved"
    # a move past the bound is still named by its direction
    assert compare(WIDE, [v * 1.3 for v in WIDE], "lower", 0.25)["verdict"] == "worse"
    # unless every change run beats every parent run: quartiles [1, 1.3]
    # span 26% of the median 1.15, and the pair ratios' median is 0.84
    row = compare([1.0, 1.3, 1.0, 1.3], [0.95] * 4, "lower", 0.25)
    assert row["ratio"] == pytest.approx(0.8404, abs=1e-4)
    assert row["verdict"] == "within"


def test_a_gain_is_claimable_on_nine_tenths_of_the_pairs_past_the_spread():
    parent = [100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0, 114.0, 116.0, 118.0]
    # quartiles [104.5, 113.5]: the medians must differ by more than 9
    lifted = [p + 10.0 for p in parent]
    row = compare(parent, lifted, "higher", 0.25)
    assert row["wins"] == 10 and row["verdict"] == "within" and row["claimable"]
    # nine wins of ten still claim (the change's median is 119); eight do not
    assert compare(parent, [99.0] + lifted[1:], "higher", 0.25)["claimable"]
    assert not compare(parent, [99.0, 101.0] + lifted[2:], "higher", 0.25)["claimable"]
    # ten wins by less than the spread do not claim
    assert not compare(parent, [p + 8.0 for p in parent], "higher", 0.25)["claimable"]
    # nor does a win in the wrong direction
    assert not compare(parent, lifted, "lower", 0.25)["claimable"]


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
