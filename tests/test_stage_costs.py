"""The stage-cost script (`tests/stage_costs.py`) prints one row per stage."""

from stage_costs import main

from hypfeuer.cli import SUITE_ORDER


def test_one_row_per_stage(capsys):
    assert main(["--instances", "2", "--rounds", "1"]) == 0
    header, *rows, footer = capsys.readouterr().out.splitlines()
    assert header.split() == ["stage", "min_us", "median_us"]
    assert [row.rsplit(None, 2)[0] for row in rows] == [
        "draw", "build_config",
        *(f"suite {name}" for name in SUITE_ORDER), "writer", "verify"]
    for row in rows:
        low, median = map(float, row.split()[-2:])
        assert 0.0 <= low <= median
    assert footer == "seed 0, 2 instances, 1 rounds, box 0.25, min_angle 0.15"
