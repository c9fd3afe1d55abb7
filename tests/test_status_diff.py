"""The report of the status-sweep comparer (`tests/status_diff.py`)."""

from status_diff import compare, main

PARENT = """\
0.7 0.15 0 - exit 0
0.7 0.15 0 0 inscribed_angle pass None 4.440892098500626e-15
0.7 0.15 0 0 lexell pass None 2.220446049250313e-16
0.7 0.15 0 0 feuerbach_point skipped contact_points_missing None
0.7 0.15 0 1 inscribed_angle pass None 2.6645352591003757e-15
0.7 0.15 0 1 lexell pass None 1.6653345369377348e-16
""".splitlines()


def _changed(old, new):
    return [line.replace(old, new) for line in PARENT]


def test_identical_outputs_report_residuals_only():
    out, flagged = compare(PARENT, PARENT)
    assert not flagged
    assert out == [
        "residuals feuerbach_point moved 0 of 1 worst None -> None",
        "residuals inscribed_angle moved 0 of 2 worst 4.440892098500626e-15"
        " -> 4.440892098500626e-15",
        "residuals lexell moved 0 of 2 worst 2.220446049250313e-16 -> 2.220446049250313e-16",
    ]


def test_a_moved_residual_is_counted_and_its_worst_read_on_each_side():
    out, flagged = compare(PARENT, _changed("2.6645352591003757e-15", "8e-15"))
    assert not flagged
    assert ("residuals inscribed_angle moved 1 of 2 worst 4.440892098500626e-15 -> 8e-15"
            in out)


def test_a_status_flag_or_exit_change_is_printed_and_flagged():
    change = _changed("lexell pass None 1.6653345369377348e-16", "lexell fail None 0.5")
    change = [line.replace("contact_points_missing", "no_excircle") for line in change]
    change[0] = "0.7 0.15 0 - exit 1"
    out, flagged = compare(PARENT, change)
    assert flagged
    assert [line for line in out if line.startswith("status")] == [
        "status 0.7 0.15 0 - exit 0 -> 0.7 0.15 0 - exit 1",
        "status 0.7 0.15 0 0 feuerbach_point skipped contact_points_missing None"
        " -> 0.7 0.15 0 0 feuerbach_point skipped no_excircle None",
        "status 0.7 0.15 0 1 lexell pass None 1.6653345369377348e-16"
        " -> 0.7 0.15 0 1 lexell fail None 0.5",
    ]
    # the failing residual is a moved residual too
    assert "residuals lexell moved 1 of 2 worst 2.220446049250313e-16 -> 0.5" in out


def test_a_line_on_one_side_only_is_printed_and_flagged():
    out, flagged = compare(PARENT, PARENT[:-1] + ["0.7 0.15 0 2 lexell pass None 1e-16"])
    assert flagged
    assert out[:2] == ["only CHANGE 0.7 0.15 0 2 lexell pass None 1e-16",
                       "only PARENT 0.7 0.15 0 1 lexell pass None 1.6653345369377348e-16"]
    assert "residuals lexell moved 0 of 1 worst 2.220446049250313e-16 -> 2.220446049250313e-16" in out


def test_main_exits_by_the_flag(tmp_path, capsys):
    parent, change = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent.write_text("\n".join(PARENT) + "\n", encoding="utf-8")
    change.write_text("\n".join(_changed("exit 0", "exit 2")) + "\n", encoding="utf-8")
    assert main([str(parent), str(parent)]) == 0
    assert main([str(parent), str(change)]) == 1
    assert main([str(parent)]) == 2
    assert "status 0.7 0.15 0 - exit 0 -> 0.7 0.15 0 - exit 2" in capsys.readouterr().out
