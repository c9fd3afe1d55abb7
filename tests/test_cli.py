"""CLI behavior: parsing, exit codes, report shape, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys

import pytest

import hypfeuer

from hypfeuer import cli
from hypfeuer.cli import (
    SUITE_ORDER,
    TRIANGLE_SUITES,
    Scenario,
    format_complex,
    main,
    parse_complex,
    parse_suite,
    parse_triangle,
    run_verify,
)
from hypfeuer.errors import GeometryError
from hypfeuer.geom_core import Triangle
from hypfeuer.instances import instance_rng
from hypfeuer.theorems import InstanceReport, TheoremCheck

EQUILATERAL = "0.25i,-0.21650635094610965-0.125i,0.21650635094610965-0.125i"
# generator output: flag-free, every center and residual defined
CLEAN = ("0.32506745407351645+0.23022248096248019i,"
         "0.3170223209073483+0.02535847931755271i,"
         "0.22968948603848108+0.1333619221629727i")


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


# ----------------------------------------------------------------- parsing

def test_parse_complex_forms():
    assert parse_complex("0.1+0.2i") == 0.1 + 0.2j
    assert parse_complex("-0.3i") == -0.3j
    assert parse_complex("0.5") == 0.5
    assert parse_complex(" 0.1 - 0.2i ") == 0.1 - 0.2j
    with pytest.raises(ValueError):
        parse_complex("0.1+.i.")


def test_format_complex_round_trips():
    for z in (0.1 + 0.2j, -0.3j, 1e-17 + 0.5j, -0.25 - 1e-13j, 0j):
        assert parse_complex(format_complex(z)) == z


def test_parse_triangle():
    assert parse_triangle("0.1,0.2i,-0.3-0.1i") == (0.1, 0.2j, -0.3 - 0.1j)
    with pytest.raises(ValueError):
        parse_triangle("0.1,0.2i")


@pytest.mark.parametrize("command, extra", (
    ("construct", []),
    ("render", []),
    ("render", ["--format", "json"]),
    ("verify", ["--trials", "2", "--suite", "six_point,euler_line"]),
))
@pytest.mark.parametrize("vertices", ("-0.1+0.2i,0.3,0.1i", "-.25i,0.3,0.1i"))
def test_negative_first_vertex_parses_in_both_forms(tmp_path, command, extra, vertices):
    # a value with a leading minus after --triangle is the value, not an
    # option: both forms write the same bytes
    separate = run(tmp_path, command, "--triangle", vertices, *extra, name="separate")
    joined = run(tmp_path, command, f"--triangle={vertices}", *extra, name="joined")
    abbreviated = run(tmp_path, command, "--trian", vertices, *extra, name="abbreviated")
    assert separate[0] == joined[0] == abbreviated[0] == 0
    assert (separate[1].read_bytes() == joined[1].read_bytes()
            == abbreviated[1].read_bytes())


def test_an_option_after_triangle_is_not_taken_as_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--triangle", "--out", "x.json"])
    assert exc.value.code == 2
    assert "--triangle: expected one argument" in capsys.readouterr().err


def test_parse_suite():
    assert parse_suite("all") == SUITE_ORDER
    assert parse_suite("") == ()
    # listed out of registry order, returned in registry order
    assert parse_suite("monge,lexell") == ("lexell", "monge")
    # all names reversed, names repeated, and a list, as a scenario file
    # gives them
    assert parse_suite(",".join(reversed(SUITE_ORDER))) == SUITE_ORDER
    assert parse_suite("monge,lexell,monge,lexell") == ("lexell", "monge")
    assert parse_suite(["monge", "trapezoid", "monge"]) == ("trapezoid", "monge")
    assert parse_suite(list(reversed(SUITE_ORDER))) == SUITE_ORDER
    with pytest.raises(ValueError):
        parse_suite("lexell,nonsense")


# --------------------------------------------------------------- exit codes

def test_verify_passes_exit_zero(tmp_path):
    code, out = run(tmp_path, "verify", "--seed", "7", "--trials", "3",
                    "--suite", "lexell,monge")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0


def test_verify_failing_check_exits_one_and_writes_the_report(tmp_path, monkeypatch):
    # SUITES looks each check up by name when it runs
    monkeypatch.setattr(cli, "check_lexell",
                        lambda a, b, x0: TheoremCheck("lexell", 1.0, 1e-9, "fail", None, {}))
    code, out = run(tmp_path, "verify", "--seed", "7", "--trials", "2",
                    "--suite", "lexell,monge")
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"instances": 2, "passed": 2, "failed": 2, "skipped": 0}
    assert [c["status"] for inst in doc["instances"] for c in inst["checks"]] == [
        "fail", "pass", "fail", "pass"]


def _exit_code(argv) -> int:
    """main's exit code, whether it returns it or the parser raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, scenario, usage, message", [
    pytest.param(["--tol-theorem", "0"], None, True,
                 "error: unrecognized arguments: --tol-theorem 0", id="flag"),
    pytest.param([], {"tolerances": {"theorem": 1e-9}}, False,
                 "unknown scenario keys: ['tolerances']", id="scenario-key"),
])
def test_tolerances_are_not_settable(tmp_path, capsys, argv, scenario, usage, message):
    # the tiers are theorems.TOLERANCES: no flag or scenario key widens one
    if scenario is not None:
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(scenario))
        argv = [*argv, "--scenario", str(scn)]
    out = tmp_path / "out.json"
    assert _exit_code(["verify", "--trials", "1", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (cli._USAGE if usage else "") + f"hypfeuer: {message}\n"
    assert not out.exists()


def test_construct_requires_triangle():
    assert main(["construct"]) == 2


def test_bad_suite_is_usage_error():
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_bad_triangle_string_is_usage_error():
    assert main(["construct", "--triangle", "0.1,0.2"]) == 2


@pytest.mark.parametrize("vertex", ["nan", "inf", "-inf+0.1i", "0.1+nani"])
def test_non_finite_vertex_is_usage_error(vertex, capsys):
    assert main(["construct", f"--triangle={vertex},0.2i,-0.3"]) == 2
    assert "is not finite" in capsys.readouterr().err


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--trials", "1", "--suite", "lexell",
                 "--out", str(out)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["construct", "verify", "render"])
def test_out_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch,
                                                           capsys, command):
    # verify used to run every instance and then fail on open(); construct
    # and render built the whole configuration first
    monkeypatch.setattr(cli, "run_verify", lambda scn: pytest.fail("an instance ran"))
    monkeypatch.setattr(cli, "build_config", lambda tri: pytest.fail("a config was built"))
    assert main([command, "--triangle", EQUILATERAL, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("hypfeuer: ") and "is a directory" in line


# three vertices 1e-11 from the absolute: the pseudolength of the first
# and the last rounds to 1, where an atanh distance raised ValueError
NEAR_ABSOLUTE = ("0.99999999999+0i,0.9999500003866668+0.0099998333338666701i,"
                 "0.9998000066565798+0.019998666693133094i")


# every pseudoaltitude foot lies past the ideal endpoints of its side,
# so that family has no meet to test: the bracket failures name the
# cause, and no divergent_pseudoaltitude_cevians joins them
NEAR_ABSOLUTE_FLAGS = [
    "bracket_failure_pseudoaltitude_a", "bracket_failure_pseudoaltitude_b",
    "bracket_failure_pseudoaltitude_c", "excircle_absent_a", "excircle_absent_b",
    "excircle_absent_c", "no_circumcenter"]


# a default-box triangle (angles 0.18, 1.34, 1.56) whose excircle beyond
# c has a radius of 18.2 and its center 1.6e-8 from the absolute: the
# circle built about that center reads back as no circle inside the
# disk, and build_config's NoHyperbolicCenter dropped the whole report
EXCIRCLE_AT_ABSOLUTE = ("0.00754135787199182+0.24422238716788483i,"
                        "0.33655395954338063+0.047398426634263933i,"
                        "0.29130752027845513-0.010150638205610157i")


def test_an_excircle_centered_at_the_absolute_is_absent_with_its_cause(tmp_path):
    code, out = run(tmp_path, "verify", "--trials", "1", "--triangle", EXCIRCLE_AT_ABSOLUTE)
    assert code == 0
    (instance,) = json.loads(out.read_text())["instances"]
    assert instance["flags"] == ["excircle_center_at_absolute_c"]
    statuses = {check["name"]: check["status"] for check in instance["checks"]}
    assert set(statuses) == set(cli.SUITES)
    assert statuses.pop("feuerbach_point") == "skipped"
    assert set(statuses.values()) == {"pass"}


# a well-shaped default-box triangle (angles 0.33, 1.29, 1.40, no vertex
# past |z| = 0.38) with one excircle of radius 7.2: its contact on the
# Euler circle, taken from the excircle's own center, failed
# feuerbach_point at 1.55e-8 against 1e-8
LARGE_EXCIRCLE = "0.194399+0.014822i,-0.048856-0.309591i,0.075706-0.370804i"


def test_feuerbach_point_passes_with_a_large_excircle(tmp_path):
    code, out = run(tmp_path, "verify", "--trials", "1", "--suite", "feuerbach_point",
                    "--triangle", LARGE_EXCIRCLE)
    assert code == 0
    (check,) = json.loads(out.read_text())["instances"][0]["checks"]
    assert check["status"] == "pass"
    assert check["residual"] < 1e-12


# verify --seed 2 in the 0.25 box at min_angle 0, index 48: angles 3.140,
# 1.2e-3 and 2.2e-4, incircle radius 2.7e-5.  feuerbach passes at 6.25e-9
# against 1e-8; a tangent circle built from its unit center vector
# (ROADMAP Direction 27) failed here at 1.45e-7, and at 3.35e-8 with
# O_t - 1 taken as |O_xy|^2 / (O_t + 1)
SMALL_INCIRCLE_NEEDLE = ("0.14685002411677758-0.02239644526927447i,"
                         "0.15992579537564144-0.0050161235074047536i,"
                         "0.07653321667864287-0.11995738168638224i")


def test_feuerbach_passes_on_a_needle_with_a_tiny_incircle(tmp_path):
    code, out = run(tmp_path, "verify", "--trials", "1", "--suite", "feuerbach",
                    "--triangle", SMALL_INCIRCLE_NEEDLE)
    assert code == 0
    (check,) = json.loads(out.read_text())["instances"][0]["checks"]
    assert check["status"] == "pass"


# legal triangles on which a check still fails (Known defects in the
# ROADMAP): each is a strict xfail until its fix lands, when it has to
# become a plain test
STANDING_DEFECTS = [
    # the pseudo-orthocenter 4.1e-8 from the absolute: 3.72e-8 against 1e-10
    ("euler_ratios", "0.058799077200604476-0.12063727037229602i,"
                     "0.27320543611563475-0.4423040328857567i,"
                     "0.21884483862800214-0.6174596394939562i"),
    # a circumcircle of radius 11.2, nearly a horocycle: 2.15e-7 against 1e-8
    ("tangent_cevians", "-0.1724331744428443-0.05356161699188889i,"
                        "-0.1387141011453771-0.4639054084286683i,"
                        "0.11274772482670661+0.2907372740468018i"),
    # an excircle of radius 18.3: 5.78e-8 against 1e-8
    ("feuerbach", "-0.2248893041322933+0.01313044506039568i,"
                  "-0.3739771198879941+0.4623711770384866i,"
                  "0.4535217194953038+0.2490905540904904i"),
    # sides 2.6e-5 to 5.9e-5: 7.38e-5 against 1e-9
    ("six_point", "0.026190463499476183-0.1695342808424821i,"
                  "0.026169744360966814-0.1695538266059877i,"
                  "0.026183281750321166-0.16954456629002632i"),
]


@pytest.mark.xfail(strict=True, reason="a Known defect in the ROADMAP")
@pytest.mark.parametrize("suite, triangle", STANDING_DEFECTS,
                         ids=[suite for suite, _ in STANDING_DEFECTS])
def test_standing_defect_passes(tmp_path, suite, triangle):
    code, out = run(tmp_path, "verify", "--trials", "1", "--suite", suite,
                    "--triangle", triangle)
    (check,) = json.loads(out.read_text())["instances"][0]["checks"]
    assert check["status"] == "pass"
    assert code == 0


@pytest.mark.parametrize("argv", [["construct"], ["verify", "--trials", "1"]])
def test_vertices_next_to_the_absolute_run(tmp_path, argv):
    code, out = run(tmp_path, *argv, "--triangle", NEAR_ABSOLUTE)
    assert code == 0
    doc = json.loads(out.read_text())
    flags = doc["flags"] if argv[0] == "construct" else doc["instances"][0]["flags"]
    assert flags == NEAR_ABSOLUTE_FLAGS


def test_collinear_triangle_is_geometry_error(tmp_path, capsys):
    # Triangle.of refuses it when the scenario is read: a usage error
    code, out = run(tmp_path, "construct", "--triangle", "0.1,0.3,-0.2")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "hypfeuer: triangle refused: DegenerateTriangle: area below 1e-12\n"


def test_vertex_on_the_absolute_is_a_usage_error(capsys):
    assert main(["verify", "--trials", "1", "--triangle", "1.0,0.2,0.3i"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "hypfeuer: triangle refused: BoundaryPoint: |z| = 1 exceeds 1 - 1e-12\n"


# two vertices 1.7e-7 apart near the absolute: side c's normal has a
# Minkowski norm of -1.1e-22 after rounding
NO_SIDE_NORMAL = ("-0.9619733647646681+0.27314326912185483i,"
                  "-0.9619732086979204+0.27314333063579238i,"
                  "-0.3174097822723469-0.94450777324474389i")


@pytest.mark.parametrize("argv", [["construct"], ["render"], ["verify", "--trials", "1"]])
def test_side_without_a_spacelike_normal_is_geometry_error(argv, capsys):
    assert main([*argv, "--triangle", NO_SIDE_NORMAL]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypfeuer: DegenerateTriangle: ") and err.count("\n") == 1


# the skips of a check that meets a circle it cannot read: the incircle
# of the first has radius 2.4e-8, so |B|^2 - AC of its coefficients is 0;
# the second's circle shot into the angle at a is not inside the disk
UNREADABLE_CIRCLES = [
    ("0.3003697556991018+0.82781556857799565i,0.30036975570223623+0.82781557140890916i,"
     "0.6069991598879024+0.58576830286120019i", "feuerbach", "degenerate_circle"),
    ("0.5729893941744507+0.258539621891759i,0.5729893952855294+0.25855189853417992i,"
     "0.019978137257142422-0.050524327994086349i", "tangent_cevians",
     "tangent_circle_outside_disk_a"),
]


@pytest.mark.parametrize("triangle, name, flag", UNREADABLE_CIRCLES,
                         ids=["feuerbach", "tangent_cevians"])
def test_unreadable_circle_skips_its_check_and_the_report_is_written(
        tmp_path, triangle, name, flag):
    # both exit 1: six_point fails on these near-absolute slivers, the
    # position-dependent precision defect
    code, out = run(tmp_path, "verify", "--trials", "1", "--suite", "all",
                    "--triangle", triangle)
    assert code in (0, 1)
    checks = json.loads(out.read_text())["instances"][0]["checks"]
    assert [c["name"] for c in checks] == list(SUITE_ORDER)
    (check,) = [c for c in checks if c["name"] == name]
    assert (check["status"], check["flag"]) == ("skipped", flag)


def test_svg_format_outside_render_is_usage_error():
    assert main(["verify", "--format", "svg"]) == 2


def test_negative_trials_is_usage_error():
    assert main(["verify", "--trials", "-1"]) == 2


@pytest.mark.parametrize("command", ["render", "verify", "construct"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # Random(n) seeds with |n|: seed -3 drew exactly what seed 3 draws
    assert main([command, "--seed", "-3", "--triangle", EQUILATERAL]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"seed": -3}))
    assert main([command, "--scenario", str(scn)]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    # the boundary stays valid
    code, _ = run(tmp_path, command, "--seed", "0", "--trials", "1",
                  "--triangle", EQUILATERAL)
    assert code == 0


def _replace_suite(monkeypatch, name, check):
    purpose, _ = cli.SUITES[name]
    monkeypatch.setitem(cli.SUITES, name, (purpose, lambda source, index: check))


def test_infinite_residual_is_refused_not_written(tmp_path, monkeypatch, capsys):
    _replace_suite(monkeypatch, "lexell",
                   TheoremCheck("lexell", math.inf, 1e-9, "fail", None, {}))
    code, out = run(tmp_path, "verify", "--trials", "2", "--suite", "lexell")
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hypfeuer: non-finite number inf at "
                            "instances[0].checks[0].residual cannot be written as JSON\n")


def test_nan_witness_is_refused_not_written(monkeypatch, capsys):
    _replace_suite(monkeypatch, "monge",
                   TheoremCheck("monge", 0.0, 1e-9, "pass", None, {"gap": math.nan}))
    assert main(["verify", "--trials", "1", "--suite", "lexell,monge"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("hypfeuer: non-finite number nan at "
                                   "instances[0].checks[1].witness.gap ")
    assert "Traceback" not in captured.err


def test_zero_trials_empty_report(tmp_path):
    code, out = run(tmp_path, "verify", "--trials", "0")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["instances"] == 0
    assert doc["instances"] == []


# ------------------------------------------------------------ block order

def _one_at_a_time(scn: Scenario) -> list[InstanceReport]:
    """scn's instances, each run whole before the next: the order that
    run_verify's blocks must not show."""
    asked = set(scn.suite)
    instances = []
    for index in range(scn.trials):
        instance, flags, cfg = {}, [], None
        if asked & TRIANGLE_SUITES:
            tri, resamples = cli._triangle(scn, index)
            cfg = cli.build_config(tri, bool(asked & cli.PENCIL_SUITES))
            instance = {"triangle": {"a": tri.a, "b": tri.b, "c": tri.c},
                        "resamples": resamples}
            flags = list(cfg.flags)
        checks = []
        for name in scn.suite:
            src, call = cli.SUITES[name]
            source = cfg if name in TRIANGLE_SUITES else instance_rng(scn.seed, index, src)
            checks.append(call(source, index))
        instances.append(InstanceReport(index, instance, flags, checks))
    return instances


@pytest.mark.parametrize("scn", [
    # two whole blocks and a partial one
    Scenario(seed=0, trials=2 * cli.BLOCK + 3),
    Scenario(seed=0, trials=40, suite=("feuerbach", "tangent_cevians", "feuerbach_point"),
             max_vertex_radius=0.25),
], ids=["all", "contact"])
def test_blocks_write_the_bytes_of_one_instance_at_a_time(scn):
    report = run_verify(scn)
    expected = report.replace(instances=_one_at_a_time(scn))
    assert cli.report_json(report) == cli.report_json(expected)


@pytest.mark.parametrize("trials, suite_at, build_at", [
    (5, 1, 2),
    (5, 2, 1),
    (5, 3, 3),
    (70, 33, 35),
    (70, 35, 33),
])
def test_blocks_raise_the_error_of_one_instance_at_a_time(monkeypatch, trials,
                                                          suite_at, build_at):
    # build_config sees the instances in index order in either loop, so
    # its call count is the index
    calls = itertools.count()
    build_config = cli.build_config

    def build_raising(tri, pencils=True):
        index = next(calls)
        if index == build_at:
            raise GeometryError(f"build_config at {index}")
        return build_config(tri, pencils)

    src, lexell = cli.SUITES["lexell"]

    def lexell_raising(rng, index):
        if index == suite_at:
            raise GeometryError(f"lexell at {index}")
        return lexell(rng, index)

    monkeypatch.setattr(cli, "build_config", build_raising)
    monkeypatch.setitem(cli.SUITES, "lexell", (src, lexell_raising))
    scn = Scenario(seed=3, trials=trials)
    with pytest.raises(GeometryError) as expected:
        _one_at_a_time(scn)
    calls = itertools.count()
    with pytest.raises(GeometryError) as got:
        run_verify(scn)
    first = min(suite_at, build_at)
    assert str(expected.value) == (f"build_config at {first}" if build_at == first
                                   else f"lexell at {first}")
    assert str(got.value) == str(expected.value)


# ------------------------------------------------------------------ reports

def test_report_summary_matches_instances(tmp_path):
    code, out = run(tmp_path, "verify", "--seed", "11", "--trials", "4")
    assert code == 0
    doc = json.loads(out.read_text())
    statuses = [c["status"] for inst in doc["instances"] for c in inst["checks"]]
    assert doc["summary"]["instances"] == 4
    assert doc["summary"]["passed"] == statuses.count("pass")
    assert doc["summary"]["skipped"] == statuses.count("skipped")
    assert doc["params"]["suite"] == list(SUITE_ORDER)


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_suite_subset_shapes_instances(tmp_path, suite):
    _, out = run(tmp_path, "verify", "--seed", "11", "--trials", "3",
                 "--suite", suite)
    doc = json.loads(out.read_text())
    for inst in doc["instances"]:
        assert [c["name"] for c in inst["checks"]] == [suite]
        assert ("triangle" in inst["instance"]) == (suite in TRIANGLE_SUITES)


def test_verify_deterministic_bytes(tmp_path):
    argv = ["verify", "--seed", "7", "--trials", "4",
            "--suite", "six_point,euler_line,radical_axis"]
    _, out1 = run(tmp_path, *argv, name="a.json")
    _, out2 = run(tmp_path, *argv, name="b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_triangle_suites_share_one_draw(tmp_path):
    # the same per-index triangle regardless of which suites run
    _, out1 = run(tmp_path, "verify", "--seed", "5", "--trials", "2",
                  "--suite", "six_point", name="one.json")
    _, out2 = run(tmp_path, "verify", "--seed", "5", "--trials", "2",
                  "--suite", "feuerbach,euler_line", name="two.json")
    doc1 = json.loads(out1.read_text())
    doc2 = json.loads(out2.read_text())
    for i1, i2 in zip(doc1["instances"], doc2["instances"]):
        assert i1["instance"]["triangle"] == i2["instance"]["triangle"]


# every witness key a suite reports; a gap that no status reads shows
# nothing, so each `*_gap` witness is part of its check's residual
WITNESS_KEYS = {
    "inscribed_angle": {"samples", "sigma", "center_angle_gap"},
    "trapezoid": {"area_gap", "angle_gap"},
    "lexell": {"area", "samples"},
    "six_point": {"membership", "radius_gap"},
    "euler_line": {"anchor", "radius_gap"},
    "euler_ratios": {"ratio", "product"},
    "feuerbach": {"incircle", "excircle_a", "excircle_b", "excircle_c"},
    "radical_axis": {"samples", "power_checked"},
    "monge": {"ppp", "pnn", "npn", "nnp"},
    "tangent_cevians": {"point", "tangency_gap"},
    "feuerbach_point": {"point"},
}


def test_witness_keys_are_pinned_and_every_gap_is_in_the_residual(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "all", "--trials", "50",
                    "--seed", "0")
    assert code == 0
    seen = {name: set() for name in SUITE_ORDER}
    for inst in json.loads(out.read_text())["instances"]:
        for c in inst["checks"]:
            seen[c["name"]].update(c["witness"])
            for key, value in c["witness"].items():
                if key.endswith("_gap") and isinstance(value, (int, float)):
                    assert value <= c["residual"], (inst["index"], c["name"], key)
    assert seen == WITNESS_KEYS


# ---------------------------------------------------------------- construct

def test_construct_equilateral_centers_coincide(tmp_path):
    code, out = run(tmp_path, "construct", "--triangle", EQUILATERAL)
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("circumcenter", "euler_center", "bisector_point",
                "pseudo_orthocenter"):
        assert abs(parse_complex(doc[key])) < 1e-9, key
    assert abs(parse_complex(doc["incircle"]["center"])) < 1e-9
    assert doc["flags"] == []


def test_construct_round_trip_is_stable(tmp_path):
    _, out1 = run(tmp_path, "construct", "--triangle", CLEAN, name="first.json")
    doc = json.loads(out1.read_text())
    tri = doc["triangle"]
    again = ",".join(tri[v] for v in "abc")
    _, out2 = run(tmp_path, "construct", "--triangle", again, name="second.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_construct_membership_residuals_small(tmp_path):
    _, out = run(tmp_path, "construct", "--triangle", CLEAN)
    doc = json.loads(out.read_text())
    assert doc["flags"] == []
    assert max(doc["euler_membership"].values()) < 1e-10
    assert doc["bisector_residual"] < 1e-10
    assert doc["orthocenter_residual"] < 1e-10


# ----------------------------------------------------------------- scenario

def test_scenario_file_with_flag_override(tmp_path):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"seed": 3, "trials": 4, "suite": "lexell"}))
    code, out = run(tmp_path, "verify", "--scenario", str(scn), "--trials", "2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 3
    assert doc["summary"]["instances"] == 2
    assert doc["params"]["suite"] == ["lexell"]


def test_scenario_unknown_key_is_usage_error(tmp_path):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"seed": 3, "bogus": 1}))
    assert main(["verify", "--scenario", str(scn)]) == 2


def test_scenario_missing_file_is_usage_error(tmp_path):
    assert main(["verify", "--scenario", str(tmp_path / "absent.json")]) == 2


# ------------------------------------------------------------------- parser

FLAGS = ("--seed", "--trials", "--suite", "--triangle", "--out", "--format", "--scenario")


def _flag_cases(tmp_path) -> dict:
    """flag -> (its value, the Scenario fields it sets)."""
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"seed": 4}))
    out = str(tmp_path / "out.json")
    return {
        "--seed": ("5", {"seed": 5}),
        "--trials": ("3", {"trials": 3}),
        "--suite": ("monge,lexell", {"suite": ("lexell", "monge")}),
        "--triangle": (EQUILATERAL, {"triangle": Triangle.of(*parse_triangle(EQUILATERAL))}),
        "--out": (out, {"out": out}),
        "--format": ("json", {}),
        "--scenario": (str(scn), {"seed": 4}),
    }


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("command", ["construct", "verify", "render"])
def test_every_command_takes_every_flag_in_both_forms(tmp_path, command, flag):
    value, fields = _flag_cases(tmp_path)[flag]
    expected = Scenario().replace(**fields)
    for argv in ([command, flag, value], [command, f"{flag}={value}"]):
        args = cli.build_parser().parse_args(argv)
        assert args.command == command
        assert args.format == (value if flag == "--format" else None)
        assert cli.scenario_from_args(args) == expected


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_missing_or_unknown_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hypfeuer ")


# ------------------------------------------------------------------- render

def test_render_svg_output(tmp_path):
    code, out = run(tmp_path, "render", "--triangle", EQUILATERAL,
                    name="fig.svg")
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert 'id="euler-circle"' in text


def test_render_json_format_matches_construct(tmp_path):
    _, svg_out = run(tmp_path, "render", "--triangle", EQUILATERAL,
                     "--format", "json", name="cfg.json")
    _, con_out = run(tmp_path, "construct", "--triangle", EQUILATERAL,
                     name="con.json")
    assert svg_out.read_bytes() == con_out.read_bytes()


def test_render_seeded_without_triangle(tmp_path):
    code, out = run(tmp_path, "render", "--seed", "2", name="fig.svg")
    assert code == 0
    assert out.read_text().startswith("<svg ")


# ------------------------------------------------------- running as a program

# the directory holding the hypfeuer package, for child interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hypfeuer.__file__)))

# installs an import hook that refuses scipy, then runs the CLI
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from hypfeuer.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _child(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_feuerbach_point_runs_without_scipy():
    # a small triangle with all three excircles, so the check really runs
    proc = _child("-c", WITHOUT_SCIPY, "verify", "--suite=feuerbach_point",
                  "--triangle=0.156-0.075i,-0.117-0.181i,-0.047+0.085i",
                  "--trials=1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (check,) = doc["instances"][0]["checks"]
    assert check["name"] == "feuerbach_point"
    assert check["status"] == "pass"


def test_python_dash_m_runs_without_warning():
    proc = _child("-m", "hypfeuer", "verify", "--suite", "lexell",
                  "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["passed"] == 1
    assert "Warning" not in proc.stderr


def _readme_usage() -> list[str]:
    """The lines of the README's fenced block that starts with usage:."""
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text[text.index("```\nusage: hypfeuer ") + 4:]
    return block[:block.index("```")].splitlines()


def test_help_names_every_command():
    proc = _child("-m", "hypfeuer", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name in ("construct", "verify", "render", *FLAGS):
        assert name in proc.stdout
    # the usage lines run to the first blank line
    usage = proc.stdout[:proc.stdout.index("\n\n")].splitlines()
    assert usage[0].startswith("usage: hypfeuer ")
    assert usage == _readme_usage()


# a child process, so that a scenario the sampler can never satisfy fails
# the test at the timeout instead of hanging the suite
@pytest.mark.parametrize("content, message", [
    ("3", "must hold a JSON object"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"min_angle": 1.1}', "min_angle must lie in [0, pi/3)"),
    ('{"max_vertex_radius": 0}', "max_vertex_radius must lie in (0, 1)"),
    ('{"suite": 3}', "scenario key 'suite' must be a string or a list, got 3"),
    ('{"seed": null}', "scenario key 'seed' must be an integer, got null"),
    # JSON integers have no range; 10**400 has no float
    pytest.param('{"max_vertex_radius": 1%s}' % ("0" * 400),
                 "int too large to convert to float", id="max_vertex_radius-10**400"),
    # in range, but no draw meets them: the sampler's cap ends the search
    ('{"min_angle": 1.04}', "no triangle with min_angle 1.04 inside"),
    ('{"max_vertex_radius": 1e-9}', "inside max_vertex_radius 1e-09"),
    # the decoder recurses once per level and ran out of stack
    pytest.param("[" * 100000 + "]" * 100000, "scenario file nests too deeply",
                 id="nested-100000"),
])
def test_bad_scenario_is_usage_error(tmp_path, content, message):
    scn = tmp_path / "scn.json"
    scn.write_text(content)
    proc = _child("-m", "hypfeuer", "verify", "--scenario", str(scn),
                  "--trials", "1", timeout=30)
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("hypfeuer: ")
    assert message in line
    assert proc.stdout == ""


def test_monge_leaves_the_check_stream_to_tangent_cevians(tmp_path):
    # neither check draws random numbers, so whether monge runs cannot
    # move what tangent_cevians reports
    def tangent_checks(suite):
        code, out = run(tmp_path, "verify", "--seed", "0", "--trials", "20",
                        "--suite", suite, name=f"{suite}.json")
        assert code == 0
        doc = json.loads(out.read_text())
        return [c for inst in doc["instances"] for c in inst["checks"]
                if c["name"] == "tangent_cevians"]

    alone = tangent_checks("tangent_cevians")
    assert "tangency_gap" in alone[0]["witness"]
    assert tangent_checks("monge,tangent_cevians") == alone


@pytest.mark.parametrize("seed", [0, 1])
def test_radical_axis_passes_at_default_tolerance(tmp_path, seed):
    # seed 0 index 69 and seed 1 index 228 failed while the residual was
    # an absolute difference of powers, which reach hundreds near the
    # absolute
    code, _ = run(tmp_path, "verify", "--suite", "radical_axis", "--trials", "250",
                  "--seed", str(seed))
    assert code == 0


def test_monge_residuals_stay_at_rounding_level():
    # homothetic centers placed by the ratio law stay exact to rounding;
    # an earlier construction in a random frame reached 9.6e-12 (seed 5,
    # index 104)
    worst = 0.0
    for seed in range(6):
        report = run_verify(Scenario(seed=seed, trials=200, suite=("monge",)))
        worst = max([worst] + [c.residual for inst in report.instances
                               for c in inst.checks if c.residual is not None])
    assert worst < 1e-12


# status counts of `verify --suite all --trials 200 --seed 0`, per suite
# (pass, fail, skipped), and the skipped checks per (suite, flag); a
# rewrite of a construction kernel must leave every one of them as is
DEFAULT_BOX_STATUS = {
    "inscribed_angle": (200, 0, 0),
    "trapezoid": (200, 0, 0),
    "lexell": (200, 0, 0),
    "six_point": (200, 0, 0),
    "euler_line": (165, 0, 35),
    "euler_ratios": (167, 0, 33),
    "feuerbach": (200, 0, 0),
    "radical_axis": (179, 0, 21),
    "monge": (200, 0, 0),
    "tangent_cevians": (179, 0, 21),
    "feuerbach_point": (6, 0, 194),
}
DEFAULT_BOX_SKIPS = {
    ("euler_line", "center_undefined"): 35,
    ("euler_ratios", "cevian_degeneracy"): 33,
    ("feuerbach_point", "contact_points_missing"): 194,
    ("radical_axis", "axis_outside_disk"): 21,
    ("tangent_cevians", "target_not_circle"): 21,
}
# the same with --scenario bench/contact_chain.json (vertices in a 0.25 box)
CONTACT_CHAIN_STATUS = {
    **DEFAULT_BOX_STATUS,
    "euler_line": (189, 0, 11),
    "euler_ratios": (189, 0, 11),
    "tangent_cevians": (200, 0, 0),
    "feuerbach_point": (119, 0, 81),
}
CONTACT_CHAIN_SKIPS = {
    ("euler_line", "center_undefined"): 11,
    ("euler_ratios", "cevian_degeneracy"): 11,
    ("feuerbach_point", "contact_points_missing"): 81,
    ("radical_axis", "axis_outside_disk"): 21,
}
# the instances carrying each configuration flag, per box: the pencils
# decide divergent_*, the vertex sums excircle_absent_*
DEFAULT_BOX_FLAGS = {
    "divergent_pseudoaltitude_cevians": 33,
    "excircle_absent_a": 136,
    "excircle_absent_b": 152,
    "excircle_absent_c": 144,
    "no_circumcenter": 21,
}
CONTACT_CHAIN_FLAGS = {
    "divergent_pseudoaltitude_cevians": 11,
    "excircle_absent_a": 25,
    "excircle_absent_b": 31,
    "excircle_absent_c": 25,
}
CONTACT_CHAIN_SCENARIO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "contact_chain.json")


@pytest.mark.parametrize("extra, status, skips, flags", [
    ([], DEFAULT_BOX_STATUS, DEFAULT_BOX_SKIPS, DEFAULT_BOX_FLAGS),
    (["--scenario", CONTACT_CHAIN_SCENARIO], CONTACT_CHAIN_STATUS, CONTACT_CHAIN_SKIPS,
     CONTACT_CHAIN_FLAGS),
], ids=["default_box", "contact_chain"])
def test_verify_all_status_counts_are_pinned(tmp_path, extra, status, skips, flags):
    code, out = run(tmp_path, "verify", "--suite", "all", "--trials", "200",
                    "--seed", "0", *extra)
    assert code == 0
    got_status: dict = {}
    got_skips: dict = {}
    got_flags: dict = {}
    for inst in json.loads(out.read_text())["instances"]:
        for flag in inst["flags"]:
            got_flags[flag] = got_flags.get(flag, 0) + 1
        for check in inst["checks"]:
            row = got_status.setdefault(check["name"], [0, 0, 0])
            row[("pass", "fail", "skipped").index(check["status"])] += 1
            if check["status"] == "skipped":
                key = (check["name"], check["flag"])
                got_skips[key] = got_skips.get(key, 0) + 1
    assert {k: tuple(v) for k, v in got_status.items()} == status
    assert got_skips == skips
    assert got_flags == flags
