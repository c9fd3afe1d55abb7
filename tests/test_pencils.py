"""The cevian pencils are solved where they are read.

A configuration (`build_config`) holds no cevian pencil, so it is the
same object, with the same flags, whatever suites verify is asked for.
`cevians.cevian_pencils` solves both pencils, the bisector point M and
the pseudo-orthocenter H with their residuals, for its four readers:
euler_line and euler_ratios, which skip under the divergent_* flag of a
pencil whose cevians do not meet, and construct and render, which print
and draw M and H.  These tests check that no other triangle suite
solves a pencil, that each Euler check solves each pencil once, and
where a diverging pencil is named.
"""

import json

import pytest

from hypfeuer import cevians, theorems
from hypfeuer.cevians import build_config, cevian_pencils
from hypfeuer.cli import SUITES, TRIANGLE_SUITES, format_complex, main
from hypfeuer.instances import (
    DEFAULT_MAX_VERTEX_RADIUS,
    DEFAULT_MIN_ANGLE,
    PURPOSE_TRIANGLE,
    instance_rng,
    random_triangle,
)

# (box, min_angle) of the drawn triangles, seeds 0-1 x 200 in each
SCENARIOS = ((DEFAULT_MAX_VERTEX_RADIUS, DEFAULT_MIN_ANGLE), (0.25, DEFAULT_MIN_ANGLE),
             (DEFAULT_MAX_VERTEX_RADIUS, 0.0))
PER_SEED = 200

# the suites whose checks solve the cevian pencils
EULER_SUITES = frozenset({"euler_line", "euler_ratios"})

DIVERGENT = "divergent_pseudoaltitude_cevians"


def _drawn_configs():
    for box, min_angle in SCENARIOS:
        for seed in (0, 1):
            for index in range(PER_SEED):
                tri, _ = random_triangle(instance_rng(seed, index, PURPOSE_TRIANGLE),
                                         box, min_angle)
                yield build_config(tri)


@pytest.fixture(scope="module")
def solves():
    """suite -> how many times its check solved the pencils
    (cevian_pencils) on each drawn triangle."""
    got = {name: [] for name in TRIANGLE_SUITES}
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return cevian_pencils(cfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theorems, "cevian_pencils", counted)
        for cfg in _drawn_configs():
            for name in TRIANGLE_SUITES:
                calls.clear()
                SUITES[name][1](cfg)
                got[name].append(len(calls))
    return got


def test_the_pencil_suites_are_the_euler_suites(solves):
    assert {name for name, counts in solves.items() if any(counts)} == EULER_SUITES
    assert EULER_SUITES < TRIANGLE_SUITES


@pytest.mark.parametrize("suite", sorted(TRIANGLE_SUITES - EULER_SUITES))
def test_a_suite_outside_the_pencil_set_reads_no_pencil(solves, suite):
    assert solves[suite] == [0] * (len(SCENARIOS) * 2 * PER_SEED)


@pytest.mark.parametrize("suite", sorted(EULER_SUITES))
def test_a_suite_inside_the_pencil_set_reads_a_pencil(solves, suite):
    # one solve of both pencils per check, whatever it skips on
    assert solves[suite] == [1] * (len(SCENARIOS) * 2 * PER_SEED)


def _divergent_triangle():
    # index 7 of seed 0 in the default box: the pseudoaltitudes do not meet
    tri, _ = random_triangle(instance_rng(0, 7, PURPOSE_TRIANGLE),
                             DEFAULT_MAX_VERTEX_RADIUS, DEFAULT_MIN_ANGLE)
    assert not tri.swapped
    return tri


def test_a_pencil_free_configuration_holds_no_pencil():
    cfg = build_config(_divergent_triangle())
    assert not {"bisector_normals", "pseudoaltitude_normals", "bisector_point",
                "pseudo_orthocenter"} & set(type(cfg).__slots__)
    assert not [f for f in cfg.flags if f.startswith("divergent_")]
    pencils = cevian_pencils(cfg)
    normals, point, residual, flag = pencils["pseudoaltitude"]
    assert len(normals) == 3 and (point, residual, flag) == (None, None, DIVERGENT)
    assert pencils["bisector"][1] is not None and pencils["bisector"][3] is None


@pytest.mark.parametrize("argv, per_call", [
    (["verify", "--seed", "3", "--trials", "4", "--suite", "euler_ratios"], 8),
    (["verify", "--seed", "3", "--trials", "4", "--suite", "euler_line,euler_ratios"], 16),
    (["verify", "--seed", "3", "--trials", "4", "--suite", "six_point,feuerbach"], 0),
    (["construct", "--triangle", "0.1+0.1i,0.5,0.3i"], 2),
], ids=["euler_ratios", "euler_line,euler_ratios", "six_point,feuerbach", "construct"])
def test_each_reader_solves_each_pencil_once(monkeypatch, capsys, argv, per_call):
    # tangent_cevians and feuerbach_point solve pencils of their own
    calls = []
    concurrency = cevians.concurrency_point

    def counted(normals):
        calls.append(normals)
        return concurrency(normals)

    monkeypatch.setattr(cevians, "concurrency_point", counted)
    main(argv)
    capsys.readouterr()
    assert len(calls) == per_call


def _doc(capsys, *argv):
    main(list(argv))
    return json.loads(capsys.readouterr().out)


def test_instance_flags_are_the_triangles_whatever_is_asked(capsys):
    tri = _divergent_triangle()
    given = ",".join(format_complex(z) for z in (tri.a, tri.b, tri.c))
    one = _doc(capsys, "verify", "--trials", "1", "--suite", "feuerbach", "--triangle", given)
    every = _doc(capsys, "verify", "--trials", "1", "--suite", "all", "--triangle", given)
    flags = one["instances"][0]["flags"]
    assert every["instances"][0]["flags"] == flags
    assert not [f for f in flags if f.startswith("divergent_")]
    skips = {c["name"]: (c["status"], c["flag"]) for c in every["instances"][0]["checks"]}
    assert skips["euler_line"] == skips["euler_ratios"] == ("skipped", DIVERGENT)
    assert DIVERGENT in _doc(capsys, "construct", "--triangle", given)["flags"]
