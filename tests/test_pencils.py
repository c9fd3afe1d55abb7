"""The cevian pencils are built only for the suites that read them.

`cli.SUITES` marks each triangle suite CONFIG or PENCILS, and verify
builds the pencils (`build_config`'s pencils) only when an asked suite is
a PENCILS one.  These tests check the registry's mark against the
checks themselves: every CONFIG suite gives the same result on a
configuration without the pencils, and every PENCILS suite does not.
"""

import json

import pytest

from hypfeuer import cevians
from hypfeuer.cevians import build_config
from hypfeuer.cli import PENCIL_SUITES, SUITES, TRIANGLE_SUITES, format_complex, main
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

DIVERGENT = "divergent_pseudoaltitude_cevians"


def _drawn_pairs():
    """(index, full configuration, pencil-free one) of every drawn triangle."""
    for box, min_angle in SCENARIOS:
        for seed in (0, 1):
            for index in range(PER_SEED):
                tri, _ = random_triangle(instance_rng(seed, index, PURPOSE_TRIANGLE),
                                         box, min_angle)
                yield index, build_config(tri), build_config(tri, pencils=False)


@pytest.fixture(scope="module")
def outcomes():
    """suite -> the (full, pencil-free) checks of every drawn triangle."""
    got = {name: [] for name in TRIANGLE_SUITES}
    for index, full, bare in _drawn_pairs():
        for name in TRIANGLE_SUITES:
            call = SUITES[name][1]
            got[name].append((call(full, index), call(bare, index)))
    return got


def test_the_pencil_suites_are_the_euler_suites():
    assert PENCIL_SUITES == {"six_point", "euler_line", "euler_ratios"}
    assert PENCIL_SUITES < TRIANGLE_SUITES


@pytest.mark.parametrize("suite", sorted(TRIANGLE_SUITES - PENCIL_SUITES))
def test_a_suite_outside_the_pencil_set_reads_no_pencil(outcomes, suite):
    assert len(outcomes[suite]) == len(SCENARIOS) * 2 * PER_SEED
    for full, bare in outcomes[suite]:
        assert full == bare


@pytest.mark.parametrize("suite", sorted(PENCIL_SUITES))
def test_a_suite_inside_the_pencil_set_reads_a_pencil(outcomes, suite):
    assert any(full != bare or bare.status == "skipped" for full, bare in outcomes[suite])


def test_a_pencil_free_configuration_holds_no_pencil():
    tri, _ = random_triangle(instance_rng(0, 7, PURPOSE_TRIANGLE),
                             DEFAULT_MAX_VERTEX_RADIUS, DEFAULT_MIN_ANGLE)
    full, bare = build_config(tri), build_config(tri, pencils=False)
    assert DIVERGENT in full.flags and full.euler_membership
    pencils = ("euler_membership", "bisector_normals", "pseudoaltitude_normals",
               "bisector_point", "bisector_residual", "pseudo_orthocenter",
               "orthocenter_residual")
    assert [getattr(bare, n) for n in pencils] == [{}, {}, {}, None, None, None, None]
    assert bare.flags == [f for f in full.flags if not f.startswith("divergent_")]
    for name in type(full).__slots__:
        if name not in pencils and name != "flags":
            assert getattr(bare, name) == getattr(full, name), name


@pytest.mark.parametrize("suite, per_instance", [
    ("feuerbach,tangent_cevians,feuerbach_point", 0),
    ("euler_line", 2),
    ("all", 2),
])
def test_verify_runs_the_concurrency_points_only_for_a_pencil_suite(
        monkeypatch, capsys, suite, per_instance):
    calls = []
    concurrency = cevians._concurrency

    def counted(*args):
        calls.append(args)
        return concurrency(*args)

    monkeypatch.setattr(cevians, "_concurrency", counted)
    main(["verify", "--seed", "3", "--trials", "4", "--suite", suite])
    capsys.readouterr()
    assert len(calls) == 4 * per_instance


def _flags(capsys, *argv):
    main(list(argv))
    doc = json.loads(capsys.readouterr().out)
    return doc["flags"] if "flags" in doc else doc["instances"][0]["flags"]


def test_divergent_cevians_are_listed_only_where_a_pencil_is_built(capsys):
    # index 7 of seed 0 in the default box: the pseudoaltitudes do not meet
    tri, _ = random_triangle(instance_rng(0, 7, PURPOSE_TRIANGLE),
                             DEFAULT_MAX_VERTEX_RADIUS, DEFAULT_MIN_ANGLE)
    assert not tri.swapped
    given = ",".join(format_complex(z) for z in (tri.a, tri.b, tri.c))
    assert DIVERGENT not in _flags(capsys, "verify", "--trials", "1", "--suite", "feuerbach",
                                   "--triangle", given)
    assert DIVERGENT in _flags(capsys, "verify", "--trials", "1", "--suite", "all",
                               "--triangle", given)
    assert DIVERGENT in _flags(capsys, "construct", "--triangle", given)
