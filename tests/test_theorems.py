"""Theorem checks: frozen instances, random instances, invariance, skip flags."""

import cmath
import math
from collections import Counter
from random import Random

import pytest

from hypfeuer import cevians, cli, cycles, geom_core, instances, power, theorems
from hypfeuer.cevians import _shoot_tangent_circle, build_config
from hypfeuer.cycles import (
    GeneralizedCycle,
    _hyperboloid_plane,
    circle_from_center_radius,
    cycle_through,
    geodesic_through,
    hyp_center_radius,
    intersect,
    lexell_cycle,
    membership_residual,
    point_geodesic_distance,
    tangency_residual,
    transform,
)
from hypfeuer.errors import (
    BracketFailure,
    DegenerateConfiguration,
    GeometryError,
    MissingCenter,
)
from hypfeuer.geom_core import (
    Triangle,
    convex_quad_angles,
    disk_distance,
    signed_area,
    triangle_area,
)
from hypfeuer.instances import (
    PURPOSE_CYCLE_PAIR,
    arc_instance,
    instance_rng,
    lexell_instance,
    monge_triple,
    random_cycle_pair,
    random_triangle,
    trapezoid_quad,
    _rebalance_quad,
)
from hypfeuer.theorems import (
    check_euler_line,
    check_euler_ratios,
    check_feuerbach,
    check_feuerbach_point,
    check_inscribed_angle,
    check_lexell,
    check_monge,
    check_radical_axis,
    check_six_point,
    check_tangent_cevians,
    check_trapezoid,
)
from oracles import internal_bisector, random_isometry

ABSOLUTE = GeneralizedCycle.of(1.0, 0j, -1.0)


def clean_config(seed, start=0, limit=60, box=None):
    """First config whose flags are at worst absent excircles."""
    idx = start
    while idx < start + limit:
        kwargs = {} if box is None else {"max_vertex_radius": box}
        tri, _ = random_triangle(instance_rng(seed, idx), **kwargs)
        idx += 1
        cfg = build_config(tri)
        if all(f.startswith("excircle_absent") for f in cfg.flags):
            return cfg
    raise AssertionError("no clean config found")


def full_configs(seed, count, box=0.45, limit=200):
    """Configs with no flags at all: every excircle present."""
    out = []
    for idx in range(limit):
        tri, _ = random_triangle(instance_rng(seed, idx), max_vertex_radius=box)
        cfg = build_config(tri)
        if not cfg.flags:
            out.append(cfg)
            if len(out) == count:
                return out
    raise AssertionError("generator starved of all-excircle configs")


# ---------------------------------------------------------- inscribed angle

def test_inscribed_angle_frozen_circle():
    c = GeneralizedCycle.of(1.0, 0j, -0.25)
    chk = check_inscribed_angle(c, 0.5, 0.5j)
    assert chk.status == "pass"
    assert chk.residual < 1e-10


def test_inscribed_angle_random_arcs():
    for idx in range(12):
        cycle, a, b = arc_instance(instance_rng(601, idx))
        chk = check_inscribed_angle(cycle, a, b)
        assert chk.status == "pass", (idx, chk)
        assert chk.residual < 1e-9


def test_inscribed_angle_isometry_invariant():
    cycle, a, b = arc_instance(instance_rng(602, 0))
    iso = random_isometry(Random(603))
    chk = check_inscribed_angle(transform(iso, cycle), iso(a), iso(b))
    assert chk.status == "pass"


def test_inscribed_angle_endpoint_off_cycle():
    # arc_instance never draws it: the check fails with the endpoint's
    # distance to the cycle as residual
    c = GeneralizedCycle.of(1.0, 0j, -0.25)
    chk = check_inscribed_angle(c, 0.51, 0.5j)
    assert (chk.status, chk.flag) == ("fail", "endpoint_off_cycle")
    assert chk.residual == membership_residual(c, 0.51) > 0.009


def test_inscribed_angle_circle_whose_center_is_not_read_fails(monkeypatch):
    # a meet_point that reads no circle's center: each circle fails as
    # missing_center, where it passed without its center_angle_gap, and
    # a cycle with no center (a horocycle or an equidistant) still passes
    arcs = [arc_instance(instance_rng(601, idx)) for idx in range(12)]
    circles = ["center_angle_gap" in check_inscribed_angle(*arc).witness for arc in arcs]
    assert 0 < sum(circles) < len(arcs)
    monkeypatch.setattr(cycles, "meet_point", lambda t, x, y: None)
    for arc, circle in zip(arcs, circles):
        chk = check_inscribed_angle(*arc)
        assert (chk.status, chk.flag) == (("fail", "missing_center") if circle
                                          else ("pass", None))
        assert (chk.residual is None) == circle


# ---------------------------------------------------------------- trapezoid

def test_trapezoid_generated_quads():
    for idx in range(8):
        quad = trapezoid_quad(instance_rng(604, idx))
        chk = check_trapezoid(*quad)
        assert chk.status == "pass", (idx, chk)
        assert chk.residual < 1e-10


def test_trapezoid_converse_quads():
    # angle balance pinned by construction, so the area side is the residual
    for idx in range(6):
        quad = trapezoid_quad(instance_rng(605, idx), converse=True)
        chk = check_trapezoid(*quad)
        assert chk.status == "pass", (idx, chk)
        assert chk.witness["angle_gap"] < 1e-10


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_rebalance_quad_solves_in_few_balance_evaluations(monkeypatch):
    calls = _counting(monkeypatch, instances, "convex_quad_angles")
    solved = 0
    for idx in range(30):
        quad = trapezoid_quad(instance_rng(607, idx))
        calls.clear()
        moved = _rebalance_quad(quad)
        if moved is None:
            continue
        solved += 1
        # two evaluations bracket the root, the solver makes the rest
        assert len(calls) - 2 <= 12, (idx, len(calls))
        assert check_trapezoid(*moved).witness["angle_gap"] < 1e-10
    assert solved >= 25


def test_rebalance_quad_non_convex_inside_bracket_gives_none(monkeypatch):
    quad = trapezoid_quad(instance_rng(607, 0))
    assert _rebalance_quad(quad) is not None
    real = instances.convex_quad_angles
    calls = []

    def convex_only_at_bracket_ends(*q):
        calls.append(q)
        return real(*q) if len(calls) <= 2 else None

    monkeypatch.setattr(instances, "convex_quad_angles", convex_only_at_bracket_ends)
    assert _rebalance_quad(quad) is None
    assert len(calls) == 3


def test_trapezoid_perturbation_breaks_both_sides():
    a, b, c, d = trapezoid_quad(instance_rng(606, 0))
    grad = lexell_cycle(a, b, c).gradient(d)
    moved = d + 1e-3 * grad / abs(grad)
    chk = check_trapezoid(a, b, c, moved)
    # the equivalence is an iff: leaving the locus breaks both measures
    assert chk.residual > 1e-5
    assert chk.witness["area_gap"] > 1e-5
    assert chk.witness["angle_gap"] > 1e-5


def test_trapezoid_fails_when_the_angles_are_off(monkeypatch):
    # either side of the iff off by 4e-3 must fail, also on quads built
    # to pin the area side at zero
    quads = [trapezoid_quad(instance_rng(608, idx), converse=converse)
             for idx in range(4) for converse in (False, True)]
    real = geom_core.convex_quad_angles

    def off(*quad):
        qa, qb, qc, qd = real(*quad)
        return [qa + 1e-3, qb - 1e-3, qc - 1e-3, qd + 1e-3]

    monkeypatch.setattr(theorems, "convex_quad_angles", off)
    for quad in quads:
        chk = check_trapezoid(*quad)
        assert chk.status == "fail", chk
        assert chk.residual == pytest.approx(4e-3, abs=1e-9)


def test_convex_quad_angles_in_either_orientation():
    quad = (-0.4, -0.3j, 0.4, 0.35j)
    angles = convex_quad_angles(*quad)
    assert angles is not None and all(0.0 < x < math.pi for x in angles)
    # the clockwise traversal sees the same interior angles
    assert convex_quad_angles(*quad[::-1]) == angles[::-1]
    assert convex_quad_angles(-0.4, 0.4, 0.3j, 0.05j) is None
    assert convex_quad_angles(0.1, 0.1, 0.3j, -0.2) is None


def test_trapezoid_non_convex_fails():
    chk = check_trapezoid(-0.4, 0.4, 0.3j, 0.05j)
    assert (chk.status, chk.flag, chk.residual) == ("fail", "non_convex", None)


# ------------------------------------------------------------------- lexell

def test_lexell_frozen():
    chk = check_lexell(-0.3, 0.3, 0.25j)
    assert chk.status == "pass"
    assert chk.residual < 1e-11
    assert chk.witness["area"] == pytest.approx(
        triangle_area(-0.3, 0.3, 0.25j), abs=1e-13)


def test_lexell_random_instances():
    for idx in range(12):
        a, b, x0 = lexell_instance(instance_rng(607, idx))
        chk = check_lexell(a, b, x0)
        assert chk.status == "pass", (idx, chk)
        assert chk.residual < 1e-9


def test_lexell_locus_is_equidistant_curve():
    # constant-area locus through the absolute inverses of the base:
    # an equidistant curve meeting the boundary circle twice
    for idx in range(6):
        a, b, x0 = lexell_instance(instance_rng(608, idx))
        locus = lexell_cycle(a, b, x0)
        assert abs(locus.c - locus.a) >= 1e-12
        assert len(intersect(locus, ABSOLUTE)) == 2


def test_lexell_apex_on_base_fails():
    chk = check_lexell(-0.3, 0.3, 0.1)
    assert (chk.status, chk.flag, chk.residual) == ("fail", "apex_on_base", None)


@pytest.mark.parametrize("a, b, x0", [
    (0j, 0.5, 0.3j),
    (1e-17, 0.5, 0.3j),
    (0.5, 0j, 0.3j),
    (0.5, 0.3j, 0j),
    (0.3j, 0.5, 0j),
])
def test_lexell_with_a_point_at_the_disk_center_passes(a, b, x0):
    # the absolute inverse of the center is the point at infinity, an
    # ordinary point of absolute geometry: the locus through it is a line
    chk = check_lexell(a, b, x0)
    assert chk.status == "pass", chk
    assert chk.residual < 1e-15


def test_lexell_locus_through_the_inverse_of_the_center_is_a_line():
    assert lexell_cycle(0j, 0.5, 0.3j).a == 0.0
    assert lexell_cycle(0.5, 0j, 0.3j).a == 0.0


def test_lexell_with_a_base_end_next_to_the_disk_center_passes():
    # the locus is a circle of Euclidean radius about 7e8, whose samples
    # written as center + radius e^{it} sat eps R off it: 5.5e-8 against
    # the 1e-9 tolerance
    chk = check_lexell(1e-9 + 1e-9j, 0.5, 0.3j)
    assert chk.status == "pass", chk
    assert chk.residual < 1e-15


def lexell_scan():
    """40 draws (a, b, x0) per decade 1e-k of |a|, k = 5..16 (Random(k)),
    b and x0 at |z| in [0.2, 0.7]: a base end next to the disk center
    makes the locus a circle of huge Euclidean radius, up to 1e15."""
    for k in range(5, 17):
        rng = Random(k)
        for _ in range(40):
            yield tuple(rng.uniform(*band) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                        for band in ((10.0 ** -k, 10.0 ** (1 - k)), (0.2, 0.7), (0.2, 0.7)))


def test_lexell_scan_toward_the_disk_center_passes():
    # the former sampler failed 2, 6, 36, 40, 40, 40, 39 and 7 of the 40
    # draws in the decades 1e-6 to 1e-13
    worst = 0.0
    for a, b, x0 in lexell_scan():
        chk = check_lexell(a, b, x0)
        assert chk.status == "pass", (a, b, x0, chk)
        worst = max(worst, chk.residual)
    assert worst < 1e-14


# ------------------------------------------------------------- point forms

_CIRCLE = circle_from_center_radius(0.1 + 0.2j, 0.4)
_GEODESIC = geodesic_through(0.1j, 0.5 + 0.2j)

# calls whose points include real ones, given as floats and the int 0
REAL_POINT_CALLS = [
    (power.pseudolength, (0.3, 0.2 + 0.5j)),
    (power.pseudolength, (0.2 + 0.5j, -0.4)),
    (power.pseudolength, (0, 0.6)),
    (power.power_of_point, (0.3, _CIRCLE)),
    (power.power_of_point, (0, _CIRCLE)),
    (geodesic_through, (0.3, 0.2 + 0.5j)),
    (geodesic_through, (0, -0.45)),
    (point_geodesic_distance, (-0.7, _GEODESIC)),
    (point_geodesic_distance, (0, _GEODESIC)),
    (check_lexell, (0.3, -0.2 + 0.4j, 0.1 - 0.5j)),
    (check_lexell, (0.5j, 0.4, 0)),
    (check_trapezoid, (0.5, 0.5j, -0.5, -0.5j)),
    (check_trapezoid, (-0.3, 0.3, 0.2 + 0.4j, -0.2 + 0.4j)),
    (check_inscribed_angle, (cycle_through(0.3, -0.4, 0.5j), 0.3, -0.4)),
    (check_inscribed_angle, (geodesic_through(-0.5, 0.6), -0.5, 0)),
]


def _complex_twin(arg):
    return complex(arg) if type(arg) in (int, float) else arg


@pytest.mark.parametrize("fn, args", REAL_POINT_CALLS,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _) in enumerate(REAL_POINT_CALLS)])
def test_a_real_point_gives_the_bits_of_its_complex_twin(fn, args):
    # a point below the input boundary is a complex, and a real number
    # works as one: repr shows every bit of a float, signed zeros too
    assert any(type(a) in (int, float) for a in args)
    result = fn(*args)
    assert repr(result) == repr(fn(*map(_complex_twin, args)))
    assert getattr(result, "status", None) != "skipped"


# --------------------------------------------------------- triangle theorems

def test_six_point_random_configs():
    for idx in range(6):
        cfg = clean_config(609, start=idx * 10)
        chk = check_six_point(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-10


def test_euler_line_random_configs():
    for idx in range(6):
        cfg = clean_config(610, start=idx * 10)
        chk = check_euler_line(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-9
        assert chk.witness["radius_gap"] <= chk.residual


def test_euler_line_of_a_centred_equilateral_triangle():
    # all three centers sit on O up to rounding, so no line through O is
    # drawn and the residual is the farthest center's distance from O
    tri = Triangle.of(*(0.3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)))
    cfg = build_config(tri)
    o = cfg.circumcenter
    distances = [disk_distance(o, p) for p in
                 (cfg.euler_center, cfg.bisector_point, cfg.pseudo_orthocenter)]
    assert max(distances) < 1e-12
    chk = check_euler_line(cfg)
    assert chk.status == "pass"
    assert chk.witness["radius_gap"] < max(distances)
    assert chk.residual == max(distances)


def test_euler_ratios_random_configs():
    for idx in range(6):
        cfg = clean_config(611, start=idx * 10)
        chk = check_euler_ratios(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-10
        assert 0.0 < chk.witness["ratio"] < 1.0


def test_euler_ratios_reads_both_concurrency_residuals():
    # the pencils that define M and H are part of the residual: a family
    # of cevians that misses its concurrency point fails the check
    cfg = clean_config(611)
    assert check_euler_ratios(cfg).status == "pass"
    for name in ("bisector_residual", "orthocenter_residual"):
        chk = check_euler_ratios(cfg.replace(**{name: 2e-10}))
        assert chk.status == "fail", name
        assert chk.residual == 2e-10


def test_feuerbach_reads_each_tritangent_tangency_gap():
    # a tritangent circle that misses a side fails the check, whichever
    # circle it is; an absent excircle adds nothing
    cfg = full_configs(613, 1)[0]
    assert check_feuerbach(cfg).status == "pass"
    off = cfg.incircle.replace(tangency_gap=2e-8)
    chk = check_feuerbach(cfg.replace(incircle=off))
    assert (chk.status, chk.residual) == ("fail", 2e-8)
    for v in "abc":
        excircles = dict(cfg.excircles)
        excircles[v] = excircles[v].replace(tangency_gap=2e-8)
        chk = check_feuerbach(cfg.replace(excircles=excircles))
        assert (chk.status, chk.residual) == ("fail", 2e-8), v
        excircles[v] = None
        chk = check_feuerbach(cfg.replace(excircles=excircles))
        assert chk.status == "pass", v
        assert chk.witness[f"excircle_{v}"] == "absent"


def test_feuerbach_random_configs():
    for idx in range(6):
        cfg = clean_config(612, start=idx * 10)
        chk = check_feuerbach(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-8
        assert chk.witness["incircle"] < 1e-8


def test_feuerbach_all_excircles_small_box():
    cfg = full_configs(613, 1)[0]
    chk = check_feuerbach(cfg)
    assert chk.status == "pass"
    for v in "abc":
        assert chk.witness[f"excircle_{v}"] < 1e-8


def test_a_missing_pseudoaltitude_foot_skips_only_its_readers(monkeypatch):
    # no sampled triangle puts a pseudoaltitude foot past the ideal
    # endpoints, so one is forced at a.  That foot takes the Euler
    # circle's membership and the pseudo-orthocenter with it, but not
    # the Euler circle, which the bisector feet span, nor the tritangent
    # circles: the checks that read only those still run
    tri = full_configs(613, 1)[0].triangle
    side_a = tri.opposite("a")[1]
    original = cevians.pseudoaltitude_foot

    def beyond_at_a(frame):
        if frame[0] == side_a:
            raise BracketFailure("pseudoaltitude foot beyond the ideal endpoints")
        return original(frame)

    monkeypatch.setattr(cevians, "pseudoaltitude_foot", beyond_at_a)
    cfg = build_config(tri)
    assert cfg.flags == ["bracket_failure_pseudoaltitude_a"]
    for check, flag in ((check_six_point, "cevian_degeneracy"),
                        (check_euler_line, "center_undefined"),
                        (check_euler_ratios, "cevian_degeneracy")):
        chk = check(cfg)
        assert (chk.status, chk.flag) == ("skipped", flag), chk.name
    for check in (check_feuerbach, check_feuerbach_point):
        assert check(cfg).status == "pass", check


def test_triangle_checks_isometry_equivariant():
    tri, _ = random_triangle(instance_rng(614, 0))
    cfg = build_config(tri)
    iso = random_isometry(Random(615))
    moved = build_config(Triangle.of(iso(tri.a), iso(tri.b), iso(tri.c)))
    # centers are label-free, so they must track the isometry exactly
    assert disk_distance(iso(cfg.pseudo_orthocenter), moved.pseudo_orthocenter) < 1e-8
    assert disk_distance(iso(cfg.bisector_point), moved.bisector_point) < 1e-8
    r1 = hyp_center_radius(cfg.euler_circle)[1]
    r2 = hyp_center_radius(moved.euler_circle)[1]
    assert r1 == pytest.approx(r2, abs=1e-9)
    for check in (check_six_point, check_euler_line, check_feuerbach):
        assert check(cfg).status == "pass"
        assert check(moved).status == "pass"
    # metamorphic sweep: an orientation-preserving isometry keeps the
    # vertex labels, so flags and every triangle check's outcome must
    # not change, and the centers must track the map
    checks = (check_six_point, check_euler_line, check_euler_ratios, check_feuerbach,
              check_tangent_cevians, check_feuerbach_point)
    for box in (0.25, 0.7, 0.9):
        for i in range(100):
            tri, _ = random_triangle(instance_rng(900, i), box)
            iso = random_isometry(Random(1000 + i))
            cfg = build_config(tri)
            moved = build_config(Triangle.of(iso(tri.a), iso(tri.b), iso(tri.c)))
            assert cfg.flags == moved.flags, (box, i)
            for check in checks:
                before, after = check(cfg), check(moved)
                assert (before.status, before.flag) == (after.status, after.flag), (box, i)
            for center in (lambda c: c.bisector_point, lambda c: c.pseudo_orthocenter,
                           lambda c: c.incircle and c.incircle.center):
                p, q = center(cfg), center(moved)
                assert (p is None) == (q is None), (box, i)
                if p is not None:
                    assert disk_distance(iso(p), q) < 1e-11, (box, i)


# each drawn suite's generator, purpose stream and check
DRAWN_SUITES = {
    "inscribed_angle": (arc_instance, instances.PURPOSE_ARC, check_inscribed_angle),
    "trapezoid": (trapezoid_quad, instances.PURPOSE_QUAD, check_trapezoid),
    "lexell": (lexell_instance, instances.PURPOSE_LEXELL, check_lexell),
    "radical_axis": (random_cycle_pair, PURPOSE_CYCLE_PAIR, check_radical_axis),
    "monge": (monge_triple, instances.PURPOSE_MONGE, check_monge),
}


@pytest.mark.parametrize("suite", sorted(DRAWN_SUITES))
def test_drawn_checks_isometry_equivariant(suite):
    # metamorphic sweep of the drawn suites: a draw mapped through an
    # isometry (points by the map, cycles by transform) keeps its status
    # and flag; trapezoid alternates forward and converse draws as verify
    # does
    draw, purpose, check = DRAWN_SUITES[suite]
    for i in range(300):
        rng = instance_rng(0, i, purpose)
        args = draw(rng, converse=bool(i % 2)) if draw is trapezoid_quad else draw(rng)
        iso = random_isometry(Random(2000 + i))
        moved = [iso(x) if isinstance(x, complex) else transform(iso, x) for x in args]
        before, after = check(*args), check(*moved)
        assert (before.status, before.flag) == (after.status, after.flag), (suite, i)


# ------------------------------------------------------------- radical axis

def test_radical_axis_random_pairs():
    passes = 0
    for idx in range(20):
        c1, c2 = random_cycle_pair(instance_rng(616, idx))
        chk = check_radical_axis(c1, c2)
        if chk.status == "skipped":
            assert chk.flag == "axis_outside_disk"
            continue
        assert chk.status == "pass", (idx, chk)
        axis = power.radical_axis(c1, c2)
        assert abs(axis.c - axis.a) < 1e-12
        passes += 1
    assert passes >= 12


def test_radical_axis_geodesic_member_fails():
    c = circle_from_center_radius(0.2, 0.5)
    g = geodesic_through(0.1, 0.5j)
    chk = check_radical_axis(c, g)
    assert (chk.status, chk.flag, chk.residual) == ("fail", "constant_power_member", None)


# a member without a hyperbolic center gets no chord check, whatever
# kind of cycle it is
@pytest.mark.parametrize("member", [
    # |z - 0.5| = 0.5 touches the absolute at 1
    GeneralizedCycle.of(1.0, -0.5 + 0j, 0.0),
    cycle_through(cmath.exp(0.3j), cmath.exp(2.0j), 0.1 + 0.5j),
], ids=["horocycle", "equidistant"])
def test_radical_axis_skips_the_chord_check_of_a_member_without_a_center(member):
    chk = check_radical_axis(circle_from_center_radius(-0.2 + 0.1j, 0.5), member)
    assert chk.status == "pass", chk
    assert chk.witness["power_checked"] == [1]


def test_radical_axis_concentric_skips():
    # concentric circles have no equal-power point at all
    chk = check_radical_axis(circle_from_center_radius(0.1, 0.4),
                             circle_from_center_radius(0.1, 0.8))
    assert chk.status == "skipped"
    assert chk.flag == "axis_outside_disk"


def test_radical_axis_circle_whose_center_is_not_read_fails(monkeypatch):
    # a meet_point that reads no circle's center: each circle member is
    # refused as missing_center, an equidistant pair still passes
    monkeypatch.setattr(cycles, "meet_point", lambda t, x, y: None)
    circle = circle_from_center_radius(-0.2 + 0.1j, 0.5)
    equidistant = cycle_through(cmath.exp(0.3j), cmath.exp(2.0j), 0.1 + 0.5j)
    for pair in ((circle, equidistant), (equidistant, circle)):
        chk = check_radical_axis(*pair)
        assert (chk.status, chk.flag, chk.residual) == ("fail", "missing_center", None)
    other = cycle_through(cmath.exp(1.0j), cmath.exp(2.5j), -0.3j)
    chk = check_radical_axis(equidistant, other)
    assert (chk.status, chk.witness["power_checked"]) == ("pass", [])


def test_radical_axis_of_circles_whose_axis_nearly_crosses_the_center_passes():
    # the axis passes within 1e-9 of the disk center: a circle of huge
    # Euclidean radius, whose samples as center + radius e^{it} failed at
    # 3.8e-8 against the 1e-10 tolerance
    chk = check_radical_axis(circle_from_center_radius(0.3 + 0.2j, 0.5),
                             circle_from_center_radius(-0.3 - 0.2j + 1e-9 * (1 + 1j), 0.5))
    assert chk.status == "pass", chk
    assert chk.residual < 1e-14


def test_radical_axis_of_a_seeded_pair_whose_axis_has_radius_209_passes():
    # verify --suite all --trials 10 --seed 37207060, index 2, a draw of
    # the benchmark's verify_all workload: two equidistants whose axis is
    # a circle of Euclidean radius 209, whose samples as center + radius
    # e^{it} failed at 5.2e-10 against the 1e-10 tolerance
    chk = check_radical_axis(*random_cycle_pair(instance_rng(37207060, 2, PURPOSE_CYCLE_PAIR)))
    assert chk.status == "pass", chk
    assert chk.residual < 1e-11


def test_radical_axis_outside_disk_is_not_concentric():
    # seed 0's verify draws: no pair shares a center, yet 21 axes miss the
    # disk, which used to be reported as concentric
    flags = [check_radical_axis(*random_cycle_pair(
                 instance_rng(0, idx, PURPOSE_CYCLE_PAIR))).flag
             for idx in range(200)]
    assert "concentric" not in flags
    assert flags.count("axis_outside_disk") > 0


# ---------------------------------- the identities behind the sample counts
# ARC_SAMPLES, LEXELL_SAMPLES and AXIS_SAMPLES rest on closed forms that
# make each sampled quantity a quadratic along its cycle's parameter.

def _disk_points(rng, count, radius=0.95):
    return [cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            for _ in range(count)]


def test_sigma_is_twice_a_mobius_argument():
    # sigma(a, x, b) = 2 arg((b - x)/(a - x)) - 2 arg(1 - b conj(a)) + pi
    rng = Random(2101)
    worst = 0.0
    for _ in range(3000):
        a, b, x = _disk_points(rng, 3)
        closed = (2.0 * cmath.phase((b - x) / (a - x))
                  - 2.0 * cmath.phase(1.0 - b * a.conjugate()) + math.pi)
        worst = max(worst, abs(math.remainder(geom_core.sigma(a, x, b) - closed,
                                              geom_core.TAU)))
    assert worst < 1e-13


def test_half_area_is_a_mobius_argument():
    # half the signed area of (a, b, x) is arg((x - a*)/(x - b*)) plus a
    # constant of the base, with a* = 1/conj(a)
    rng = Random(2102)
    worst = 0.0
    for _ in range(3000):
        a, b, x = _disk_points(rng, 3)
        a_star, b_star = 1.0 / a.conjugate(), 1.0 / b.conjugate()
        closed = (cmath.phase((1.0 - a * b.conjugate()) * a.conjugate() * b)
                  + cmath.phase((x - a_star) / (x - b_star)))
        worst = max(worst, abs(math.remainder(0.5 * signed_area(a, b, x) - closed,
                                              geom_core.TAU)))
    assert worst < 1e-13


def _lift(z):
    w = 1.0 - abs(z) ** 2
    return ((1.0 + abs(z) ** 2) / w, 2.0 * z.real / w, 2.0 * z.imag / w)


def _minkowski(x, p):
    return x[0] * p[0] - x[1] * p[1] - x[2] * p[2]


def test_power_gap_is_linear_in_the_lift():
    # with <X, P> + k = 0 each cycle's hyperboloid plane, P1 - P2 is
    # 2 <X, k1 P2 - k2 P1> over (<X, P1> - k1)(<X, P2> - k2), and the
    # radical axis is the plane of k1 P2 - k2 P1
    rng = Random(2103)
    worst_gap = worst_axis = 0.0
    for idx in range(400):
        c1, c2 = random_cycle_pair(instance_rng(2104, idx))
        *p1v, k1 = _hyperboloid_plane(c1)
        *p2v, k2 = _hyperboloid_plane(c2)
        normal = [k1 * q - k2 * p for p, q in zip(p1v, p2v)]
        for z in _disk_points(rng, 5):
            try:
                p1, p2 = power.power_of_point(z, c1), power.power_of_point(z, c2)
            except DegenerateConfiguration:
                continue
            x = _lift(z)
            linear = 2.0 * _minkowski(x, normal) / (
                (_minkowski(x, p1v) - k1) * (_minkowski(x, p2v) - k2))
            # near a pole of power_of_point rounding grows with the power
            scale = max(1.0, abs(p1), abs(p2))
            worst_gap = max(worst_gap, abs(p1 - p2 - linear) / scale ** 2)
        try:
            axis = power.radical_axis(c1, c2)
        except GeometryError:
            continue
        *axis_v, axis_k = _hyperboloid_plane(axis)
        assert axis_k == 0.0
        u = [v / max(map(abs, normal)) for v in normal]
        w = [v / max(map(abs, axis_v)) for v in axis_v]
        sign = math.copysign(1.0, sum(p * q for p, q in zip(u, w)))
        worst_axis = max(worst_axis, max(abs(p - sign * q) for p, q in zip(u, w)))
    assert worst_gap < 1e-13
    assert worst_axis < 1e-13


def test_sampled_suite_statuses_at_seed_0():
    # the sample counts sit at their degree bounds; statuses and flags
    # are those of the 32/33/16-sample checks they replaced
    report = cli.run_verify(cli.Scenario(seed=0, trials=200, suite=(
        "inscribed_angle", "lexell", "radical_axis")))
    counts = Counter((c.name, c.status, c.flag)
                     for inst in report.instances for c in inst.checks)
    assert counts == {("inscribed_angle", "pass", None): 200,
                      ("lexell", "pass", None): 200,
                      ("radical_axis", "pass", None): 179,
                      ("radical_axis", "skipped", "axis_outside_disk"): 21}
    samples = Counter((c.name, c.witness["samples"])
                      for inst in report.instances for c in inst.checks
                      if c.status == "pass")
    assert samples == {("inscribed_angle", theorems.ARC_SAMPLES): 200,
                       ("lexell", theorems.LEXELL_SAMPLES + 1): 200,
                       ("radical_axis", theorems.AXIS_SAMPLES): 179}


# -------------------------------------------------------------------- monge

def test_monge_random_triples():
    for idx in range(10):
        triple = monge_triple(instance_rng(618, idx))
        chk = check_monge(*triple)
        assert chk.status == "pass", (idx, chk)
        assert chk.residual < 1e-9
        numeric = [v for v in chk.witness.values() if not isinstance(v, str)]
        assert len(numeric) >= 2


def test_check_monge_builds_each_pair_once(monkeypatch):
    calls = _counting(monkeypatch, power, "homothetic_centers")
    chk = check_monge(*monge_triple(instance_rng(618, 0)))
    assert chk.status == "pass"
    # three pairs, shared by all four sign patterns
    assert len(calls) == 3


def test_monge_all_positive_missing_for_congruent_far_circles():
    circles = [circle_from_center_radius(0.45 * cmath.exp(2j * math.pi * k / 3), 0.5)
               for k in range(3)]
    chk = check_monge(*circles)
    # monge_triple's draws always keep the npn pattern
    assert (chk.status, chk.flag, chk.residual) == ("fail", "missing_center", None)
    assert chk.witness["ppp"] == "missing_center"
    with pytest.raises(MissingCenter):
        power.monge_line(power.monge_centers(*circles), (1, 1, 1))


def test_degenerate_library_inputs_fail_with_their_cause():
    # no generator draws these, but a check never raises: concentric
    # circles share every homothetic center, a geodesic has none, and
    # coincident base points span no geodesic
    concentric = [circle_from_center_radius(0.1j, rho) for rho in (0.3, 0.6, 0.9)]
    chk = check_monge(*concentric)
    assert (chk.status, chk.flag, chk.residual) == ("fail", "coincident_centers", None)
    assert set(chk.witness.values()) == {"coincident_centers"}
    chk = check_monge(geodesic_through(0.1, 0.5j), *concentric[:2])
    assert (chk.status, chk.flag, chk.residual) == ("fail", "member_not_circle", None)
    chk = check_lexell(0.3, 0.3, 0.5j)
    assert (chk.status, chk.flag, chk.residual) == ("fail", "coincident_base", None)


# ---------------------------------------------------------- tangency chains

def test_tangent_cevians_circumcircle():
    for idx in range(3):
        cfg = clean_config(621, start=idx * 10)
        chk = check_tangent_cevians(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-8
        assert chk.witness["tangency_gap"] <= chk.residual


def test_tangent_cevians_thin_triangle_finds_every_circle():
    # instance 7 of the contact-chain scenario at bench seed 41084: the
    # circle at b lies at arc length 0.01998, once skipped as
    # tangent_circle_absent_b
    tri = Triangle.of(-0.1824083693224007 - 0.0008683102026953064j,
                      -0.16846003828179798 + 0.012347397420761965j,
                      -0.16831996956762305 + 0.002233751406806867j)
    chk = check_tangent_cevians(build_config(tri))
    assert chk.status == "pass"
    assert chk.residual < 1e-8


def test_shot_circle_is_inscribed_in_the_angle_and_touches_circumcircle():
    for seed in range(628, 632):
        cfg = clean_config(seed)
        tri = cfg.triangle
        for v in ("a", "b", "c"):
            circle = _shoot_tangent_circle(tri, v, cfg.circumcircle)
            center, radius = hyp_center_radius(circle)
            assert point_geodesic_distance(center, internal_bisector(tri, v)) < 1e-12
            for side in ("a", "b", "c"):
                if side != v:
                    assert abs(point_geodesic_distance(center, cfg.sides[side])
                               - radius) < 1e-12
            assert tangency_residual(circle, cfg.circumcircle) < 1e-10


def test_tangent_cevians_geodesic_target_skips():
    # the state build_config leaves when the circumcircle has no center
    clean = clean_config(625)
    cfg = clean.replace(circumcircle=geodesic_through(0.1, 0.5j),
                        circumcenter=None, circumradius=None,
                        flags=[*clean.flags, "no_circumcenter"])
    chk = check_tangent_cevians(cfg)
    assert chk.status == "skipped"
    assert chk.flag == "target_not_circle"


def test_feuerbach_point_small_box():
    for cfg in full_configs(626, 3):
        chk = check_feuerbach_point(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-8


def test_feuerbach_point_fails_off_the_euler_center():
    # each contact lies a radius from its tritangent center toward the
    # Euler center, so only the true center makes the four lines meet
    # (through homothetic centers they would meet for any circle, Monge)
    for cfg in full_configs(626, 3):
        moved = cfg.replace(euler_circle=circle_from_center_radius(
            cfg.euler_center + 1e-5, cfg.euler_radius))
        chk = check_feuerbach_point(moved)
        assert chk.status == "fail"
        assert chk.residual > 1e-7


def test_feuerbach_point_without_incircle_contact_skips():
    # in an equilateral triangle the Euler circle is the incircle, up to
    # rounding: every excircle exists, but the two circles have no
    # contact point; test_cli's EQUILATERAL first, then turned and scaled
    w = cmath.exp(2j * math.pi / 3)
    triangles = [Triangle.of(0.25j, -0.21650635094610965 - 0.125j,
                             0.21650635094610965 - 0.125j)]
    for k in range(40):
        top = (0.1 + 0.0035 * k) * cmath.exp(0.157j * k)
        triangles.append(Triangle.of(top, top * w, top * w * w))
    for tri in triangles:
        cfg = build_config(tri)
        assert cfg.flags == []
        chk = check_feuerbach_point(cfg)
        assert chk.status == "skipped", tri
        assert chk.flag == "contact_points_missing"


def test_feuerbach_point_absent_excircle_skips():
    for start in range(0, 60, 10):
        cfg = clean_config(627, start=start)
        if cfg.flags:  # at least one excircle absent
            chk = check_feuerbach_point(cfg)
            assert chk.status == "skipped"
            assert chk.flag == "contact_points_missing"
            return
    pytest.skip("every draw had all three excircles")


def excircle_walk(seed, index, bisections):
    """Configurations of a default-box triangle as its vertex c moves
    away from a along the line ac, in steps of 0.02 while every
    excircle exists, then bisected `bisections` times toward the point
    where one vanishes: (largest excircle radius, config) of each one
    with all its tritangent circles."""
    tri, _ = random_triangle(instance_rng(seed, index))
    a, b, c = tri.a, tri.b, tri.c
    u = (c - a) / abs(c - a)

    def config(t):
        cfg = build_config(Triangle.of(a, b, c + t * u))
        if cfg.incircle is None or None in cfg.excircles.values():
            return None
        return max(hyp_center_radius(e.cycle)[1] for e in cfg.excircles.values()), cfg

    walk, t = [], 0.0
    while (step := config(t)) is not None:
        walk.append(step)
        t += 0.02
    lo, hi = t - 0.02, t
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        step = config(mid)
        if step is None:
            hi = mid
        else:
            walk.append(step)
            lo = mid
    return walk


def test_feuerbach_point_passes_as_an_excircle_grows_without_bound():
    # two seeded default-box triangles walked to where an excircle
    # vanishes: its radius passes 12, and the contact taken from the
    # excircle's own center lost about eps e^{3r} (0.016 at r >= 12)
    radii = []
    for seed, index in ((1, 190), (0, 194)):
        for radius, cfg in excircle_walk(seed, index, 40):
            chk = check_feuerbach_point(cfg)
            assert chk.status == "pass", (seed, index, radius, chk.residual)
            radii.append(radius)
    assert max(radii) > 12.0
