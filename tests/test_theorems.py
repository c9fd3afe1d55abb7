"""Theorem checks: frozen instances, random instances, invariance, skip flags."""

import cmath
import math
from random import Random

import pytest

from hypfeuer import instances, power
from hypfeuer.cevians import build_config, vertex_bisector
from hypfeuer.cycles import (
    GeneralizedCycle,
    CycleClass,
    circle_from_center_radius,
    classify,
    geodesic_through,
    hyp_center_radius,
    intersect,
    point_geodesic_distance,
    tangency_residual,
    transform,
)
from hypfeuer.geom_core import Triangle, hyp_distance, random_isometry, triangle_area
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
    convex_quad_angles,
    lexell_cycle,
    _shoot_tangent_circle,
)

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
    c = GeneralizedCycle.of(1.0, 0j, -0.25)
    chk = check_inscribed_angle(c, 0.51, 0.5j)
    assert chk.status == "skipped"
    assert chk.flag == "endpoint_off_cycle"


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


def test_convex_quad_angles_in_either_orientation():
    quad = (-0.4, -0.3j, 0.4, 0.35j)
    angles = convex_quad_angles(*quad)
    assert angles is not None and all(0.0 < x < math.pi for x in angles)
    # the clockwise traversal sees the same interior angles
    assert convex_quad_angles(*quad[::-1]) == angles[::-1]
    assert convex_quad_angles(-0.4, 0.4, 0.3j, 0.05j) is None
    assert convex_quad_angles(0.1, 0.1, 0.3j, -0.2) is None


def test_trapezoid_non_convex_skips():
    chk = check_trapezoid(-0.4, 0.4, 0.3j, 0.05j)
    assert chk.status == "skipped"
    assert chk.flag == "non_convex"


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
        assert classify(locus) is CycleClass.EQUIDISTANT
        assert len(intersect(locus, ABSOLUTE)) == 2


def test_lexell_apex_on_base_skips():
    chk = check_lexell(-0.3, 0.3, 0.1)
    assert chk.status == "skipped"
    assert chk.flag == "apex_on_base"


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
        gap = chk.witness.get("rederived_orthocenter_gap")
        if gap is not None:
            assert gap < 1e-8


def test_euler_ratios_random_configs():
    for idx in range(6):
        cfg = clean_config(611, start=idx * 10)
        chk = check_euler_ratios(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-10
        assert 0.0 < chk.witness["ratio"] < 1.0


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


def test_triangle_checks_isometry_equivariant():
    tri, _ = random_triangle(instance_rng(614, 0))
    cfg = build_config(tri)
    iso = random_isometry(Random(615))
    moved = build_config(Triangle.of(iso(tri.a), iso(tri.b), iso(tri.c)))
    # centers are label-free, so they must track the isometry exactly
    assert hyp_distance(iso(cfg.pseudo_orthocenter), moved.pseudo_orthocenter) < 1e-8
    assert hyp_distance(iso(cfg.bisector_point), moved.bisector_point) < 1e-8
    r1 = hyp_center_radius(cfg.euler_circle)[1]
    r2 = hyp_center_radius(moved.euler_circle)[1]
    assert r1 == pytest.approx(r2, abs=1e-9)
    for check in (check_six_point, check_euler_line, check_feuerbach):
        assert check(cfg).status == "pass"
        assert check(moved).status == "pass"


# ------------------------------------------------------------- radical axis

def test_radical_axis_random_pairs():
    passes = 0
    for idx in range(20):
        c1, c2 = random_cycle_pair(instance_rng(616, idx))
        chk = check_radical_axis(c1, c2)
        if chk.status == "skipped":
            assert chk.flag in ("concentric", "axis_outside_disk")
            continue
        assert chk.status == "pass", (idx, chk)
        assert chk.witness["class"] == "geodesic"
        passes += 1
    assert passes >= 12


def test_radical_axis_geodesic_member_skips():
    c = circle_from_center_radius(0.2, 0.5)
    g = geodesic_through(0.1, 0.5j)
    chk = check_radical_axis(c, g)
    assert chk.status == "skipped"
    assert chk.flag == "constant_power_member"


def test_radical_axis_concentric_skips():
    chk = check_radical_axis(circle_from_center_radius(0.1, 0.4),
                             circle_from_center_radius(0.1, 0.8))
    assert chk.status == "skipped"
    assert chk.flag == "concentric"


def test_radical_axis_outside_disk_is_not_concentric():
    # seed 0's verify draws: no pair shares a center, yet 21 axes miss the
    # disk, which used to be reported as concentric
    flags = [check_radical_axis(*random_cycle_pair(
                 instance_rng(0, idx, PURPOSE_CYCLE_PAIR))).flag
             for idx in range(200)]
    assert "concentric" not in flags
    assert flags.count("axis_outside_disk") > 0


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
    chk = check_monge(*circles, patterns=((1, 1, 1),))
    assert chk.status == "skipped"
    assert chk.flag == "missing_center"
    assert chk.witness["ppp"] == "missing_center"


# ---------------------------------------------------------- tangency chains

def test_tangent_cevians_circumcircle():
    for idx in range(3):
        cfg = clean_config(621, start=idx * 10)
        chk = check_tangent_cevians(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-8
        assert chk.witness["homothetic_center_gap"] < 1e-8


def test_tangent_cevians_external_on_incircle():
    cfg = clean_config(623)
    chk = check_tangent_cevians(cfg, w=cfg.incircle.cycle, external=True)
    assert chk.status == "pass"
    assert chk.residual < 1e-8
    assert chk.witness["homothetic_center_gap"] < 1e-8


def test_tangent_cevians_external_circle_close_to_the_vertex():
    # the circle in the angle at b touching the incircle externally sits
    # at arc length ~0.006 from b; a search starting farther out found a
    # circle of radius ~12.5 near the absolute instead (residual 1.9e-8)
    cfg = clean_config(628)
    w = cfg.incircle.cycle
    chk = check_tangent_cevians(cfg, w=w, external=True)
    assert chk.status == "pass"
    assert chk.residual < 1e-8
    for v in ("a", "b", "c"):
        circle = _shoot_tangent_circle(cfg.triangle, v, w, True)
        assert tangency_residual(circle, w) < 1e-10
    center, _ = hyp_center_radius(_shoot_tangent_circle(cfg.triangle, "b", w, True))
    assert hyp_distance(center, cfg.triangle.b) < 0.01


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
            circle = _shoot_tangent_circle(tri, v, cfg.circumcircle, False)
            center, radius = hyp_center_radius(circle)
            assert point_geodesic_distance(center, vertex_bisector(tri, v)) < 1e-12
            for side in ("a", "b", "c"):
                if side != v:
                    assert abs(point_geodesic_distance(center, cfg.sides[side])
                               - radius) < 1e-12
            assert tangency_residual(circle, cfg.circumcircle) < 1e-10


def test_tangent_cevians_geodesic_target_skips():
    cfg = clean_config(625)
    chk = check_tangent_cevians(cfg, w=geodesic_through(0.1, 0.5j))
    assert chk.status == "skipped"
    assert chk.flag == "target_not_circle"


def test_feuerbach_point_small_box():
    for cfg in full_configs(626, 3):
        chk = check_feuerbach_point(cfg)
        assert chk.status == "pass"
        assert chk.residual < 1e-8
        assert chk.witness["euler_incenter_line_gap"] < 1e-8


def test_feuerbach_point_absent_excircle_skips():
    for start in range(0, 60, 10):
        cfg = clean_config(627, start=start)
        if cfg.flags:  # at least one excircle absent
            chk = check_feuerbach_point(cfg)
            assert chk.status == "skipped"
            assert chk.flag == "contact_points_missing"
            return
    pytest.skip("every draw had all three excircles")
