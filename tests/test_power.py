"""Pseudolength machinery: powers, radical axes, homothety, inversion, Monge."""

import cmath
import math
from random import Random

import pytest

from hypfeuer.errors import (
    AxisOutsideDisk,
    DegenerateConfiguration,
)
from hypfeuer.geom_core import disk_distance, mobius_from_origin, mobius_to_origin
from hypfeuer.cycles import (
    GeneralizedCycle,
    _translate_raw,
    circle_from_center_radius,
    coefficient_center_radius,
    coefficient_distance,
    cycle_through,
    geodesic_through,
    hyp_center_radius,
    intersect,
    membership_residual,
    sample_points,
    transform,
)
from hypfeuer.cevians import build_config
from hypfeuer.geom_core import DiskIsometry
from hypfeuer.instances import (
    PURPOSE_CYCLE_PAIR,
    PURPOSE_MONGE,
    instance_rng,
    monge_triple,
    random_cycle_pair,
    random_triangle,
)
from hypfeuer.power import (
    MONGE_PATTERNS,
    crossing_angle,
    homothetic_centers,
    homothety_cycle,
    inversion_cycle,
    monge_centers,
    monge_line,
    power_of_point,
    pseudolength,
    radical_axis,
)
from hypfeuer.theorems import check_monge
from oracles import diameter_with_direction, geodesic_meet, interior_intersections


def rand_point(rng, r=0.6):
    return r * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def homothety_point(center, k, p):
    """Image of p under the homothety about center with pseudolength
    ratio k, or None when it would leave the disk: the point map that
    homothety_cycle must agree with."""
    w = k * mobius_to_origin(complex(center), complex(p))
    return mobius_from_origin(complex(center), w) if abs(w) < 1.0 else None


def inversion_point(center, r2, p):
    """Image of p (not the center) under inversion about center with
    pseudolength power r2 > 0, or None when it would leave the disk: the
    point map that inversion_cycle must agree with."""
    w = r2 / mobius_to_origin(complex(center), complex(p)).conjugate()
    return mobius_from_origin(complex(center), w) if abs(w) < 1.0 else None


# ------------------------------------------------------------- pseudolength

def test_pseudolength_frozen():
    assert pseudolength(0, 0.5) == 0.5
    assert pseudolength(0.2j, 0.2j) == 0.0


def test_pseudolength_symmetric():
    assert pseudolength(0.3, 0.4j) == pytest.approx(pseudolength(0.4j, 0.3), abs=1e-13)


def test_pseudolength_is_tanh_half_distance():
    rng = Random(21)
    for _ in range(60):
        p, q = rand_point(rng, 0.85), rand_point(rng, 0.85)
        assert pseudolength(p, q) == pytest.approx(
            math.tanh(disk_distance(p, q) / 2.0), abs=1e-12)


# ------------------------------------------------------------------- powers

def test_power_frozen_at_origin():
    # euclidean circle of radius 0.3 about the origin
    c = GeneralizedCycle.of(1.0, 0j, -0.09)
    assert power_of_point(0, c) == pytest.approx(-0.09, abs=1e-15)


def test_power_zero_on_the_cycle():
    rng = Random(22)
    for _ in range(30):
        c = circle_from_center_radius(rand_point(rng, 0.4), rng.uniform(0.2, 1.0))
        for p in sample_points(c, 4):
            assert abs(power_of_point(p, c)) < 1e-12


def test_power_chord_independence():
    # translate the point to the origin; any diameter chord's signed
    # intersection product must equal the power
    rng = Random(23)
    done = 0
    while done < 40:
        p = rand_point(rng, 0.5)
        c = circle_from_center_radius(rand_point(rng, 0.5), rng.uniform(0.3, 1.2))
        moved = transform(DiskIsometry(p, 0.0), c)
        u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pts = intersect(diameter_with_direction(u), moved)
        if len(pts) != 2:
            continue
        r1 = (pts[0] / u).real
        r2 = (pts[1] / u).real
        assert r1 * r2 == pytest.approx(power_of_point(p, c), abs=1e-11)
        done += 1


def test_power_sign_inside_negative():
    c = circle_from_center_radius(0.2, 0.8)
    assert power_of_point(0.2, c) < 0
    assert power_of_point(-0.6, c) > 0


def test_power_is_the_translated_coefficient_ratio():
    # bit for bit c2 / a2 of the cycle translated by the point, over
    # random circles, cycles through three points and geodesics
    rng = Random(24)
    for _ in range(100):
        for c in (circle_from_center_radius(rand_point(rng, 0.9), rng.uniform(0.1, 2.0)),
                  cycle_through(rand_point(rng, 0.9), rand_point(rng, 0.9),
                                rand_point(rng, 0.9)),
                  geodesic_through(rand_point(rng, 0.9), rand_point(rng, 0.9))):
            p = rand_point(rng, 0.95)
            a2, _, c2 = _translate_raw(p, c.a, c.b, c.c)
            assert power_of_point(p, c) == c2 / a2


def test_power_raises_at_the_pole():
    # a straight line (A = 0) has its pole at the origin: the translated
    # leading coefficient vanishes there
    with pytest.raises(DegenerateConfiguration):
        power_of_point(0, GeneralizedCycle.of(0.0, 1.0, 0.5))


# ------------------------------------------------------------- radical axis

def test_radical_axis_congruent_pair_is_perpendicular_diameter():
    c1 = circle_from_center_radius(-0.3, 0.7)
    c2 = circle_from_center_radius(0.3, 0.7)
    axis = radical_axis(c1, c2)
    assert axis.is_line
    assert abs(axis.b.imag) < 1e-13  # locus Re z = 0


def test_radical_axis_through_intersection_points():
    c1 = circle_from_center_radius(-0.15, 0.8)
    c2 = circle_from_center_radius(0.2 + 0.1j, 0.7)
    common = intersect(c1, c2)
    assert len(common) == 2
    axis = radical_axis(c1, c2)
    for z in common:
        assert membership_residual(axis, z) < 1e-10


def test_radical_axis_equal_powers_sampled():
    rng = Random(24)
    for _ in range(20):
        c1 = circle_from_center_radius(rand_point(rng, 0.4), rng.uniform(0.3, 1.0))
        c2 = circle_from_center_radius(rand_point(rng, 0.4), rng.uniform(0.3, 1.0))
        try:
            axis = radical_axis(c1, c2)
        except AxisOutsideDisk:
            continue
        for p in sample_points(axis, 8):
            assert abs(power_of_point(p, c1) - power_of_point(p, c2)) < 1e-10


def test_radical_axis_concentric_raises():
    # concentric circles have no equal-power point: their axis is empty,
    # as one beyond the absolute is
    c1 = circle_from_center_radius(0.1, 0.4)
    c2 = circle_from_center_radius(0.1, 0.8)
    with pytest.raises(AxisOutsideDisk):
        radical_axis(c1, c2)


def test_radical_axis_near_concentric_is_not_concentric():
    # centers 1e-6 apart: the axis of different radii lies beyond the
    # absolute, and of equal radii it is the centers' bisector
    c1 = circle_from_center_radius(0.5, 0.4)
    with pytest.raises(AxisOutsideDisk):
        radical_axis(c1, circle_from_center_radius(0.5 + 1e-6, 0.8))
    axis = radical_axis(c1, circle_from_center_radius(0.5 + 1e-6, 0.4))
    assert axis.a == axis.c


def test_power_near_its_pole_keeps_its_digits_on_axis_samples():
    # verify --suite radical_axis --trials 250 --seed 1, index 228: two
    # equidistants whose axis is a circle of Euclidean radius 79.3.  One
    # of its 16 samples, at |z| = 0.732, sits near a pole of
    # power_of_point (power 165, the translated leading coefficient near
    # 0).  Samples written as center + radius e^{it} lay 0.9-2.3e-14 off
    # the axis, and the relative gap of the two powers there was 3.9e-11
    # against the 1e-10 tolerance: the digits were lost in the sampler,
    # not in power_of_point.  Samples along the arc from the axis's point
    # nearest the origin stay on it, and the gap falls to about 1e-13.
    c1, c2 = random_cycle_pair(instance_rng(1, 228, PURPOSE_CYCLE_PAIR))
    axis = radical_axis(c1, c2)
    gaps = []
    for p in sample_points(axis, 16, margin=1e-6):
        assert membership_residual(axis, p) < 1e-15
        p1, p2 = power_of_point(p, c1), power_of_point(p, c2)
        gaps.append((abs(p1 - p2) / max(1.0, abs(p1), abs(p2)), abs(p1)))
    assert max(gap for gap, _ in gaps) < 1e-12
    assert max(power for _, power in gaps) > 100.0


# ----------------------------------------------------------- radical center

def test_pseudoaltitude_circles_meet_at_orthocenter():
    # the vertex-pair/foot-pair circles are concyclic four at a time and
    # their radical center, the meet of two of their radical axes, is
    # the pseudoaltitude concurrency point
    idx = 0
    done = 0
    while done < 4 and idx < 100:
        tri, _ = random_triangle(instance_rng(301, idx))
        idx += 1
        cfg = build_config(tri)
        if not all(f.startswith("excircle_absent") for f in cfg.flags):
            continue
        ha, hb, hc = (cfg.feet.pseudoaltitude[v] for v in "abc")
        c_ab = cycle_through(tri.a, tri.b, ha)
        c_ac = cycle_through(tri.a, tri.c, ha)
        c_bc = cycle_through(tri.b, tri.c, hb)
        assert membership_residual(c_ab, hb) < 1e-10
        assert membership_residual(c_ac, hc) < 1e-10
        assert membership_residual(c_bc, hc) < 1e-10
        center = geodesic_meet(radical_axis(c_ab, c_ac), radical_axis(c_ab, c_bc))
        assert disk_distance(center, cfg.pseudo_orthocenter) < 1e-9
        done += 1
    assert done == 4


# ---------------------------------------------------- homothety / inversion

def test_homothety_frozen():
    assert homothety_point(0, 0.5, 0.6) == pytest.approx(0.3, abs=1e-15)
    assert homothety_point(0, -1.0, 0.4j) == pytest.approx(-0.4j, abs=1e-15)


def test_homothety_scales_pseudolength():
    rng = Random(25)
    for _ in range(40):
        ctr, p = rand_point(rng, 0.4), rand_point(rng, 0.6)
        if abs(ctr - p) < 1e-3:
            continue
        k = rng.uniform(-1.4, 1.4)
        img = homothety_point(ctr, k, p)
        if img is None:
            continue
        assert pseudolength(ctr, img) == pytest.approx(
            abs(k) * pseudolength(ctr, p), abs=1e-13)


def test_homothety_maps_cycle_to_cycle():
    rng = Random(26)
    c = circle_from_center_radius(0.25 - 0.1j, 0.6)
    ctr, k = 0.1 + 0.1j, -0.6
    image = homothety_cycle(ctr, k, c)
    for p in sample_points(c, 16):
        q = homothety_point(ctr, k, p)
        if q is None:
            continue
        assert membership_residual(image, q) < 1e-11


def test_inversion_frozen():
    assert inversion_point(0, 0.25, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert inversion_point(0, 0.25, 0.9) == pytest.approx(0.25 / 0.9, abs=1e-15)


def test_inversion_involutive_and_product():
    rng = Random(27)
    for _ in range(40):
        ctr, p = rand_point(rng, 0.3), rand_point(rng, 0.7)
        if abs(ctr - p) < 0.05:
            continue
        r2 = rng.uniform(0.05, 0.5)
        q = inversion_point(ctr, r2, p)
        if q is None:
            continue
        assert pseudolength(ctr, p) * pseudolength(ctr, q) == pytest.approx(
            r2, abs=1e-13)
        assert inversion_point(ctr, r2, q) == pytest.approx(p, abs=1e-12)


def test_inversion_maps_cycle_to_cycle():
    ctr, r2 = 0.05 - 0.1j, 0.2
    c = circle_from_center_radius(0.3, 0.5)
    image = inversion_cycle(ctr, r2, c)
    for p in sample_points(c, 16):
        q = inversion_point(ctr, r2, p)
        if q is None:
            continue
        assert membership_residual(image, q) < 1e-11


def test_half_turn_about_origin_negates_center():
    c = circle_from_center_radius(0.3, 0.5)
    flipped = transform(DiskIsometry(0j, math.pi), c)
    assert coefficient_distance(flipped, circle_from_center_radius(-0.3, 0.5)) < 1e-13


# -------------------------------------------------------- homothetic centers

def equal_angle_spread(center, c1, c2, rng):
    """Worst crossing-angle spread over 8 random secants through a center.

    Secants are drawn through a random interior point of the first
    circle so they are guaranteed to cross it; the defining property of
    a homothetic center then makes them cross the second circle too, at
    the same angle as the first.
    """
    o1, r1 = hyp_center_radius(c1)
    worst = 0.0
    lines = 0
    attempts = 0
    while lines < 8 and attempts < 64:
        attempts += 1
        rho = math.tanh(r1 / 2.0) * 0.9 * math.sqrt(rng.random())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        probe = mobius_from_origin(o1, rho * cmath.exp(1j * phi))
        if abs(probe - center) < 1e-6:
            continue
        line = geodesic_through(center, probe)
        angles = [crossing_angle(line, cy, z)
                  for cy in (c1, c2) for z in intersect(line, cy)]
        if len(angles) < 4:
            continue
        worst = max(worst, max(angles) - min(angles))
        lines += 1
    assert lines == 8, "could not draw 8 secants through the center"
    return worst


def test_homothetic_centers_congruent_pair():
    rng = Random(28)
    c1 = circle_from_center_radius(-0.3, 0.8)
    c2 = circle_from_center_radius(0.3, 0.8)
    hc = homothetic_centers(c1, c2)
    assert hc.negative is not None
    assert abs(hc.negative) < 1e-12
    assert equal_angle_spread(hc.negative, c1, c2, rng) < 1e-9
    assert hc.positive is None  # external tangent lines diverge


def test_homothetic_centers_concentric():
    c1 = circle_from_center_radius(0.1, 0.2)
    c2 = circle_from_center_radius(0.1, 0.4)
    hc = homothetic_centers(c1, c2)
    assert hc.positive == pytest.approx(0.1, abs=1e-12)
    assert hc.negative == pytest.approx(0.1, abs=1e-12)


def test_homothetic_centers_equal_angle_spreads():
    rng = Random(30)
    for idx in range(10):
        c1, c2, _ = monge_triple(instance_rng(401, idx))
        hc = homothetic_centers(c1, c2)
        if hc.positive is not None:
            assert equal_angle_spread(hc.positive, c1, c2, rng) < 1e-9
        if hc.negative is not None:
            assert equal_angle_spread(hc.negative, c1, c2, rng) < 1e-9


def _frame_homothetic_centers(c1, c2):
    """Reference construction: intersect the geodesic through the two
    hyperbolic centers with the disk diameter through the Euclidean
    homothety center of the coefficient circles, in a frame whose origin
    sits at distance 1 from o1, perpendicular to the center line (so
    that line is never a diameter there)."""
    o1, _ = hyp_center_radius(c1)
    o2, _ = hyp_center_radius(c2)
    w = mobius_to_origin(o1, o2)
    t = mobius_from_origin(o1, 1j * math.tanh(0.5) * w / abs(w))
    d1, d2 = (GeneralizedCycle.of(*_translate_raw(t, c.a, c.b, c.c)) for c in (c1, c2))
    center_line = geodesic_through(mobius_to_origin(t, o1), mobius_to_origin(t, o2))
    e1, s1 = coefficient_center_radius(d1.a, d1.b, d1.c)
    e2, s2 = coefficient_center_radius(d2.a, d2.b, d2.c)
    out = []
    for sign in (1, -1):
        v = s2 * e1 - sign * s1 * e2
        pts = interior_intersections(center_line, diameter_with_direction(v / abs(v)))
        out.append(mobius_from_origin(t, pts[0]) if pts else None)
    return out


def _reference_gaps(pairs, gap):
    """Largest gap between the ratio-law centers and the reference over
    the pairs; a center missing on one side only fails."""
    worst = 0.0
    for c1, c2 in pairs:
        hc = homothetic_centers(c1, c2)
        for got, ref in zip((hc.positive, hc.negative), _frame_homothetic_centers(c1, c2)):
            assert (got is None) == (ref is None), (c1, c2, got, ref)
            if got is not None:
                worst = max(worst, gap(got, ref))
    return worst


def test_homothetic_centers_match_frame_reference_on_monge_pairs():
    pairs = []
    for seed in range(6):
        for idx in range(200):
            c1, c2, c3 = monge_triple(instance_rng(seed, idx, PURPOSE_MONGE))
            pairs += [(c2, c3), (c3, c1), (c1, c2)]
    assert _reference_gaps(pairs, disk_distance) <= 1e-12


def test_homothetic_centers_match_frame_reference_on_random_pairs():
    rng = Random(31)
    pairs = [tuple(circle_from_center_radius(rand_point(rng, 0.7), rng.uniform(0.1, 2.0))
                   for _ in range(2)) for _ in range(2000)]
    assert _reference_gaps(pairs, lambda p, q: abs(p - q)) <= 1e-11


# -------------------------------------------------------------- monge lines

ALL_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def test_monge_nested_on_diameter_stays_on_diameter():
    m1 = circle_from_center_radius(-0.10, 1.4)
    m2 = circle_from_center_radius(0.0, 0.75)
    m3 = circle_from_center_radius(0.12, 0.35)
    pair_centers = monge_centers(m1, m2, m3)
    for signs in ALL_PATTERNS:
        line, res, centers = monge_line(pair_centers, signs)
        assert res < 1e-12
        assert max(abs(c.imag) for c in centers) < 1e-12


def test_monge_patterns_are_stated_once():
    # the one statement of the collinear patterns, and the order of the
    # witness keys check_monge reports them under
    assert tuple(MONGE_PATTERNS.values()) == ALL_PATTERNS
    chk = check_monge(*monge_triple(instance_rng(402, 0)))
    assert list(chk.witness) == ["ppp", "pnn", "npn", "nnp"]


def test_monge_line_label_invariant():
    c1, c2, c3 = monge_triple(instance_rng(403, 1))
    line_a, _, _ = monge_line(monge_centers(c1, c2, c3), (1, 1, 1))
    line_b, _, _ = monge_line(monge_centers(c2, c3, c1), (1, 1, 1))
    assert coefficient_distance(line_a, line_b) < 1e-10
