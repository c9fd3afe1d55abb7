"""Pseudolength machinery: powers, radical axes, homothety, inversion, Monge."""

import cmath
import math
from random import Random

import pytest

from hypfeuer.errors import (
    CenterInput,
    ConcentricCycles,
    ImageOutsideDisk,
    InvalidSignPattern,
)
from hypfeuer.geom_core import hyp_distance, mobius_from_origin, mobius_to_origin
from hypfeuer.cycles import (
    GeneralizedCycle,
    _translate_raw,
    circle_from_center_radius,
    coefficient_distance,
    cycle_through,
    diameter_with_direction,
    geodesic_through,
    hyp_center_radius,
    interior_intersections,
    intersect,
    membership_residual,
    sample_points,
    transform,
)
from hypfeuer.cevians import build_config
from hypfeuer.geom_core import DiskIsometry, Triangle
from hypfeuer.instances import PURPOSE_MONGE, instance_rng, monge_triple, random_triangle
from hypfeuer.power import (
    crossing_angle,
    homothetic_centers,
    homothety_cycle,
    homothety_point,
    inversion_cycle,
    inversion_point,
    monge_centers,
    monge_line,
    power_of_point,
    pseudolength,
    radical_axis,
    radical_center,
    rotation_half_turn_cycle,
)


def rand_point(rng, r=0.6):
    return r * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


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
            math.tanh(hyp_distance(p, q) / 2.0), abs=1e-12)


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
        except ConcentricCycles:
            continue
        for p in sample_points(axis, 8):
            assert abs(power_of_point(p, c1) - power_of_point(p, c2)) < 1e-10


def test_radical_axis_rejects_geodesic_member():
    c = circle_from_center_radius(0.2, 0.5)
    g = geodesic_through(0.1, 0.5j)
    with pytest.raises(ConcentricCycles):
        radical_axis(c, g)


def test_radical_axis_concentric_raises():
    c1 = circle_from_center_radius(0.1, 0.4)
    c2 = circle_from_center_radius(0.1, 0.8)
    with pytest.raises(ConcentricCycles):
        radical_axis(c1, c2)


# ----------------------------------------------------------- radical center

def test_radical_center_symmetric_triple_at_origin():
    circles = [circle_from_center_radius(0.3 * cmath.exp(2j * math.pi * k / 3), 0.5)
               for k in range(3)]
    center, residual = radical_center(*circles)
    assert abs(center) < 1e-12
    assert residual < 1e-12


def test_pseudoaltitude_circles_meet_at_orthocenter():
    # the vertex-pair/foot-pair circles are concyclic four at a time and
    # their radical center is the pseudoaltitude concurrency point
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
        center, residual = radical_center(c_ab, c_ac, c_bc)
        assert residual < 1e-10
        assert hyp_distance(center, cfg.pseudo_orthocenter) < 1e-9
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
        try:
            img = homothety_point(ctr, k, p)
        except ImageOutsideDisk:
            continue
        assert pseudolength(ctr, img) == pytest.approx(
            abs(k) * pseudolength(ctr, p), abs=1e-13)


def test_homothety_image_outside_raises():
    with pytest.raises(ImageOutsideDisk):
        homothety_point(0, 3.0, 0.5)


def test_homothety_maps_cycle_to_cycle():
    rng = Random(26)
    c = circle_from_center_radius(0.25 - 0.1j, 0.6)
    ctr, k = 0.1 + 0.1j, -0.6
    image = homothety_cycle(ctr, k, c)
    for p in sample_points(c, 16):
        try:
            q = homothety_point(ctr, k, p)
        except ImageOutsideDisk:
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
        try:
            q = inversion_point(ctr, r2, p)
        except ImageOutsideDisk:
            continue
        assert pseudolength(ctr, p) * pseudolength(ctr, q) == pytest.approx(
            r2, abs=1e-13)
        assert inversion_point(ctr, r2, q) == pytest.approx(p, abs=1e-12)


def test_inversion_center_input_raises():
    with pytest.raises(CenterInput):
        inversion_point(0.2, 0.1, 0.2)


def test_inversion_maps_cycle_to_cycle():
    ctr, r2 = 0.05 - 0.1j, 0.2
    c = circle_from_center_radius(0.3, 0.5)
    image = inversion_cycle(ctr, r2, c)
    for p in sample_points(c, 16):
        try:
            q = inversion_point(ctr, r2, p)
        except ImageOutsideDisk:
            continue
        assert membership_residual(image, q) < 1e-11


def test_half_turn_about_origin_negates_center():
    c = circle_from_center_radius(0.3, 0.5)
    flipped = rotation_half_turn_cycle(0, c)
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
    e1, s1 = d1.euclid_center_radius()
    e2, s2 = d2.euclid_center_radius()
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
    assert _reference_gaps(pairs, hyp_distance) <= 1e-12


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


def test_monge_invalid_sign_patterns():
    pair_centers = monge_centers(*monge_triple(instance_rng(402, 0)))
    for signs in ((1, 1, -1), (-1, -1, -1), (1, -1, 1)):
        with pytest.raises(InvalidSignPattern):
            monge_line(pair_centers, signs)


def test_monge_line_label_invariant():
    c1, c2, c3 = monge_triple(instance_rng(403, 1))
    line_a, _, _ = monge_line(monge_centers(c1, c2, c3), (1, 1, 1))
    line_b, _, _ = monge_line(monge_centers(c2, c3, c1), (1, 1, 1))
    assert coefficient_distance(line_a, line_b) < 1e-10
