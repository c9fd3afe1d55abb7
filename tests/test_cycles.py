"""Generalized cycles: construction, centers, intersection, tangency."""

import cmath
import itertools
import math
import struct
from collections import Counter
from decimal import Decimal, localcontext
from random import Random

import pytest

from hypfeuer.errors import (
    BoundaryPoint,
    CoincidentPoints,
    IdenticalCycles,
    NoHyperbolicCenter,
    NotACircle,
    NotACycle,
)
from hypfeuer.geom_core import as_complex, check_disk, disk_distance
from hypfeuer.cycles import (
    GeneralizedCycle,
    _arc_samples,
    arc_frame,
    _translate_raw,
    circle_from_center_radius,
    coefficient_center_radius,
    coefficient_crossings,
    coefficient_distance,
    _circle_vector,
    cycle_through,
    disk_arc,
    farthest_sample,
    geodesic_through,
    hyp_center_radius,
    intersect,
    lexell_cycle,
    meet_point,
    membership_residual,
    plane_distances,
    point_geodesic_distance,
    point_lift,
    sample_frame,
    sample_points,
    tangency_ratio,
    tangency_residual,
    through_normal,
    transform,
    unit_normal,
)
from hypfeuer.instances import PURPOSE_MONGE, instance_rng, monge_triple
from hypfeuer.power import homothetic_centers
from hypfeuer.theorems import check_inscribed_angle
from oracles import (
    diameter_with_direction,
    geodesic_meet,
    interior_intersections,
    random_isometry,
)


def rand_point(rng, r=0.7):
    return r * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


# ------------------------------------------------------------- construction

def test_normalization_scale_and_sign():
    c = GeneralizedCycle.of(-2.0, 1.0 + 0j, -0.5)
    # same locus, largest coefficient magnitude 1, leading sign positive
    assert max(abs(c.a), abs(c.b), abs(c.c)) == pytest.approx(1.0)
    assert c.a > 0


def test_of_rejects_empty_and_imaginary():
    with pytest.raises(NotACycle):
        GeneralizedCycle.of(0.0, 0j, 0.0)
    with pytest.raises(NotACycle):
        GeneralizedCycle.of(1.0, 0j, 1.0)  # |z|^2 = -1 has no locus


@pytest.mark.parametrize("c", [1.0, -2.5, 1e-300])
def test_of_rejects_the_line_at_infinity(c):
    # A = B = 0 leaves C = 0, which no point meets
    with pytest.raises(NotACycle):
        GeneralizedCycle.of(0.0, 0j, c)


def test_a_tiny_nonzero_b_is_a_line_outside_the_disk():
    line = GeneralizedCycle.of(0.0, 1e-12j, 1.0)
    assert line.a == 0.0 and line.b == 1e-12j
    assert sample_points(line, 4) == []


@pytest.mark.parametrize("a, b, c", [
    (0.0, 1e-300j, 1.0),  # a line: |B| (|B| + S) underflows to 0
    (1.0, 0.5, 0.25),  # radius-0 circles: S = 0
    (1.0, 0j, 0.0),
])
def test_a_cycle_without_an_arc_frame_gets_no_sample(a, b, c):
    # each raised ZeroDivisionError from arc_frame
    cycle = GeneralizedCycle.of(a, b, c)
    assert disk_arc(cycle, 1e-6) is None
    assert sample_points(cycle, 4) == []


@pytest.mark.parametrize("a, b, c", [
    (1.0, complex(math.nan, 0.0), 0.5),
    (1.0, 0.5j, math.nan),
    (0.5, 0j, math.nan),
    (math.nan, 0.5j, 1.0),
    (1.0, complex(0.5, math.nan), 0.5),
    (math.inf, 0j, 1.0),
    (1.0, complex(0.0, -math.inf), 1.0),
    (1.0, 0j, -math.inf),
])
def test_of_rejects_non_finite_coefficients_wherever_they_sit(a, b, c):
    # the first three once passed through as NaN coefficients: a NaN
    # that is not the first argument of max() never wins a comparison
    with pytest.raises(NotACycle):
        GeneralizedCycle.of(a, b, c)


def test_cycle_through_contains_its_points():
    rng = Random(11)
    for _ in range(60):
        pts = [rand_point(rng) for _ in range(3)]
        if min(abs(p - q) for p, q in zip(pts, pts[1:] + pts[:1])) < 1e-2:
            continue
        c = cycle_through(*pts)
        for p in pts:
            assert membership_residual(c, p) < 1e-12


def test_cycle_through_coincident_raises():
    with pytest.raises(CoincidentPoints):
        cycle_through(0.1, 0.1, 0.4j)


def test_geodesic_through_is_geodesic_and_contains():
    rng = Random(12)
    for _ in range(60):
        p, q = rand_point(rng), rand_point(rng)
        if abs(p - q) < 1e-2:
            continue
        g = geodesic_through(p, q)
        assert abs(g.c - g.a) < 1e-12
        assert membership_residual(g, p) < 1e-12
        assert membership_residual(g, q) < 1e-12


def test_geodesic_through_origin_is_line():
    g = geodesic_through(0, 0.5 + 0.2j)
    assert g.is_line


def test_diameter_with_direction():
    d = diameter_with_direction(cmath.exp(0.4j))
    assert d.is_line
    assert membership_residual(d, 0.3 * cmath.exp(0.4j)) < 1e-14


# ------------------------------------------------- against the absolute

def _absolute_crossings(cycle) -> int:
    return len(coefficient_crossings(cycle.a, cycle.b, cycle.c, 1.0, 0j, -1.0))


def test_frozen_examples_by_direct_predicate():
    # a circle has a hyperbolic center; a geodesic has C = A
    assert hyp_center_radius(circle_from_center_radius(0.2, 0.7))[1] == pytest.approx(
        0.7, abs=1e-12)
    g = geodesic_through(0.3, -0.2j)
    assert abs(g.c - g.a) < 1e-12
    # euclidean circle |z - 0.5| = 0.5 touches the absolute at 1: a
    # horocycle, with no center and one crossing
    h = GeneralizedCycle.of(1.0, -0.5 + 0j, 0.0)
    with pytest.raises(NoHyperbolicCenter):
        hyp_center_radius(h)
    assert _absolute_crossings(h) == 1
    # through two boundary points but not orthogonal: an equidistant
    e = cycle_through(0.9999999 * 1j, 0.9999999 * cmath.exp(0.3j), 0.5)
    assert abs(e.c - e.a) > 1e-3
    assert _absolute_crossings(e) == 2


def test_far_triangle_circumcycle_crosses_the_absolute_twice():
    # a triangle with a vertex pushed out has no circumscribed circle;
    # the cycle through its vertices is an equidistant
    c = cycle_through(0.999, -0.6, 0.7j)
    assert abs(c.c - c.a) > 1e-3
    assert _absolute_crossings(c) == 2


def test_exterior_and_enclosing_loci_have_no_center():
    # small euclidean circle around 2: real locus, entirely outside;
    # |z| = 2 encloses the disk, and |z + 0.5| = 1.5 encloses it touching
    # at -1: their Euclidean centers are inside, their loci are not
    for cycle in (GeneralizedCycle.of(1.0, -2.0 + 0j, 3.9),
                  GeneralizedCycle.of(1.0, 0j, -4.0),
                  GeneralizedCycle.of(1.0, 0.5 + 0j, -2.0)):
        with pytest.raises(NoHyperbolicCenter):
            hyp_center_radius(cycle)


def test_the_absolute_has_no_center():
    # |z|^2 - 1 has P = 0, so no center vector
    with pytest.raises(NoHyperbolicCenter):
        hyp_center_radius(GeneralizedCycle.of(1.0, 0j, -1.0))


# ------------------------------------------------------- centers and radii

def test_circle_center_radius_round_trip():
    rng = Random(13)
    for _ in range(50):
        ctr = rand_point(rng, 0.6)
        rho = rng.uniform(0.05, 1.5)
        c = circle_from_center_radius(ctr, rho)
        got_ctr, got_rho = hyp_center_radius(c)
        assert got_ctr == pytest.approx(ctr, abs=1e-12)
        assert got_rho == pytest.approx(rho, abs=1e-12)


def test_origin_circle_euclid_radius():
    c = circle_from_center_radius(0, 1.0)
    ec, er = coefficient_center_radius(c.a, c.b, c.c)
    assert abs(ec) < 1e-15
    assert er == pytest.approx(math.tanh(0.5), abs=1e-14)


def test_circle_points_at_stated_distance():
    c = circle_from_center_radius(0.3 - 0.1j, 0.8)
    for p in sample_points(c, 12):
        assert disk_distance(p, 0.3 - 0.1j) == pytest.approx(0.8, abs=1e-10)


def _diameter_center_radius(cycle):
    """The construction hyp_center_radius replaces: the cycle cuts the
    diameter through its Euclidean center at signed offsets s < t, and
    the hyperbolic center sits at the tanh-average of their atanh
    coordinates.  None where no interior center exists."""
    if cycle.is_line:
        return None
    ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
    if abs(ec) < 1e-15:
        return (0j, 2.0 * math.atanh(er)) if er < 1.0 else None
    s, t = abs(ec) - er, abs(ec) + er
    if t >= 1.0 or s <= -1.0:
        return None
    mid = (math.atanh(s) + math.atanh(t)) / 2.0
    return ec / abs(ec) * math.tanh(mid), math.atanh(t) - math.atanh(s)


def test_hyp_center_radius_matches_diameter_construction():
    # random coefficient triples: about 8% are circles inside the disk,
    # the rest cross the absolute, enclose it or lie beyond it
    rng = Random(19)
    drawn = circles = 0
    worst_center = worst_radius = 0.0
    for _ in range(120_000):
        try:
            c = GeneralizedCycle.of(1.0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                                    rng.uniform(-1, 1))
        except NotACycle:
            continue
        drawn += 1
        ref = _diameter_center_radius(c)
        if ref is None:
            with pytest.raises(NoHyperbolicCenter):
                hyp_center_radius(c)
            continue
        circles += 1
        center, radius = hyp_center_radius(c)
        worst_center = max(worst_center, abs(center - ref[0]))
        # both constructions round P_t^2 - |B|^2 (or its Euclidean
        # equivalent), whose relative error grows as cosh^2 of the
        # center's distance from the origin: the radius gap is measured
        # in that unit (raw gaps reach 8.5e-12 here, at centers near the
        # absolute, where the old radius is 5.2e-12 and the new 3.3e-12
        # from a 50-digit one)
        cosh_d = (1.0 + abs(center) ** 2) / (1.0 - abs(center) ** 2)
        worst_radius = max(worst_radius, abs(radius - ref[1]) / cosh_d ** 2)
    assert drawn >= 95_000
    assert circles >= 7_000
    assert worst_center <= 1e-12
    assert worst_radius <= 1e-14


def test_circle_from_center_radius_matches_translated_origin_circle():
    # the construction it replaces: |w| = tanh(rho/2) around the origin,
    # pulled back by the translation that moves the center there
    rng = Random(20)
    worst = 0.0
    for _ in range(20_000):
        ctr = rand_point(rng, 0.95)
        rho = rng.uniform(0.01, 4.0)
        r = math.tanh(rho / 2.0)
        ref = GeneralizedCycle.of(*_translate_raw(-ctr, 1.0, 0j, -r * r))
        worst = max(worst, coefficient_distance(circle_from_center_radius(ctr, rho), ref))
    assert worst <= 1e-13


def test_no_hyperbolic_center_for_equidistant():
    e = cycle_through(0.999, -0.6, 0.7j)
    with pytest.raises(NoHyperbolicCenter):
        hyp_center_radius(e)


# ------------------------------------------------------------ equivariance

def test_transform_is_equivariant():
    rng = Random(14)
    for _ in range(40):
        iso = random_isometry(rng)
        pts = [rand_point(rng) for _ in range(3)]
        if min(abs(p - q) for p, q in zip(pts, pts[1:] + pts[:1])) < 5e-2:
            continue
        c = cycle_through(*pts)
        image = transform(iso, c)
        for p in pts:
            assert membership_residual(image, iso(p)) < 1e-11


def test_transform_preserves_class():
    rng = Random(15)
    circle = circle_from_center_radius(0.2, 0.9)
    geod = geodesic_through(0.1, -0.4j)
    for _ in range(20):
        iso = random_isometry(rng)
        assert hyp_center_radius(transform(iso, circle))[1] == pytest.approx(0.9, abs=1e-12)
        image = transform(iso, geod)
        assert abs(image.c - image.a) < 1e-12


# ------------------------------------------------------------ intersection

def test_intersect_orthogonal_diameters():
    d1 = diameter_with_direction(1.0)
    d2 = diameter_with_direction(1j)
    pts = intersect(d1, d2)
    assert len(pts) == 1
    assert abs(pts[0]) < 1e-14


def test_intersect_recovers_common_points():
    rng = Random(16)
    for _ in range(40):
        p, q = rand_point(rng, 0.5), rand_point(rng, 0.5)
        if abs(p - q) < 0.1:
            continue
        r1, r2 = rand_point(rng), rand_point(rng)
        if min(abs(r1 - p), abs(r1 - q), abs(r2 - p), abs(r2 - q)) < 0.1:
            continue
        try:
            c1 = cycle_through(p, q, r1)
            c2 = cycle_through(p, q, r2)
        except CoincidentPoints:
            continue
        if coefficient_distance(c1, c2) < 1e-9:
            continue
        got = intersect(c1, c2)
        for target in (p, q):
            assert min(abs(z - target) for z in got) < 1e-9


def test_intersect_identical_raises():
    c = circle_from_center_radius(0.1, 0.5)
    d = GeneralizedCycle.of(2 * c.a, 2 * c.b, 2 * c.c)
    with pytest.raises(IdenticalCycles):
        intersect(c, d)


def test_intersect_identical_raises_on_both_branches():
    rng = Random(43)
    for _ in range(200):
        # intersect's two-line branch (diameters) and its general branch
        d = diameter_with_direction(cmath.exp(1j * rng.uniform(0, math.pi)))
        g = geodesic_through(rand_point(rng), rand_point(rng))
        for cyc in (d, g):
            twin = GeneralizedCycle.of(-3.0 * cyc.a, -3.0 * cyc.b, -3.0 * cyc.c)
            for pair in ((cyc, cyc), (cyc, twin)):
                with pytest.raises(IdenticalCycles):
                    intersect(*pair)


def test_intersect_disjoint_is_empty():
    c1 = circle_from_center_radius(-0.5, 0.3)
    c2 = circle_from_center_radius(0.5, 0.3)
    assert intersect(c1, c2) == ()


def test_intersect_parallel_lines_empty():
    # distinct diameters meet only at 0; shifted geodesic never meets a
    # parallel one even as euclidean objects
    g1 = GeneralizedCycle.of(0.0, 1.0 + 0j, 0.1)
    g2 = GeneralizedCycle.of(0.0, 1.0 + 0j, 0.3)
    assert intersect(g1, g2) == ()


# ------------------------------------------------------------ geodesic meets

def _meets_agree(g1, g2):
    """The meet of the normals' cross product (geodesic_meet) against the
    quadratic in interior_intersections: both must find a meet inside
    the disk or neither.  Returns the two meets (None when neither
    exists)."""
    old = interior_intersections(g1, g2)
    new = geodesic_meet(g1, g2)
    assert (new is None) == (not old), (g1, g2, old, new)
    return new, old[0] if old else None


def test_geodesic_meet_matches_interior_intersections_on_random_pairs():
    rng = Random(41)
    met = 0
    worst = 0.0
    for _ in range(100_000):
        g1 = geodesic_through(rand_point(rng), rand_point(rng))
        g2 = geodesic_through(rand_point(rng), rand_point(rng))
        new, old = _meets_agree(g1, g2)
        if new is not None:
            met += 1
            worst = max(worst, abs(new - old))
    assert worst <= 1e-12
    # both outcomes are well represented
    assert 40_000 < met < 90_000


def test_geodesic_meet_on_diameter_pairs():
    rng = Random(42)
    worst = 0.0
    for _ in range(2_000):
        # two diameters meet at the origin; a diameter and a geodesic
        d1 = diameter_with_direction(cmath.exp(1j * rng.uniform(0, math.pi)))
        d2 = diameter_with_direction(cmath.exp(1j * rng.uniform(0, math.pi)))
        g = geodesic_through(rand_point(rng), rand_point(rng))
        for new, old in (_meets_agree(d1, d2), _meets_agree(d1, g)):
            if new is not None:
                worst = max(worst, abs(new - old))
    assert worst <= 1e-12


def _exact_meet(g1, g2):
    """The meet of the cross product evaluated in 60-digit decimals from
    the same float coefficients: the reference both constructions are
    measured against where the meet is ill-conditioned."""
    a1, x1, y1 = (Decimal(t) for t in (g1.a, g1.b.real, g1.b.imag))
    a2, x2, y2 = (Decimal(t) for t in (g2.a, g2.b.real, g2.b.imag))
    mt, mx, my = x1 * y2 - y1 * x2, y1 * a2 - a1 * y2, a1 * x2 - x1 * a2
    root = (mt * mt - mx * mx - my * my).sqrt()
    den = mt + (root if mt > 0 else -root)
    return complex(float(mx / den), float(my / den))


def test_geodesic_meet_on_near_asymptotic_pairs():
    # g2 leaves the region |z| < 0.7 toward a point within delta of one
    # of g1's ideal endpoints, so the meet, if any, is near the absolute
    # at a small angle; there the two constructions differ by up to
    # ~1e-10, so each is measured against the exact meet instead
    rng = Random(44)
    absolute = GeneralizedCycle.of(1.0, 0j, -1.0)
    worst_new = worst_old = 0.0
    met = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(10_000):
            g1 = geodesic_through(rand_point(rng), rand_point(rng))
            end = intersect(g1, absolute)[0]
            delta = 10.0 ** rng.uniform(-9, -1) * rng.choice((-1, 1))
            g2 = geodesic_through(end * cmath.exp(1j * delta), rand_point(rng))
            new, old = _meets_agree(g1, g2)
            if new is not None:
                met += 1
                exact = _exact_meet(g1, g2)
                worst_new = max(worst_new, abs(new - exact))
                worst_old = max(worst_old, abs(old - exact))
    assert met > 3_000
    assert worst_new <= worst_old
    assert worst_new <= 1e-10


def test_geodesic_meet_on_geodesics_hugging_the_absolute():
    # both geodesics run between ideal points, the second aimed near an
    # endpoint of the first, so many hug the absolute (normals close to
    # the light cone) and meet at a small angle within ~1e-5 of it; there
    # q = m_t^2 - |m_xy|^2 cancels and the cross product is the less
    # accurate construction (~5e-10 against the quadratic's ~1e-10 from
    # the exact meet): this pins where it stands today
    rng = Random(45)
    worst = 0.0
    met = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(5_000):
            alpha, beta, gamma = (rng.uniform(0, 2 * math.pi) for _ in range(3))
            delta = 10.0 ** rng.uniform(-9, -1) * rng.choice((-1, 1))
            g1 = geodesic_through(cmath.exp(1j * alpha), cmath.exp(1j * beta))
            g2 = geodesic_through(cmath.exp(1j * (alpha + delta)), cmath.exp(1j * gamma))
            new, _ = _meets_agree(g1, g2)
            if new is not None:
                met += 1
                worst = max(worst, abs(new - _exact_meet(g1, g2)))
    assert met > 2_000
    assert worst <= 1e-9


def test_geodesic_meet_frozen():
    assert abs(geodesic_meet(diameter_with_direction(1.0), diameter_with_direction(1j))) < 1e-15
    # the geodesic through +-0.5j crosses the real axis at the origin
    assert abs(geodesic_meet(geodesic_through(0.5j, -0.5j), diameter_with_direction(1.0))) < 1e-15
    # ultraparallel: mirror images in the imaginary axis, neither reaching it
    g1 = geodesic_through(0.3 + 0.3j, 0.3 - 0.3j)
    g2 = geodesic_through(-0.3 + 0.3j, -0.3 - 0.3j)
    assert geodesic_meet(g1, g2) is None


# ---------------------------------------------------------------- tangency

def test_tangency_frozen_external():
    c1 = circle_from_center_radius(0.0, 0.6)
    c2 = circle_from_center_radius(math.tanh(0.5), 0.4)  # centers 1.0 apart
    assert tangency_residual(c1, c2) < 1e-12
    assert tangency_ratio(c1, c2) == pytest.approx(-1.0, abs=1e-10)


def test_tangency_frozen_internal():
    c1 = circle_from_center_radius(0.0, 0.6)
    c3 = circle_from_center_radius(math.tanh(0.1), 0.4)  # centers 0.2 apart
    assert tangency_residual(c1, c3) < 1e-12
    assert tangency_ratio(c1, c3) == pytest.approx(1.0, abs=1e-10)


def test_tangency_concentric_not_tangent():
    c1 = circle_from_center_radius(0.0, 0.6)
    c4 = circle_from_center_radius(0.0, 0.3)
    assert tangency_residual(c1, c4) > 1e-2


def test_tangency_with_a_point_circle_is_not_a_circle():
    # the circle of center 0.5 and radius 0, which a radius below about
    # 1e-8 rounds to: |B|^2 - AC is 0, and the defect would divide by it
    point = GeneralizedCycle.of(1.0, -0.5 + 0j, 0.25)
    assert point.b.real ** 2 - point.a * point.c == 0.0
    with pytest.raises(NotACircle):
        tangency_residual(circle_from_center_radius(0.0, 0.6), point)
    with pytest.raises(NotACircle):
        tangency_residual(point, point)
    # the ratio divides by the same self-product, behind the same guard
    for other in (circle_from_center_radius(0.0, 0.6), GeneralizedCycle.of(0.0, 1j, 0.0),
                  point):
        with pytest.raises(NotACircle):
            tangency_ratio(point, other)
        with pytest.raises(NotACircle):
            tangency_ratio(other, point)


def test_tangency_scale_invariant():
    c1 = circle_from_center_radius(0.1j, 0.5)
    c2 = circle_from_center_radius(0.4, 0.45)
    scaled = GeneralizedCycle.of(3 * c2.a, 3 * c2.b, 3 * c2.c)
    assert tangency_residual(c1, c2) == pytest.approx(
        tangency_residual(c1, scaled), rel=1e-12)


# ----------------------------------------------------- distances to a line

def test_point_geodesic_distance_frozen():
    real_axis = diameter_with_direction(1.0)
    assert point_geodesic_distance(0.3j, real_axis) == pytest.approx(
        2.0 * math.atanh(0.3), abs=1e-13)


def test_point_geodesic_distance_tiny_is_stable():
    # naive |grad|-free formulas cancel catastrophically down here
    real_axis = diameter_with_direction(1.0)
    z = 0.2 + 1e-10j
    expect = 2.0 * 1e-10 / (1.0 - abs(z) ** 2)
    assert point_geodesic_distance(z, real_axis) == pytest.approx(expect, rel=1e-4)


def test_point_on_geodesic_distance_zero():
    rng = Random(17)
    for _ in range(30):
        p, q = rand_point(rng), rand_point(rng)
        if abs(p - q) < 0.1:
            continue
        g = geodesic_through(p, q)
        assert point_geodesic_distance(p, g) < 1e-12


def test_sample_points_lie_on_cycle():
    rng = Random(18)
    for _ in range(30):
        c = cycle_through(rand_point(rng), rand_point(rng), rand_point(rng))
        pts = sample_points(c, 16)
        assert len(pts) >= 8
        for p in pts:
            assert abs(p) < 1.0
            assert membership_residual(c, p) < 1e-9


@pytest.mark.parametrize("cycle", [
    circle_from_center_radius(0j, 0.8),
    GeneralizedCycle.of(-2.0, 0j, 0.5),  # |z| = 1/2, its signs turned by of
], ids=["hyperbolic", "coefficients"])
def test_a_circle_about_the_origin_is_sampled_on_it(cycle):
    # B = 0: every point of the circle is nearest the origin, so its
    # frame starts on the positive real axis and runs counterclockwise
    radius = coefficient_center_radius(cycle.a, cycle.b, cycle.c)[1]
    m, t, kappa = arc_frame(cycle)
    assert (m.imag, t, kappa) == (0.0, 1j, cycle.a / math.sqrt(-cycle.a * cycle.c))
    assert m.real == pytest.approx(radius, abs=1e-15)
    pts = sample_points(cycle, 24)
    between = _arc_samples(cycle, pts[0], pts[8], 4)
    far = farthest_sample(sample_frame(cycle), 24, pts[3])
    assert len(pts) == 24 and len(between) == 4
    assert far == sorted(pts, key=lambda z: -abs(z - pts[3]))[0]
    for z in pts + between:
        assert abs(abs(z) - radius) <= 1e-15
    chk = check_inscribed_angle(cycle, pts[0], pts[8])
    assert chk.status == "pass", chk


def test_a_whole_circle_is_sampled_all_round_less_the_pad():
    # from just past the antipode of m, through m, to just before it:
    # the first and last samples sit 1e-3 of the circle either side of
    # the antipode, and the arc between two samples runs through m
    c = circle_from_center_radius(0.3 - 0.2j, 0.7)
    m, t, kappa, half = sample_frame(c)
    assert half == math.pi / kappa * (1.0 - 2e-3)
    ec, er = coefficient_center_radius(c.a, c.b, c.c)
    pts = sample_points(c, 24)
    antipode = 2.0 * ec - m
    for z in (pts[0], pts[-1]):
        assert abs(z - antipode) == pytest.approx(2.0 * er * math.sin(1e-3 * math.pi), rel=1e-9)
    assert abs(pts[0] - pts[-1]) == pytest.approx(2.0 * er * math.sin(2e-3 * math.pi), rel=1e-9)
    between = _arc_samples(c, pts[1], pts[22], 21)
    assert len(between) == 21 and abs(between[10] - m) < 1e-15


@pytest.mark.parametrize("coefficients", [
    (0.0, 1.0, -3.0),  # the line x = 1.5
    (1.0, 0j, -4.0),  # the circle |z| = 2 about the origin
    (1.0, -3 + 0j, 8.0),  # a circle of radius 1 about 3
])
def test_sample_points_of_a_cycle_outside_the_disk_are_none(coefficients):
    assert sample_points(GeneralizedCycle.of(*coefficients), 4) == []


# ------------------------------------- one-pass kernel against its reference
#
# The geodesic kernel normalizes a cycle in one pass and writes the lift
# and evaluate out inline.  The functions below are the plain
# compositions it replaced, kept as oracles: every result must keep its
# exact bits (sign of zero included) and every error its type.  The
# meet of two geodesics (through_normal, then meet_point) is held to
# its written-out composition the same way.

def _reference_of(a, b, c):
    """GeneralizedCycle.of as a composition of max() and a loop; finite
    inputs only (it lets a NaN through)."""
    a, b, c = float(a), complex(b), float(c)
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0 or not math.isfinite(scale):
        raise NotACycle("zero or non-finite coefficients")
    a, b, c = a / scale, b / scale, c / scale
    if a != 0.0 and abs(b) ** 2 - a * c < -1e-14:
        raise NotACycle("negative discriminant: empty locus")
    if a == 0.0 and b == 0.0:
        raise NotACycle("A = B = 0: empty locus")
    for lead in (a, b.real, b.imag, c):
        if abs(lead) > 1e-14:
            if lead < 0.0:
                a, b, c = -a, -b, -c
            break
    return GeneralizedCycle(a, b, c)


def _reference_through(p, q):
    zp, zq = as_complex(p), as_complex(q)
    if abs(zp - zq) < 1e-12:
        raise CoincidentPoints("geodesic through coincident points")
    u = (abs(zp) ** 2 + 1.0, 2.0 * zp.real, 2.0 * zp.imag)
    v = (abs(zq) ** 2 + 1.0, 2.0 * zq.real, 2.0 * zq.imag)
    n0 = u[1] * v[2] - u[2] * v[1]
    n1 = u[2] * v[0] - u[0] * v[2]
    n2 = u[0] * v[1] - u[1] * v[0]
    return _reference_of(n0, complex(n1, n2), n0)


def _reference_evaluate(cycle, p):
    z = as_complex(p)
    return cycle.a * abs(z) ** 2 + 2.0 * (cycle.b.conjugate() * z).real + cycle.c


def _reference_distance(p, geo):
    z = check_disk(p)
    norm2 = abs(geo.b) ** 2 - geo.a * geo.a
    if norm2 <= 0.0:
        raise NotACycle("degenerate geodesic coefficients")
    return math.asinh(abs(_reference_evaluate(geo, z))
                      / ((1.0 - abs(z) ** 2) * math.sqrt(norm2)))


def _reference_to_disk(t, x, y):
    q = t * t - x * x - y * y
    if q <= 0.0:
        return None
    return complex(x, y) / (t + math.copysign(math.sqrt(q), t))


def _reference_meet(g1, g2):
    a1, x1, y1 = g1.a, g1.b.real, g1.b.imag
    a2, x2, y2 = g2.a, g2.b.real, g2.b.imag
    mt, mx, my = x1 * y2 - y1 * x2, y1 * a2 - a1 * y2, a1 * x2 - x1 * a2
    return _reference_to_disk(mt, mx, my)


def _bits(value):
    """The exact bits of a result (None, a float, a complex or a cycle):
    its floats packed as IEEE doubles, which tells signed zeros apart."""
    if value is None:
        return None
    if isinstance(value, GeneralizedCycle):
        return _PACK4(value.a, value.b.real, value.b.imag, value.c)
    if isinstance(value, complex):
        return _PACK2(value.real, value.imag)
    return _PACK1(value)


_PACK1, _PACK2, _PACK4 = (struct.Struct(f"<{n}d").pack for n in (1, 2, 4))


def _outcome(fn, *args):
    """("value", bits) or ("raise", exception type) of one call."""
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # the type is the outcome compared
        return "raise", type(exc)


def _coefficient(rng, scale):
    """A coefficient of either sign: zero, inside or next to the sign
    convention's 1e-14 band, or of ordinary size."""
    kind = rng.random()
    if kind < 0.25:
        return 0.0
    size = 10.0 ** (rng.random() * 0.6 - 14.3) if kind < 0.5 else rng.random()
    return (size if rng.random() < 0.5 else -size) * scale


def _coefficient_triple(rng):
    form = rng.random()
    if form < 0.15:  # int coefficients
        return int(rng.random() * 7) - 3, int(rng.random() * 7) - 3, int(rng.random() * 7) - 3
    scale = 10.0 ** (rng.random() * 6 - 3)
    a, c = _coefficient(rng, scale), _coefficient(rng, scale)
    b = complex(_coefficient(rng, scale), _coefficient(rng, scale))
    if form < 0.3:  # b as a real number
        return a, b.real, c
    if form < 0.6:  # a geodesic's triple, C = A
        return a, b, a
    return a, b, c


def _kernel_point(rng):
    """An interior point drawn from one of the regions the kernel must
    handle, as a complex, or for points on the real axis a float, or the
    int 0 for the origin."""
    region = rng.random()
    if region < 0.1:
        return 0 if region < 0.05 else 0j
    if region < 0.25:  # on the real axis
        x = rng.random() * 1.8 - 0.9
        return x if region < 0.2 else complex(x, 0.0)
    if region < 0.55:  # within 0.02 of the absolute
        return (1.0 - 10.0 ** (-1.7 - 9.3 * rng.random())) * cmath.exp(6.283185307179586j * rng.random())
    return rand_point(rng)


def _geodesic_points(rng):
    """Two points of a geodesic: random, a diameter (through the origin,
    or through p and a negative multiple of it), or nearly a diameter
    (A inside the sign convention's band)."""
    p = _kernel_point(rng)
    kind = rng.random()
    if kind < 0.4:
        return p, _kernel_point(rng)
    zp = as_complex(p)
    if kind < 0.6:
        return p, -(0.01 + 0.98 * rng.random()) * zp
    if kind < 0.7:
        return 0.0, p
    return zp, -zp * (1.0 + (1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** (-15 + 3 * rng.random()))


def test_one_pass_kernel_keeps_the_reference_bits():
    # 100,000 draws, each feeding all four kernels: a coefficient triple,
    # a point pair, a (point, geodesic) pair and a geodesic pair made of
    # this draw's geodesic and the last one
    rng = Random(61)
    seen = {"of": set(), "through": set(), "meet": set()}
    g = h = geodesic_through(0.1, 0.2j)
    for _ in range(100_000):
        triple = _coefficient_triple(rng)
        new = _outcome(GeneralizedCycle.of, *triple)
        assert new == _outcome(_reference_of, *triple), triple
        seen["of"].add(new[0])

        p, q = _geodesic_points(rng)
        new = _outcome(geodesic_through, p, q)
        assert new == _outcome(_reference_through, p, q), (p, q)
        seen["through"].add(new[0])
        if new[0] == "value":
            g, h = geodesic_through(p, q), g

        x = _kernel_point(rng)
        assert _outcome(point_geodesic_distance, x, g) == _outcome(_reference_distance, x, g)
        assert _bits(g.evaluate(x)) == _bits(_reference_evaluate(g, x))

        new = _outcome(geodesic_meet, g, h)
        assert new == _outcome(_reference_meet, g, h), (g, h)
        seen["meet"].add("none" if new[1] is None else new[0])
    # every outcome is exercised: errors, and meets inside and outside
    assert seen["of"] == seen["through"] == {"value", "raise"}
    assert {"value", "none"} <= seen["meet"]


def test_one_pass_kernel_raises_what_the_reference_raises():
    rng = Random(62)
    circle = circle_from_center_radius(0.3 - 0.1j, 0.5)
    for _ in range(2_000):
        p = rand_point(rng)
        g = geodesic_through(p, rand_point(rng))
        twin = GeneralizedCycle.of(-2.0 * g.a, -2.0 * g.b, -2.0 * g.c)
        edge = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * (1.0 + rng.uniform(-1e-12, 1e-3))
        cases = [
            # coincident points
            (geodesic_through, (p, p + 1e-13), _reference_through, (p, p + 1e-13),
             CoincidentPoints),
            # a point on or beyond the absolute
            (point_geodesic_distance, (edge, g), _reference_distance, (edge, g),
             BoundaryPoint),
            # a circle is no geodesic
            (point_geodesic_distance, (p, circle), _reference_distance, (p, circle),
             NotACycle),
        ]
        for new_fn, new_args, ref_fn, ref_args, error in cases:
            new = _outcome(new_fn, *new_args)
            assert new == ("raise", error), (new_fn.__name__, new_args)
            assert new == _outcome(ref_fn, *ref_args)
    for triple in ((0.0, 0j, 0.0), (0, 0, 0), (1.0, 0j, 1.0), (1e-300, 0j, 1e-300)):
        assert _outcome(GeneralizedCycle.of, *triple) == ("raise", NotACycle)
        assert _outcome(_reference_of, *triple) == ("raise", NotACycle)


def test_point_geodesic_distance_checks_the_point_then_the_geodesic():
    # a point on the absolute raises before the cycle is read, and a
    # cycle that is no geodesic raises
    line = geodesic_through(0.1, 0.2j)
    circle = circle_from_center_radius(0.0, 1.0)
    for cycle in (line, circle):
        with pytest.raises(BoundaryPoint):
            point_geodesic_distance(1.0, cycle)
    with pytest.raises(NotACycle):
        point_geodesic_distance(0.3j, circle)


# --------------------------------------- homogeneous rows against references
#
# cycle_through and lexell_cycle build their cycles from homogeneous rows
# (cycle_through_rows).  The cofactor expansion on three points and the
# locus through the inverses z / |z|^2 that the rows replaced are kept
# here as oracles: a point triple keeps its exact bits, and the locus
# stays within rounding wherever a base end is away from the disk center.

def _reference_cycle_through(p, q, r):
    if abs(p - q) < 1e-12 or abs(q - r) < 1e-12 or abs(r - p) < 1e-12:
        raise CoincidentPoints("cycle through coincident points")
    s0, x0, y0 = abs(p) ** 2, p.real, p.imag
    s1, x1, y1 = abs(q) ** 2, q.real, q.imag
    s2, x2, y2 = abs(r) ** 2, r.real, r.imag
    dy12, dy02, dy01 = y1 - y2, y0 - y2, y0 - y1
    dx12, dx02, dx01 = x1 - x2, x0 - x2, x0 - x1
    a = x0 * dy12 - x1 * dy02 + x2 * dy01
    c12 = s0 * dy12 - s1 * dy02 + s2 * dy01
    c13 = s0 * dx12 - s1 * dx02 + s2 * dx01
    c14 = (s0 * (x1 * y2 - x2 * y1)
           - s1 * (x0 * y2 - x2 * y0)
           + s2 * (x0 * y1 - x1 * y0))
    return GeneralizedCycle.of(a, complex(-c12 / 2.0, c13 / 2.0), -c14)


def _reference_lexell_cycle(a, b, x0):
    return _reference_cycle_through(a / abs(a) ** 2, b / abs(b) ** 2, x0)


def _ideal_point(rng):
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _through_triple(rng):
    """Three points: disk points, ideal points on the absolute, a
    collinear triple, or a triple with a repeated point."""
    kind = rng.random()
    if kind < 0.4:
        return "disk", (_kernel_point(rng), _kernel_point(rng), _kernel_point(rng))
    if kind < 0.6:  # the arc draw's two ideal ends and a disk point
        return "ideal", (_ideal_point(rng), _ideal_point(rng), _kernel_point(rng))
    if kind < 0.7:
        return "ideal", (_ideal_point(rng), _ideal_point(rng), _ideal_point(rng))
    if kind < 0.9:
        p, q = rand_point(rng, 0.9), rand_point(rng, 0.9)
        return "collinear", (p, q, p + rng.uniform(-1.0, 2.0) * (q - p))
    p = _kernel_point(rng)
    return "repeated", (p, _kernel_point(rng), p)


def test_cycle_through_keeps_the_bits_of_the_cofactor_formula():
    rng = Random(81)
    seen = Counter()
    for _ in range(4_000):
        kind, points = _through_triple(rng)
        new = _outcome(cycle_through, *points)
        assert new == _outcome(_reference_cycle_through, *points), points
        seen[kind, new[0]] += 1
    assert {("disk", "value"), ("ideal", "value"), ("collinear", "value"),
            ("repeated", "raise")} <= set(seen)
    assert seen["ideal", "value"] + seen["collinear", "value"] >= 1_000


def test_lexell_cycle_matches_the_inverse_point_construction():
    rng = Random(82)
    worst, count = 0.0, 0
    while count < 3_000:
        a, b, x0 = rand_point(rng, 0.9), rand_point(rng, 0.9), rand_point(rng, 0.9)
        if abs(a) < 0.05 or abs(b) < 0.05 or abs(a - b) < 1e-3:
            continue
        worst = max(worst, coefficient_distance(lexell_cycle(a, b, x0),
                                                _reference_lexell_cycle(a, b, x0)))
        count += 1
    assert worst <= 1e-12


# ----------------------------------------------------- hyperboloid normals

def test_plane_distances_are_point_geodesic_distances():
    # the plane kernel reads a point as any positive multiple of its
    # hyperboloid vector, here the lift (1 + |z|^2, 2x, 2y), and a
    # geodesic as its unit normal
    rng = Random(71)
    worst = 0.0
    for _ in range(3_000):
        x = rand_point(rng, 0.9)
        ends = [(rand_point(rng, 0.9), rand_point(rng, 0.9)) for _ in range(3)]
        normals = [unit_normal(through_normal(point_lift(p), point_lift(q)))
                   for p, q in ends]
        got = plane_distances(point_lift(x), normals)
        want = [point_geodesic_distance(x, geodesic_through(p, q)) for p, q in ends]
        worst = max(worst, max(abs(g - w) / max(1.0, w) for g, w in zip(got, want)))
    assert worst < 1e-13
    assert plane_distances(point_lift(0.3j), []) == []


def test_unit_normal_scale_and_degenerate_normals():
    n = unit_normal(through_normal(point_lift(0.1 + 0.2j), point_lift(-0.4j)))
    assert n[1] * n[1] + n[2] * n[2] - n[0] * n[0] == pytest.approx(1.0, abs=1e-15)
    # a timelike or null "normal" is no geodesic
    for bad in ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        with pytest.raises(NotACycle):
            unit_normal(bad)


def test_meet_point_is_the_one_reader_of_a_vector():
    # a circle's center and both homothetic centers of two circles are
    # meet_point of their hyperboloid vectors, bit for bit
    rng = Random(72)
    for _ in range(2_000):
        c = circle_from_center_radius(rand_point(rng, 0.9), rng.uniform(0.01, 2.0))
        assert _bits(meet_point(*_circle_vector(c)[:3])) == _bits(hyp_center_radius(c)[0])
    for i in range(500):
        triple = monge_triple(instance_rng(0, i, PURPOSE_MONGE))
        for c1, c2 in itertools.combinations(triple, 2):
            t1, x1, y1, _, s1 = _circle_vector(c1)
            t2, x2, y2, _, s2 = _circle_vector(c2)
            hc = homothetic_centers(c1, c2)
            for sign, got in ((-1.0, hc.positive), (1.0, hc.negative)):
                want = meet_point(s2 * t1 + sign * s1 * t2, s2 * x1 + sign * s1 * x2,
                                  s2 * y1 + sign * s1 * y2)
                assert _bits(got) == _bits(want)
    assert meet_point(1.0, 0.0, 0.0) == 0j
    assert meet_point(1.0, 1.0, 0.0) is None  # null: an ideal point
    assert meet_point(0.0, 1.0, 0.0) is None  # spacelike: ultra-ideal
    # timelike, though q = (t^2 - x^2) - y^2 cancels from terms near 1 and
    # 2^-39 to about 2^-77: the point is about 2.6e-12 from the absolute,
    # and it is read as that point, not as none
    t, x = 1.0, 1.0 - 2.0 ** -40
    y = math.sqrt(2.0 ** -39 - 2.0 ** -77)
    z = meet_point(t, x, y)
    assert z is not None and 1.0 - 1e-9 < abs(z) < 1.0
    with localcontext() as ctx:
        ctx.prec = 50
        dt, dx, dy = Decimal(t), Decimal(x), Decimal(y)
        q = dt * dt - dx * dx - dy * dy
        assert q > 0
        den = dt + q.sqrt()
        exact = complex(float(dx / den), float(dy / den))
    assert abs(z - exact) < 1e-12
