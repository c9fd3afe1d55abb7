"""Generalized cycles: construction, classification, intersection, tangency."""

import cmath
import math
from decimal import Decimal, localcontext
from random import Random

import pytest

from hypfeuer.errors import (
    AmbiguousClass,
    CoincidentPoints,
    IdenticalCycles,
    NoHyperbolicCenter,
    NotACycle,
)
from hypfeuer.geom_core import hyp_distance, random_isometry
from hypfeuer.cycles import (
    CycleClass,
    GeneralizedCycle,
    _translate_raw,
    circle_from_center_radius,
    classify,
    coefficient_distance,
    cycle_through,
    diameter_with_direction,
    geodesic_meet,
    geodesic_through,
    hyp_center_radius,
    interior_intersections,
    intersect,
    membership_residual,
    point_geodesic_distance,
    sample_points,
    tangency_ratio,
    tangency_residual,
    transform,
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
        assert classify(g) is CycleClass.GEODESIC
        assert membership_residual(g, p) < 1e-12
        assert membership_residual(g, q) < 1e-12


def test_geodesic_through_origin_is_line():
    g = geodesic_through(0, 0.5 + 0.2j)
    assert g.is_line


def test_diameter_with_direction():
    d = diameter_with_direction(cmath.exp(0.4j))
    assert d.is_line
    assert membership_residual(d, 0.3 * cmath.exp(0.4j)) < 1e-14


# ----------------------------------------------------------- classification

def test_classify_frozen_examples():
    assert classify(circle_from_center_radius(0.2, 0.7)) is CycleClass.HYP_CIRCLE
    assert classify(geodesic_through(0.3, -0.2j)) is CycleClass.GEODESIC
    # euclidean circle |z - 0.5| = 0.5 touches the absolute at 1
    assert classify(GeneralizedCycle.of(1.0, -0.5 + 0j, 0.0)) is CycleClass.HOROCYCLE
    # through two boundary points but not orthogonal: equidistant
    e = cycle_through(0.9999999 * 1j, 0.9999999 * cmath.exp(0.3j), 0.5)
    assert classify(e) is CycleClass.EQUIDISTANT


def test_classify_far_triangle_circumcircle_equidistant():
    # a triangle with a vertex pushed out has no circumscribed circle;
    # the cycle through its vertices crosses the absolute
    c = cycle_through(0.999, -0.6, 0.7j)
    assert classify(c) is CycleClass.EQUIDISTANT


def test_classify_ambiguous_band():
    delta = 2.5e-12
    near = GeneralizedCycle.of(1.0, -0.5 - delta + 0j, 0.0)
    with pytest.raises(AmbiguousClass):
        classify(near)


def test_classify_exterior_locus_rejected():
    # small euclidean circle around 2: real locus, entirely outside
    with pytest.raises(NotACycle):
        classify(GeneralizedCycle.of(1.0, -2.0 + 0j, 3.9))
    # |z| = 2 encloses the disk, and |z + 0.5| = 1.5 encloses it touching
    # at -1: their Euclidean centers are inside, their loci are not
    for enclosing in (GeneralizedCycle.of(1.0, 0j, -4.0),
                      GeneralizedCycle.of(1.0, 0.5 + 0j, -2.0)):
        with pytest.raises(NotACycle):
            classify(enclosing)


def test_classify_rejects_the_absolute():
    # |z|^2 - 1 has P = 0: its absolute discriminant is exactly 0, and its
    # k = -1 used to read as a horocycle inside the disk
    with pytest.raises(NotACycle):
        classify(GeneralizedCycle.of(1.0, 0j, -1.0))


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
    ec, er = c.euclid_center_radius()
    assert abs(ec) < 1e-15
    assert er == pytest.approx(math.tanh(0.5), abs=1e-14)


def test_circle_points_at_stated_distance():
    c = circle_from_center_radius(0.3 - 0.1j, 0.8)
    for p in sample_points(c, 12):
        assert hyp_distance(p, 0.3 - 0.1j) == pytest.approx(0.8, abs=1e-10)


def _diameter_center_radius(cycle):
    """The construction hyp_center_radius replaces: the cycle cuts the
    diameter through its Euclidean center at signed offsets s < t, and
    the hyperbolic center sits at the tanh-average of their atanh
    coordinates.  None where no interior center exists."""
    if cycle.is_line:
        return None
    ec, er = cycle.euclid_center_radius()
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
        assert classify(transform(iso, circle)) is CycleClass.HYP_CIRCLE
        assert classify(transform(iso, geod)) is CycleClass.GEODESIC


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
    """geodesic_meet against the quadratic in interior_intersections, the
    construction it replaces: both must find a meet or neither.  Returns
    the two meets (None when neither exists)."""
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


def test_geodesic_meet_identical_raises_where_intersect_does():
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
                with pytest.raises(IdenticalCycles):
                    geodesic_meet(*pair)


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
