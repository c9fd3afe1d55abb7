"""Point arithmetic, angles, areas, and the isometry group."""

import cmath
import math
import sys
from decimal import Decimal, localcontext
from random import Random

import pytest

from hypfeuer.errors import (
    BoundaryPoint,
    DegenerateAngle,
    DegenerateTriangle,
)
from hypfeuer.cycles import cycle_through
from hypfeuer.geom_core import (
    COINCIDENT_EPS,
    DiskIsometry,
    Triangle,
    as_complex,
    check_disk,
    disk_distance,
    mobius_from_origin,
    mobius_to_origin,
    sigma,
    signed_angle,
    signed_area,
    triangle_area,
    wrap_angle,
)
from oracles import hyp_midpoint, random_isometry


def rand_point(rng, r=0.8):
    return r * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


# ------------------------------------------------------------------ distance

def test_distance_frozen_value():
    # 2 atanh(1/2) = ln 3
    assert disk_distance(0, 0.5) == pytest.approx(math.log(3.0), abs=1e-14)


def test_distance_symmetry_and_zero():
    rng = Random(1)
    for _ in range(50):
        p, q = rand_point(rng), rand_point(rng)
        assert disk_distance(p, q) == pytest.approx(disk_distance(q, p), abs=1e-13)
        assert disk_distance(p, p) == 0.0


def test_distance_triangle_inequality():
    rng = Random(2)
    for _ in range(100):
        p, q, r = (rand_point(rng) for _ in range(3))
        assert disk_distance(p, r) <= disk_distance(p, q) + disk_distance(q, r) + 1e-12


def test_distance_additive_along_diameter():
    # collinear points through the origin add exactly
    a, b = -0.3, 0.6
    assert disk_distance(a, b) == pytest.approx(
        disk_distance(a, 0) + disk_distance(0, b), abs=1e-13)


def _decimal_distance(p, q):
    """2 asinh(|q - p| / sqrt((1 - |p|^2)(1 - |q|^2))) at 50 digits from
    the float inputs, with asinh(x) = ln(x + sqrt(x^2 + 1))."""
    with localcontext() as ctx:
        ctx.prec = 50
        px, py, qx, qy = map(Decimal, (p.real, p.imag, q.real, q.imag))
        x = (((qx - px) ** 2 + (qy - py) ** 2)
             / ((1 - px * px - py * py) * (1 - qx * qx - qy * qy))).sqrt()
        return float(2 * (x + (x * x + 1).sqrt()).ln())


# three vertices 1e-11 from the absolute; the pseudolength of the first
# and the last rounds to 1
NEAR_ABSOLUTE = (0.99999999999 + 0j, 0.9999500003866668 + 0.0099998333338666701j,
                 0.9998000066565798 + 0.019998666693133094j)


def test_distance_matches_50_digits():
    # up to the rounding of 1 - |z|^2, about eps / (1 - |z|^2) in d, and
    # of the result; points from the middle of the disk to 1e-12 from
    # the absolute, and pairs 1e-9 apart
    rng = Random(17)
    points = []
    for _ in range(1_000):
        if rng.random() < 0.5:
            r = rng.uniform(0.0, 0.95)
        else:
            r = 1.0 - 10.0 ** rng.uniform(-11.9, -2.0)
        points.append(r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    pairs = list(zip(points, points[1:])) + [(p, p + 1e-9j) for p in points if abs(p) < 0.9]
    pairs += [(NEAR_ABSOLUTE[i], NEAR_ABSOLUTE[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    eps = sys.float_info.epsilon
    for p, q in pairs:
        want = _decimal_distance(p, q)
        bound = 2.0 * eps * (1.0 / (1.0 - abs(p) ** 2) + 1.0 / (1.0 - abs(q) ** 2) + want)
        assert abs(disk_distance(p, q) - want) <= bound, (p, q)
    # the pair whose pseudolength rounds to 1 has a distance (42.8327902
    # at 50 digits), and Triangle.of takes the three points
    assert disk_distance(NEAR_ABSOLUTE[0], NEAR_ABSOLUTE[2]) == pytest.approx(42.8327902, abs=1e-5)
    Triangle.of(*NEAR_ABSOLUTE)


def test_boundary_point_rejected():
    with pytest.raises(BoundaryPoint):
        check_disk(1.0)
    with pytest.raises(BoundaryPoint):
        check_disk(1.000001)


def test_as_complex_accepts_tuples():
    assert as_complex((0.3, -0.2)) == 0.3 - 0.2j
    assert as_complex(0.5j) == 0.5j


def test_check_disk_threshold():
    # the margin is BOUNDARY_EPS = 1e-12, in every direction
    for u in (1.0, 1j, cmath.exp(2.5j)):
        assert check_disk((1.0 - 2e-12) * u) == (1.0 - 2e-12) * u
        with pytest.raises(BoundaryPoint):
            check_disk((1.0 - 0.5e-12) * u)


# ------------------------------------------------------------------ midpoint

def test_midpoint_is_equidistant_and_between():
    rng = Random(3)
    for _ in range(50):
        p, q = rand_point(rng), rand_point(rng)
        if abs(p - q) < 1e-6:
            continue
        m = hyp_midpoint(p, q)
        d1, d2 = disk_distance(p, m), disk_distance(m, q)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert d1 + d2 == pytest.approx(disk_distance(p, q), abs=1e-12)


# ------------------------------------------------------------------- angles

def test_signed_angle_frozen_quarter_turn():
    assert signed_angle(0.5, 0, 0.5j) == pytest.approx(math.pi / 2, abs=1e-14)
    assert signed_angle(0.5j, 0, 0.5) == pytest.approx(-math.pi / 2, abs=1e-14)


def test_signed_angle_ignores_radial_scaling():
    # angle at the origin only depends on directions
    assert signed_angle(0.1, 0, 0.7j) == pytest.approx(
        signed_angle(0.9, 0, 0.2j), abs=1e-14)


def test_signed_angle_conformal_at_any_vertex():
    # translating the vertex to the origin is how the angle is defined;
    # check against explicit tangent directions pushed through the map
    rng = Random(4)
    for _ in range(30):
        v = rand_point(rng, 0.6)
        p, q = rand_point(rng), rand_point(rng)
        if abs(p - v) < 1e-3 or abs(q - v) < 1e-3:
            continue
        expect = cmath.phase(mobius_to_origin(v, q) / mobius_to_origin(v, p))
        assert signed_angle(p, v, q) == pytest.approx(expect, abs=1e-12)


def test_degenerate_angle_raises():
    with pytest.raises(DegenerateAngle):
        signed_angle(0.3, 0.3, 0.5)


def test_sigma_collinear_is_pi():
    assert abs(sigma(-0.3, 0, 0.3)) == pytest.approx(math.pi, abs=1e-14)


def test_sigma_equals_double_angle_plus_defect():
    # for a triangle with middle vertex x: |sigma(a,x,b)| = |2*angle_x + area - pi|
    rng = Random(5)
    done = 0
    while done < 40:
        a, x, b = (rand_point(rng, 0.7) for _ in range(3))
        try:
            area = triangle_area(a, x, b)
            ang = abs(signed_angle(a, x, b))
        except (DegenerateTriangle, DegenerateAngle):
            continue
        expect = abs(2.0 * ang + area - math.pi)
        assert abs(sigma(a, x, b)) == pytest.approx(expect, abs=1e-10)
        done += 1


def _reference_angle(x, y, z):
    # the composition the angle kernel writes out: translate y to the
    # origin, take the phase difference of the images, wrap it
    zx, zy, zz = as_complex(x), as_complex(y), as_complex(z)
    return wrap_angle(cmath.phase(mobius_to_origin(zy, zz))
                      - cmath.phase(mobius_to_origin(zy, zx)))


def _reference_sigma(x, y, z):
    return _reference_angle(x, y, z) - _reference_angle(z, x, y) - _reference_angle(y, z, x)


def test_angle_functions_bit_identical_across_point_forms():
    # signed_angle is the reference composition written out, so it stays
    # bit-identical to it; sigma and triangle_area come from the signed
    # area kernel and match the reference's angle sums to rounding.  Each
    # function gives the same bits for a real point as a float and as a
    # complex.
    rng = Random(9)
    for _ in range(60):
        r = rng.uniform(-0.7, 0.7)
        p, q = rand_point(rng, 0.7), rand_point(rng, 0.7)
        # the real point as a float and as a complex, in each position
        forms = [(r, p, q), (complex(r), p, q)]
        for shift in range(3):
            triples = [f[shift:] + f[:shift] for f in forms]
            x, y, z = triples[1]
            angle = _reference_angle(x, y, z)
            area = (math.pi - abs(_reference_angle(y, x, z))
                    - abs(_reference_angle(z, y, x)) - abs(_reference_angle(x, z, y)))
            sig = sigma(x, y, z)
            assert abs(sig - _reference_sigma(x, y, z)) <= 1e-14
            if area >= 1e-15:
                assert abs(triangle_area(x, y, z) - area) <= 1e-14
            for t in triples:
                assert signed_angle(*t) == angle
                assert sigma(*t) == sig
                if area >= 1e-15:
                    assert triangle_area(*t) == triangle_area(x, y, z)
    # on one geodesic the reference flips between +pi and -pi by
    # rounding, so sigma matches it modulo 2pi there
    for _ in range(60):
        base, u = rand_point(rng, 0.5), cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        x, y, z = (mobius_from_origin(base, rng.uniform(-0.8, 0.8) * u) for _ in range(3))
        gap = math.remainder(sigma(x, y, z) - _reference_sigma(x, y, z), 2.0 * math.pi)
        assert abs(gap) <= 1e-14


# -------------------------------------------------------------------- areas

def test_area_small_triangle_matches_euclidean():
    # metric factor at the origin is 2, so areas scale by 4
    lam = 1e-4
    a, b, c = 0.3 * lam, (0.1 + 0.4j) * lam, (-0.2 + 0.1j) * lam
    euclid = 0.5 * abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
    assert triangle_area(a, b, c) == pytest.approx(4.0 * euclid, rel=1e-6)


def test_area_invariant_under_vertex_rotation():
    a, b, c = 0.2, 0.3 + 0.4j, -0.1 + 0.25j
    base = triangle_area(a, b, c)
    assert triangle_area(b, c, a) == pytest.approx(base, abs=1e-14)
    assert triangle_area(c, a, b) == pytest.approx(base, abs=1e-14)


def test_area_degenerate_raises():
    with pytest.raises(DegenerateTriangle):
        triangle_area(0.1, 0.2, 0.3)


def test_triangle_area_threshold():
    # (-0.5, 0.5, it) has area 2t to rounding, so t = 0.5e-15 sits on the
    # 1e-15 threshold
    a, b = -0.5 + 0j, 0.5 + 0j
    below, above = 0.4999e-15j, 0.5001e-15j
    assert abs(signed_area(a, b, below)) == pytest.approx(0.9998e-15, rel=1e-9)
    with pytest.raises(DegenerateTriangle):
        triangle_area(a, b, below)
    assert triangle_area(a, b, above) == pytest.approx(1.0002e-15, rel=1e-9)


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)], ids=["ab", "bc", "ca"])
def test_signed_area_coincidence_threshold(pair):
    # each of the three pair tests fires at pseudolength 0.5 COINCIDENT_EPS
    # and not at 2 COINCIDENT_EPS
    p, other = 0.3 + 0.2j, -0.4 + 0.1j
    for scale in (0.5, 2.0):
        close = mobius_from_origin(p, scale * COINCIDENT_EPS * cmath.exp(0.7j))
        assert abs(mobius_to_origin(p, close)) == pytest.approx(scale * COINCIDENT_EPS,
                                                                rel=1e-2)
        points = [other] * 3
        points[pair[0]], points[pair[1]] = p, close
        if scale < 1.0:
            with pytest.raises(DegenerateAngle):
                signed_area(*points)
        else:
            assert abs(signed_area(*points)) < 1e-12


# ----------------------------------------------- the sigma and area kernels

def _composed_sigma(a, x, b):
    # the signed_area/signed_angle composition; it raises where they raise
    s = signed_area(a, x, b)
    return wrap_angle(2.0 * signed_angle(a, x, b) - s + math.copysign(math.pi, s))


def _outcome(fn, *args):
    # a value, or the class of the error raised
    try:
        return fn(*args)
    except (DegenerateAngle, DegenerateTriangle) as exc:
        return type(exc)


def test_sigma_and_area_kernels_equal_the_scalar_composition():
    # samples on random arcs through a and b, and random apexes over the
    # base ab, near the absolute too: each kernel gives the composition's
    # bits, and raises wherever it raises
    rng = Random(31)
    for _ in range(200):
        a, b = rand_point(rng, 0.95), rand_point(rng, 0.95)
        ec, er = cycle_through(a, b, rand_point(rng, 0.95)).euclid_center_radius()
        xs = [ec + er * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(12)]
        xs = [x for x in xs if abs(x) < 1.0 - 1e-9] + [rand_point(rng, 0.95) for _ in range(12)]
        for x in xs:
            assert _outcome(sigma, a, x, b) == _outcome(_composed_sigma, a, x, b)
            area = _outcome(signed_area, a, b, x)
            if area is not DegenerateAngle:
                area = abs(area) if abs(area) >= 1e-15 else DegenerateTriangle
            assert _outcome(triangle_area, a, b, x) == area


def test_sigma_and_area_kernels_raise_on_degenerate_samples():
    a, b = 0.3 + 0.1j, -0.2 + 0.4j
    # samples on a or b, then apexes on the diameter through the base
    for x in (a, b):
        with pytest.raises(DegenerateAngle):
            sigma(a, x, b)
        with pytest.raises(DegenerateAngle):
            triangle_area(a, b, x)
    for x in (0.3 + 0j, -0.4 + 0j):
        with pytest.raises(DegenerateTriangle):
            triangle_area(0.1 + 0j, 0.2 + 0j, x)
    # a fixed pair that coincides makes every sample degenerate
    for x in (0.5j, -0.5j):
        with pytest.raises(DegenerateAngle):
            sigma(a, x, a)
        with pytest.raises(DegenerateAngle):
            triangle_area(a, a, x)
    for bad in ((a, a, b), (a, b, b), (a, b, a)):
        with pytest.raises(DegenerateAngle):
            sigma(*bad)
        with pytest.raises(DegenerateAngle):
            triangle_area(*bad)
    with pytest.raises(DegenerateTriangle):
        triangle_area(0.1, 0.2, 0.3)


# ----------------------------------------------------------------- triangle

def test_triangle_normalizes_orientation():
    # ccw input gets vertices b and c swapped
    t = Triangle.of(0.4, 0.3j, -0.4)
    assert t.swapped
    t2 = Triangle.of(0.4, -0.4, 0.3j)
    assert not t2.swapped
    assert (t.a, t.b, t.c) == (t2.a, t2.b, t2.c)


def test_triangle_orientation_is_hyperbolic_not_euclidean():
    # 0.4+0.4j lies between the chord from 0.9 to 0.9j and the geodesic
    # arc bowing toward the origin: the Euclidean turn is counterclockwise
    # but the hyperbolic triangle is clockwise, like (0.4, -0.4, 0.3j),
    # so it keeps its order
    t = Triangle.of(0.9, 0.9j, 0.4 + 0.4j)
    assert not t.swapped
    assert (t.a, t.b, t.c) == (0.9, 0.9j, 0.4 + 0.4j)
    ref = Triangle.of(0.4, -0.4, 0.3j)
    for tri in (t, ref):
        turns = (signed_angle(tri.c, tri.a, tri.b), signed_angle(tri.a, tri.b, tri.c),
                 signed_angle(tri.b, tri.c, tri.a))
        assert all(turn > 0.0 for turn in turns)
    assert t.area == pytest.approx(triangle_area(0.9, 0.9j, 0.4 + 0.4j), abs=1e-14)
    assert t.area == pytest.approx(0.688, abs=1e-3)


def test_triangle_rejects_coincident():
    with pytest.raises(DegenerateTriangle):
        Triangle.of(0.1, 0.1, 0.3j)


def test_triangle_opposite_cycles():
    t = Triangle.of(0.4, 0.3j, -0.4)
    assert t.opposite("a") == (t.a, t.b, t.c)
    assert t.opposite("b") == (t.b, t.c, t.a)
    assert t.opposite("c") == (t.c, t.a, t.b)


# --------------------------------------------------------------- isometries

def test_translation_moves_anchor_to_origin():
    a = 0.3 - 0.2j
    assert mobius_to_origin(a, a) == pytest.approx(0, abs=1e-15)
    assert mobius_from_origin(a, 0) == pytest.approx(a, abs=1e-15)


def test_isometry_preserves_distance():
    rng = Random(7)
    for _ in range(40):
        iso = random_isometry(rng)
        p, q = rand_point(rng), rand_point(rng)
        assert disk_distance(iso(p), iso(q)) == pytest.approx(
            disk_distance(p, q), abs=1e-12)


def test_isometry_inverse_round_trip():
    rng = Random(9)
    for _ in range(40):
        f = random_isometry(rng)
        z = rand_point(rng)
        assert f.inverse()(f(z)) == pytest.approx(z, abs=1e-13)
        assert f(f.inverse()(z)) == pytest.approx(z, abs=1e-13)


def test_disk_isometry_center_in_any_point_form():
    # a tuple or float center gives the map and the inverse of its
    # complex twin, which is what the isometry stores
    z = 0.2 - 0.35j
    for center, twin in (((0.1, 0.2), 0.1 + 0.2j), (0.3, 0.3 + 0j)):
        for theta, reflect in ((0.0, False), (0.7, True)):
            iso, ref = DiskIsometry(center, theta, reflect), DiskIsometry(twin, theta, reflect)
            assert repr(iso) == repr(ref)
            assert iso(z) == ref(z)
            assert repr(iso.inverse()) == repr(ref.inverse())
            assert iso.inverse()(z) == ref.inverse()(z)


def test_reflection_flips_angle_sign():
    refl = DiskIsometry(0j, 0.0, True)  # plain conjugation
    p, v, q = 0.4, 0.1 + 0.1j, 0.2j
    assert signed_angle(refl(p), refl(v), refl(q)) == pytest.approx(
        -signed_angle(p, v, q), abs=1e-13)


def test_sigma_invariant_under_orientation_preserving_isometry():
    rng = Random(10)
    for _ in range(30):
        iso = random_isometry(rng)
        if iso.reflect:
            continue
        a, x, b = 0.25, -0.1 + 0.3j, 0.4 - 0.2j
        assert sigma(iso(a), iso(x), iso(b)) == pytest.approx(
            sigma(a, x, b), abs=1e-12)
