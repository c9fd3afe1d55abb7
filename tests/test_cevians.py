"""Cevian feet, the six-point circle, tritangent circles, concurrency."""

import cmath
import math
import struct
import sys
from collections import Counter
from decimal import Decimal, localcontext
from random import Random

import pytest

from hypfeuer import cevians, cycles
from hypfeuer.errors import BracketFailure, DivergentCevians, NotACycle
from hypfeuer.geom_core import (
    DiskIsometry,
    Triangle,
    disk_distance,
    mobius_to_origin,
    sigma,
    triangle_area,
)
from hypfeuer.cycles import (
    GeneralizedCycle,
    geodesic_of_normal,
    geodesic_through,
    hyp_center_radius,
    membership_residual,
    point_geodesic_distance,
    point_lift,
    through_normal,
    unit_normal,
)
from hypfeuer.cevians import (
    VERTICES,
    bisector_foot,
    build_config,
    cevian_pencils,
    concurrency_point,
    pseudoaltitude_foot,
    side_units,
    tangent_circles,
)
from hypfeuer.instances import instance_rng, random_triangle
from hypfeuer.theorems import (
    _side_gap,
    check_feuerbach,
    check_feuerbach_point,
    check_six_point,
    check_tangent_cevians,
)
from oracles import (bisect_root, decimal_pencil, diameter_with_direction, hyp_midpoint,
                     internal_bisector)


def isosceles():
    # symmetric about the imaginary axis
    return Triangle.of(0.5j, -0.35, 0.35)


def pencils_meet(cfg):
    """Whether both cevian pencils have their point."""
    return all(point is not None for _, point, _, _ in cevian_pencils(cfg).values())


def clean_configs(count, seed=101):
    # absent excircles are everyday geometry, not a degradation of the
    # cevian machinery these tests probe; both pencils must meet
    out = []
    idx = 0
    while len(out) < count:
        tri, _ = random_triangle(instance_rng(seed, idx))
        cfg = build_config(tri)
        idx += 1
        if all(f.startswith("excircle_absent") for f in cfg.flags) and pencils_meet(cfg):
            out.append(cfg)
        if idx > count * 40:
            raise AssertionError("generator cannot produce clean configs")
    return out


# --------------------------------------------------------------- foot oracles

def test_isosceles_bisector_foot_is_base_midpoint():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    foot = bisector_foot(cevians._side_frame(tri, apex))
    mid = hyp_midpoint(-0.35, 0.35)
    assert foot == pytest.approx(mid, abs=1e-12)


def test_isosceles_pseudoaltitude_foot_is_base_midpoint():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    foot = pseudoaltitude_foot(cevians._side_frame(tri, apex))
    assert foot == pytest.approx(0.0, abs=1e-12)


def test_feet_satisfy_their_defining_balances():
    for cfg in clean_configs(12):
        tri = cfg.triangle
        for v in VERTICES:
            apex, b1, b2 = tri.opposite(v)
            mb = cfg.feet.bisector[v]
            assert abs(triangle_area(apex, b1, mb)
                       - triangle_area(apex, mb, b2)) < 1e-11
            hb = cfg.feet.pseudoaltitude[v]
            assert abs(sigma(b1, hb, apex) - sigma(apex, hb, b2)) < 1e-10


def test_feet_lie_on_their_side():
    for cfg in clean_configs(8):
        for v in VERTICES:
            side = cfg.sides[v]
            assert membership_residual(side, cfg.feet.bisector[v]) < 1e-11
            assert membership_residual(side, cfg.feet.pseudoaltitude[v]) < 1e-11


def test_balance_is_sharp_against_perturbation():
    # shifting a foot along the side must visibly break its balance,
    # otherwise the root finder could return anything
    cfg = clean_configs(1, seed=103)[0]
    tri = cfg.triangle
    apex, b1, b2 = tri.opposite("a")
    foot = cfg.feet.pseudoaltitude["a"]
    moved = foot + (b2 - b1) / abs(b2 - b1) * 1e-4
    assert abs(sigma(b1, moved, apex) - sigma(apex, moved, b2)) > 1e-6


def _side_frame(b1, b2):
    """The side line b1 b2 as the real axis of an isometry's frame, b1 at 0
    and b2 at the coordinate far > 0: the map back from a frame
    coordinate t to the disk, and far."""
    w = mobius_to_origin(b1, b2)
    back = DiskIsometry(b1, -cmath.phase(w), False).inverse()
    return back, abs(w)


def _solved_foot(tri, vertex, pseudoaltitude):
    """Side-frame coordinate of a foot found by a bisect_root solve of its
    defining balance, or None when the balance changes sign nowhere.

    The side line is cut at its two vertices, where the balance jumps:
    the bisector foot is looked for inside the segment, the
    pseudoaltitude foot also beyond either end, up to the ideal limit.
    """
    apex, b1, b2 = tri.opposite(vertex)
    back, far = _side_frame(b1, b2)
    inset = cevians.EDGE_INSET

    def balance(t):
        x = back(t)
        if pseudoaltitude:
            return sigma(b1, x, apex) - sigma(apex, x, b2)
        return triangle_area(apex, b1, x) - triangle_area(apex, x, b2)

    pieces = [(inset, far - inset)]
    if pseudoaltitude:
        limit = cevians.IDEAL_LIMIT
        pieces += [(-limit, -inset), (far + inset, limit)]
    roots = []
    for lo, hi in pieces:
        flo, fhi = balance(lo), balance(hi)
        if flo * fhi <= 0.0:
            roots.append(bisect_root(balance, lo, hi, width=1e-15))
    assert len(roots) <= 1
    return roots[0] if roots else None


def _foot_matches_solve(tri, vertex, pseudoaltitude):
    """Compare one foot with its root solve; returns where it fell on
    the side line."""
    apex, b1, b2 = tri.opposite(vertex)
    back, far = _side_frame(b1, b2)
    fn = pseudoaltitude_foot if pseudoaltitude else bisector_foot
    t = _solved_foot(tri, vertex, pseudoaltitude)
    frame = cevians._side_frame(tri, vertex)
    if t is None:
        with pytest.raises(BracketFailure):
            fn(frame)
        return "absent"
    assert abs(fn(frame) - back(t)) < 1e-12
    return "before" if t < 0.0 else "after" if t > far else "on"


@pytest.mark.parametrize("box", [0.25, 0.7, 0.95])
def test_closed_form_feet_match_brent_solves(box):
    # every draw, not only clean configs; pseudoaltitude feet fall beyond
    # both ends of their side in every box
    where = {"bisector": set(), "pseudoaltitude": set()}
    for idx in range(60):
        tri, _ = random_triangle(instance_rng(107, idx), box)
        for v in VERTICES:
            where["bisector"].add(_foot_matches_solve(tri, v, False))
            where["pseudoaltitude"].add(_foot_matches_solve(tri, v, True))
    assert where == {"bisector": {"on"}, "pseudoaltitude": {"before", "on", "after"}}


# apexes almost on the extension of the base (0, 0.3), close to the
# absolute, and where the pseudoaltitude foot from each falls
NEAR_ABSOLUTE = [
    (0.99999999 * cmath.exp(1e-4j), "absent"),
    (0.99999999 * cmath.exp(1j * (math.pi - 1e-4)), "absent"),
    (0.9999 * cmath.exp(1e-3j), "before"),
    (0.99999 * cmath.exp(1j * (math.pi - 2e-3)), "after"),
]


@pytest.mark.parametrize("apex, where", NEAR_ABSOLUTE)
def test_closed_form_pseudoaltitude_foot_near_the_absolute(apex, where):
    # an apex almost on the extension of its base, close to the absolute:
    # the foot lies near an ideal endpoint or beyond it (BracketFailure),
    # and the closed form fails in exactly the cases the solve does
    tri = Triangle.of(apex, 0j, 0.3)
    vertex = next(v for v in VERTICES if tri.opposite(v)[0] == apex)
    assert _foot_matches_solve(tri, vertex, True) == where


ONE = (Decimal(1), Decimal(0))


def _exact(z):
    """A float complex as an exact pair of Decimals."""
    return Decimal(z.real), Decimal(z.imag)


def _mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def _conj(p):
    return p[0], -p[1]


def _area_product(a, b, c):
    """(1 - a conj b)(1 - b conj c)(1 - c conj a): the signed area of abc
    is twice its argument."""
    return _mul(_mul(_sub(ONE, _mul(a, _conj(b))), _sub(ONE, _mul(b, _conj(c)))),
                _sub(ONE, _mul(c, _conj(a))))


def _sigma_product(a, x, b):
    """(b - x) conj(a - x) conj(1 - b conj a): sigma(a, x, b) = 2 arg((b
    - x) / (a - x)) - 2 arg(1 - b conj a) + pi is twice its argument
    plus pi."""
    return _mul(_mul(_sub(b, x), _conj(_sub(a, x))), _conj(_sub(ONE, _mul(b, _conj(a)))))


def _half_gap_sine(p1, p2):
    """|sin(arg p1 - arg p2)| = |Im(p1 conj p2)| / (|p1| |p2|): the sine
    of half the gap between two quantities that are twice these
    arguments."""
    im = p1[1] * p2[0] - p1[0] * p2[1]
    return float(abs(im) / ((p1[0] ** 2 + p1[1] ** 2) * (p2[0] ** 2 + p2[1] ** 2)).sqrt())


def _definition_gaps(tri, vertex):
    """(bisector, pseudoaltitude) half-gap sines of the feet from a
    vertex at 50 digits, from the float vertices and feet: area(A, B, X)
    against area(A, X, C), and sigma(B, X, A) against sigma(A, X, C).
    None for a foot that does not exist."""
    frame = cevians._side_frame(tri, vertex)
    apex, b1, b2 = (_exact(z) for z in tri.opposite(vertex))
    balances = (
        (bisector_foot, lambda x: (_area_product(apex, b1, x), _area_product(apex, x, b2))),
        (pseudoaltitude_foot,
         lambda x: (_sigma_product(b1, x, apex), _sigma_product(apex, x, b2))))
    gaps = []
    with localcontext() as ctx:
        ctx.prec = 50
        for fn, balance in balances:
            try:
                x = _exact(fn(frame))
            except BracketFailure:
                gaps.append(None)
                continue
            gaps.append(_half_gap_sine(*balance(x)))
    return gaps


@pytest.mark.parametrize("box", [0.25, 0.7, 0.95])
def test_feet_meet_their_definitions_to_50_digits(box):
    # no trig: each balance is a pair of complex products whose
    # arguments must agree.  Measured worst over these draws: 1.7e-15
    # (bisector) and 1.4e-12 (pseudoaltitude)
    worst = [0.0, 0.0]
    for idx in range(300):
        tri, _ = random_triangle(instance_rng(11, idx), box)
        for v in VERTICES:
            for k, gap in enumerate(_definition_gaps(tri, v)):
                if gap is not None:
                    worst[k] = max(worst[k], gap)
    assert worst[0] < 1e-14
    assert worst[1] < 1e-11


def test_near_absolute_bisector_feet_meet_their_definition():
    # base angles down to 1.2e-12: the closed form in zeta keeps the
    # split (worst 7.9e-13), where one through a difference of phases
    # missed it by 1.1e-8.  These bases lie on the real axis; rotated
    # copies keep only a third of that loss (5.4e-9 against 1.8e-8), as
    # y then cancels in Im(z conj u).  The pseudoaltitude feet here lie
    # next to an ideal endpoint and miss their balance by up to 3.9e-8;
    # they are not bounded
    for apex, _ in NEAR_ABSOLUTE:
        tri = Triangle.of(apex, 0j, 0.3)
        for v in VERTICES:
            assert _definition_gaps(tri, v)[0] < 1e-11, (apex, v)


def test_build_config_and_tangent_cevians_solve_nothing(monkeypatch):
    # the feet and the tangent circles are closed forms; the tangent
    # circles are built once per configuration, no meet or frame change
    # goes through the general cycle machinery, and the sides, cevians
    # and contact lines are normals: no geodesic is built on the way
    calls = {"tangent_circles": 0, "geodesic_through": 0, "intersect": 0, "transform": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    originals = {"intersect": cycles.intersect, "transform": cycles.transform,
                 "geodesic_through": cycles.geodesic_through}
    for module in [m for n, m in sys.modules.items() if n.startswith("hypfeuer")]:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                counting(module, name)
    counting(cevians, "tangent_circles")
    # a small triangle with all three excircles (the benchmark's set-up
    # triangle, bench/spec.py SETUP_TRIANGLE)
    cfg = build_config(Triangle.of(0.156 - 0.075j, -0.117 - 0.181j, -0.047 + 0.085j))
    assert not cfg.flags
    assert calls == {"tangent_circles": 1, "geodesic_through": 0, "intersect": 0,
                     "transform": 0}
    assert check_feuerbach(cfg).status == "pass"
    assert check_tangent_cevians(cfg).status == "pass"
    assert check_feuerbach_point(cfg).status == "pass"
    assert calls == {"tangent_circles": 1, "geodesic_through": 0, "intersect": 0,
                     "transform": 0}
    # the printed geodesics, built from the stored side normals and the
    # pencils' cevian normals, are the ones geodesic_through gives, bit
    # for bit
    verts = cfg.triangle.vertices
    expected = {
        "sides": {v: (verts[p], verts[q]) for v, p, q in
                  (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))},
        "bisector": {v: (verts[v], cfg.feet.bisector[v]) for v in VERTICES},
        "pseudoaltitude": {v: (verts[v], cfg.feet.pseudoaltitude[v]) for v in VERTICES},
    }
    pencils = cevian_pencils(cfg)
    through = originals["geodesic_through"]

    def bits(g):
        return struct.pack("<4d", g.a, g.b.real, g.b.imag, g.c)

    for family, ends in expected.items():
        built = (cfg.sides if family == "sides" else
                 {v: geodesic_of_normal(n) for v, n in pencils[family][0].items()})
        assert built.keys() == ends.keys()
        for v, (p, q) in ends.items():
            assert bits(built[v]) == bits(through(p, q)), (family, v)
    assert calls["geodesic_through"] == 0


# ------------------------------------------------------------ euler circle

def test_six_point_membership_on_clean_configs():
    # check_six_point measures each pseudoaltitude foot against the
    # Euler circle
    for cfg in clean_configs(15):
        assert cfg.euler_circle is not None
        assert max(check_six_point(cfg).witness["membership"].values()) < 1e-10


def test_euler_center_distance_consistency():
    for cfg in clean_configs(6):
        if cfg.euler_center is None:
            continue
        ctr, rho = hyp_center_radius(cfg.euler_circle)
        assert ctr == pytest.approx(cfg.euler_center, abs=1e-11)
        for v in VERTICES:
            assert disk_distance(ctr, cfg.feet.bisector[v]) == pytest.approx(
                rho, abs=1e-9)


# ------------------------------------------------------------- concurrency

def test_cevian_concurrency_residuals():
    # the pencil terms check_euler_ratios takes from cevian_pencils
    for cfg in clean_configs(12):
        for family, (normals, point, residual, flag) in cevian_pencils(cfg).items():
            assert point is not None and flag is None, family
            assert residual < 1e-10, family
            assert (point, residual) == concurrency_point([normals[v] for v in VERTICES])


def test_circumcenter_equidistant_from_vertices():
    for cfg in clean_configs(8):
        if cfg.circumcenter is None:
            continue
        tri = cfg.triangle
        ds = [disk_distance(cfg.circumcenter, p) for p in (tri.a, tri.b, tri.c)]
        assert max(ds) - min(ds) < 1e-10
        assert cfg.circumradius == pytest.approx(ds[0], abs=1e-10)


# ------------------------------------------------------- tritangent circles

def test_incircle_touches_all_sides():
    for cfg in clean_configs(10):
        inc = cfg.incircle
        assert inc is not None
        assert _side_gap(inc.cycle, side_units(cfg.side_normals)[0]) < 1e-12
        sides = cfg.sides
        for v in VERTICES:
            gap = abs(point_geodesic_distance(inc.center, sides[v]) - inc.radius)
            assert gap < 1e-9
        # read back from its coefficients, it is a circle inside the disk
        assert hyp_center_radius(inc.cycle)[1] == pytest.approx(inc.radius, abs=1e-9)


def test_tangency_gap_reads_the_built_circle(monkeypatch):
    # check_feuerbach's side gap measures the cycle that construct
    # prints, read back from its coefficients: a circle built 1e-6 too
    # large is 1e-6 r off every side
    real = cevians.circle_from_center_radius
    monkeypatch.setattr(cevians, "circle_from_center_radius",
                        lambda center, rho: real(center, rho * (1.0 + 1e-6)))
    for cfg in clean_configs(5):
        units = side_units(cfg.side_normals)[0]
        for spec in (cfg.incircle, *cfg.excircles.values()):
            if spec is not None:
                assert _side_gap(spec.cycle, units) == pytest.approx(1e-6 * spec.radius,
                                                                     rel=1e-6)


def test_excircle_touches_all_sides_when_present():
    found = 0
    idx = 0
    while found < 5 and idx < 400:
        tri, _ = random_triangle(instance_rng(202, idx), 0.45)
        idx += 1
        cfg = build_config(tri)
        sides = cfg.sides
        for v in VERTICES:
            spec = cfg.excircles[v]
            if spec is None:
                continue
            found += 1
            assert _side_gap(spec.cycle, side_units(cfg.side_normals)[0]) < 1e-12
            for w in VERTICES:
                gap = abs(point_geodesic_distance(spec.center, sides[w]) - spec.radius)
                assert gap < 1e-9
    assert found >= 5


def _lift(z):
    """The hyperboloid point of a disk point, in Decimal."""
    x, y = Decimal(z.real), Decimal(z.imag)
    r2 = x * x + y * y
    w = 1 - r2
    return ((1 + r2) / w, 2 * x / w, 2 * y / w)


def _inner(p, q):
    return p[0] * q[0] - p[1] * q[1] - p[2] * q[2]


def _asinh(s):
    return (s + (s * s + 1).sqrt()).ln()


def _vertex_sum_centers(tri):
    """The incenter and the excenters beyond the sides opposite a, b and
    c as (unit hyperboloid vector, radius), from the vertex lifts and the
    side lengths: sinh(a) A + sinh(b) B + sinh(c) C with the sign of the
    vertex beyond whose opposite side the circle lies flipped, a being
    the side opposite A; the radius is the center's distance to the side
    through B and C.  None where the sum is not timelike."""
    lifts = [_lift(z) for z in (tri.a, tri.b, tri.c)]
    weights = [(_inner(lifts[(i + 1) % 3], lifts[(i + 2) % 3]) ** 2 - 1).sqrt()
               for i in range(3)]
    (bt, bx, by), (ct, cx, cy) = lifts[1], lifts[2]
    # the side through B and C: the plane n . X = 0 with n = B x C
    side = (bx * cy - by * cx, by * ct - bt * cy, bt * cx - bx * ct)
    side_norm = (side[1] ** 2 + side[2] ** 2 - side[0] ** 2).sqrt()
    out = []
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        x = [sum(s * w * p[k] for s, w, p in zip(signs, weights, lifts)) for k in range(3)]
        q = _inner(x, x)
        if q <= 0:
            out.append(None)
            continue
        unit = [c / q.sqrt().copy_sign(x[0]) for c in x]
        sinh_rho = abs(sum(n * u for n, u in zip(side, unit))) / side_norm
        out.append((unit, _asinh(sinh_rho)))
    return out


@pytest.mark.parametrize("box", [0.25, 0.7, 0.95])
def test_tangent_circles_match_the_vertex_sums_to_50_digits(box):
    # an oracle algebraically apart from the side normals: the same
    # circles exist, and every center and radius is within 1e-12 of the
    # 50-digit one
    worst_center = worst_radius = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        for idx in range(300):
            tri, _ = random_triangle(instance_rng(11, idx), box)
            lifts = {v: point_lift(z) for v, z in tri.vertices.items()}
            normals = {v: through_normal(lifts[p], lifts[q]) for v, p, q in
                       (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))}
            inc, excircles = tangent_circles(lifts, normals, set())
            for spec, ref in zip((inc, *excircles.values()), _vertex_sum_centers(tri)):
                assert (spec is None) == (ref is None), (idx, spec, ref)
                if spec is not None:
                    center, radius = ref
                    cosh_d = max(_inner(center, _lift(spec.center)), Decimal(1))
                    d = (cosh_d + (cosh_d * cosh_d - 1).sqrt()).ln()
                    worst_center = max(worst_center, float(d))
                    worst_radius = max(worst_radius,
                                       abs(float(Decimal(spec.radius) - radius)))
    assert worst_center < 1e-12
    assert worst_radius < 1e-12


def test_incircle_center_on_internal_bisectors():
    tri = clean_configs(1, seed=104)[0].triangle
    inc = build_config(tri).incircle
    for v in VERTICES:
        line = internal_bisector(tri, v)
        assert point_geodesic_distance(inc.center, line) < 1e-10


def test_isosceles_internal_bisector_is_symmetry_axis():
    tri = isosceles()
    apex = "a" if tri.a == 0.5j else ("b" if tri.b == 0.5j else "c")
    line = internal_bisector(tri, apex)
    assert line.is_line
    assert membership_residual(line, 0.2j) < 1e-12


# ------------------------------------------------------------ config flags

def test_flags_are_sorted_strings():
    rng_configs = []
    for idx in range(30):
        tri, _ = random_triangle(instance_rng(105, idx))
        rng_configs.append(build_config(tri))
    for cfg in rng_configs:
        assert list(cfg.flags) == sorted(cfg.flags)
        for f in cfg.flags:
            assert isinstance(f, str)


def test_euclidean_limit_of_feet():
    # tiny triangles behave euclidean: bisector foot -> midpoint,
    # pseudoaltitude foot -> altitude foot
    lam = 1e-3
    base = (0.3 + 0.1j, -0.2 + 0.35j, -0.05 - 0.3j)
    tri = Triangle.of(*(lam * z for z in base))
    verts = tri.vertices
    for v in VERTICES:
        apex, b1, b2 = tri.opposite(v)
        mid = (b1 + b2) / 2.0
        frame = cevians._side_frame(tri, v)
        foot_b = bisector_foot(frame)
        assert abs(foot_b - mid) / lam < 2e-4
        d = (b2 - b1) / abs(b2 - b1)
        t = ((apex - b1) / d).real
        alt = b1 + max(0.0, t) * d
        foot_h = pseudoaltitude_foot(frame)
        assert abs(foot_h - alt) / lam < 2e-4


# ---------------------------------------------------- guaranteed objects

# every hyperbolic triangle has these: the incenter is the timelike sum
# of the three unit vertex vectors, each area-bisector foot lies inside
# its side, and by the crossbar theorem any two of those cevians cross
# inside the triangle, so the bisector point and the Euler circle exist;
# divergent_bisector_cevians is read from the pencil itself, which the
# configuration does not hold
FORBIDDEN_FLAGS = ("no_incircle", "no_euler_circle", "divergent_bisector_cevians",
                   "bracket_failure_bisector_a", "bracket_failure_bisector_b",
                   "bracket_failure_bisector_c")


@pytest.mark.parametrize("box", [0.7, 0.25])
def test_honest_configs_never_lose_a_guaranteed_object(box):
    seen = Counter()
    for seed in range(6):
        for index in range(200):
            tri, _ = random_triangle(instance_rng(seed, index), max_vertex_radius=box)
            cfg = build_config(tri)
            flags = cfg.flags + [flag for *_, flag in cevian_pencils(cfg).values() if flag]
            assert not set(flags) & set(FORBIDDEN_FLAGS), (seed, index, flags)
            seen.update(flags)
    # the sweep does meet absences the geometry allows
    assert seen


# ------------------------------------------------------ n-line concurrency

def _unit_normal_through(p, q):
    return unit_normal(through_normal(point_lift(complex(p)), point_lift(complex(q))))


def test_concurrency_point_of_four_geodesics():
    p = 0.21 - 0.13j
    normals = [_unit_normal_through(p, q) for q in (0.6, -0.4 + 0.5j, -0.7j, 0.3 + 0.6j)]
    point, residual = concurrency_point(normals)
    assert abs(point - p) < 1e-12
    assert residual < 1e-12
    ref_point, ref_residual = decimal_pencil(normals)
    assert abs(point - ref_point) < 1e-15
    assert abs(residual - ref_residual) < 1e-15


def test_concurrency_point_scores_against_every_other_line():
    # three lines through p and a fourth that misses it: the most
    # transversal pair meets in p, and the residual is p's distance to
    # the fourth
    p = -0.15 + 0.2j
    ends = [(p, q) for q in (0.5, 0.4j, -0.5 - 0.3j)] + [(p + 0.01, 0.6 + 0.6j)]
    normals = [_unit_normal_through(*e) for e in ends]
    point, residual = concurrency_point(normals)
    assert abs(point - p) < 1e-12
    stray = geodesic_through(*ends[3])
    assert residual == pytest.approx(point_geodesic_distance(point, stray), rel=1e-9)
    ref_point, ref_residual = decimal_pencil(normals)
    assert abs(point - ref_point) < 1e-15
    assert residual == pytest.approx(ref_residual, rel=1e-13)


def test_concurrency_point_divergent_lines_raise():
    # short geodesics near four separate stretches of the absolute
    normals = [_unit_normal_through(0.95 * cmath.exp(1j * (t - 0.1)),
                                    0.95 * cmath.exp(1j * (t + 0.1)))
               for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    assert decimal_pencil(normals) == (None, None)
    with pytest.raises(DivergentCevians):
        concurrency_point(normals)


def test_concurrency_point_coincident_lines_raise():
    # a diameter and its copy scaled by -3 are one line: their unit
    # normals differ in the last ulp, and the cross product is rounding
    # alone, which 39 of these 200 read as the point 0 with residual 0
    rng = Random(43)
    for _ in range(200):
        d = diameter_with_direction(cmath.exp(1j * rng.uniform(0, math.pi)))
        twin = GeneralizedCycle.of(-3.0 * d.a, -3.0 * d.b, -3.0 * d.c)
        n, n_twin = (unit_normal((c.a, c.b.real, c.b.imag)) for c in (d, twin))
        with pytest.raises(DivergentCevians, match="the lines coincide"):
            concurrency_point([n, n_twin, n])


def test_concurrency_point_scales_its_normals():
    # normals as built, scaled by -3, 0.5 and 1e6, give the point and
    # residual of their unit normals: the pencil scales each normal
    # itself.  The mixed triple (two bisectors and a pseudoaltitude)
    # does not concur, so its residual is a distance of its own
    cfg = build_config(Triangle.of(0.3 + 0.1j, -0.35 + 0.2j, -0.05 - 0.4j))
    (bis, *_), (alt, *_) = cevian_pencils(cfg).values()
    for normals in ([bis[v] for v in VERTICES], [alt[v] for v in VERTICES],
                    [bis["a"], bis["b"], alt["c"]]):
        point, residual = concurrency_point([unit_normal(n) for n in normals])
        scaled = [tuple(k * x for x in n) for k, n in zip((-3.0, 0.5, 1e6), normals)]
        got_point, got_residual = concurrency_point(scaled)
        assert abs(got_point - point) < 1e-15
        assert abs(got_residual - residual) < 1e-15
    assert residual > 1e-3


def test_concurrency_point_refuses_a_normal_that_is_not_spacelike():
    good = [_unit_normal_through(0.1, 0.5j), _unit_normal_through(-0.3, 0.4 + 0.2j)]
    for bad in ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        with pytest.raises(NotACycle):
            concurrency_point(good + [bad])
