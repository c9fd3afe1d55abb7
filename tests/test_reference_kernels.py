"""The call-saving rewrites against the implementations they replaced.

Each reference below is the former code, kept as the oracle: the cos/sin
arc sampler, the list-based quad turns, the sampler's three
signed_angle calls, intersect on two built cycles, the trapezoid search
that built and sorted all 48 locus samples, with its balance through
the list-based turns, and the arc instance that built 24 samples to
keep two.  Results are compared as packed doubles, so a signed zero or
a last-bit difference counts, and errors by type.  Three rewrites
changed the arithmetic and are compared within rounding instead: the
side frame's zeta against the former frame's radius and angle; the
concurrency pencil, which replaced a pairwise scan, against its 50-digit
oracle (oracles.decimal_pencil); and the arc-length sampler, whose
samples stay on their cycle where the former center + radius e^{it}
sat eps R off it, against the former sampler within that error on lines
and arcs, with the draws built on it making the same rejections.  A
circle inside the disk is sampled from its point nearest the origin
now, not by angle from the right of its center, so its samples sit
elsewhere on it: they are held to lie on it as closely as the former
angle sampler's did.  The call-count pins at the end fix what the
rewrites save.
"""

import cmath
import itertools
import math
import struct
import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from hypfeuer import cevians, cycles, geom_core, instances
from hypfeuer.cevians import VERTICES, _side_frame, build_config, concurrency_point
from hypfeuer.cycles import (
    GeneralizedCycle,
    circle_from_center_radius,
    coefficient_center_radius,
    cycle_through,
    geodesic_through,
    intersect,
    lexell_cycle,
    point_lift,
    sample_frame,
    sample_points,
    through_normal,
    unit_normal,
)
from hypfeuer.errors import DivergentCevians, GeometryError, IdenticalCycles
from hypfeuer.geom_core import (
    Triangle,
    as_complex,
    convex_quad_angles,
    mobius_to_origin,
    signed_angle,
    triangle_area,
)
from hypfeuer.instances import (
    MAX_DRAWS,
    PURPOSE_ARC,
    PURPOSE_QUAD,
    _disk_point as _instance_disk_point,
    instance_rng,
    random_cycle,
    random_triangle,
)
from hypfeuer.theorems import check_tangent_cevians
from oracles import decimal_pencil
from test_theorems import lexell_scan

BOXES = (0.25, 0.7, 0.95)

EPS = sys.float_info.epsilon

# the benchmark's set-up triangle (bench/spec.py SETUP_TRIANGLE): every
# foot, circle and shot exists on it
SETUP_TRIANGLE = (0.156 - 0.075j, -0.117 - 0.181j, -0.047 + 0.085j)


def _bits(value):
    """value with every float and complex part as its packed bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # the error's type is the outcome
        return "raises", type(exc)


def _same(new, ref, *args):
    assert _outcome(new, *args) == _outcome(ref, *args), args


# -------------------------------------------------------------- references

def _ref_side_frame(tri, vertex):
    """The former frame: b1, the second endpoint's image w, the apex's
    Euclidean radius k and the base angle beta."""
    apex, b1, b2 = tri.opposite(vertex)
    return (b1, mobius_to_origin(b1, b2), abs(mobius_to_origin(b1, apex)),
            abs(signed_angle(apex, b1, b2)))


def _frame_matches_the_reference(tri, vertex):
    """The side frame raises what the former one raised, or carries its
    b1 and |w| bit for bit, u = w / |w| and tau = tan(S/4), and zeta =
    k e^{i(beta + S/4)} / cos(S/4) within rounding: the former angle is
    a difference of phases, good to a few ulps of pi."""
    try:
        b1, w, k, beta = _ref_side_frame(tri, vertex)
    except GeometryError as exc:
        with pytest.raises(type(exc)):
            _side_frame(tri, vertex)
        return
    quarter = tri.area / 4.0
    got_b1, u, s, zeta, tau = _side_frame(tri, vertex)
    assert _bits((got_b1, s, tau)) == _bits((b1, abs(w), math.tan(quarter)))
    assert abs(u - w / abs(w)) <= 2.0 * sys.float_info.epsilon
    want = k * cmath.exp(1j * (beta + quarter)) / math.cos(quarter)
    assert abs(zeta - want) <= 4e-15 * abs(want), (tri, vertex)


def _ref_angle_floor(tri):
    return (abs(signed_angle(tri.b, tri.a, tri.c)),
            abs(signed_angle(tri.c, tri.b, tri.a)),
            abs(signed_angle(tri.a, tri.c, tri.b)))


def _ref_sample_points(cycle, count, margin=1e-6):
    """The former sampler: center + radius e^{it} on a circle, with the
    midpoint test that picks the arc inside.  A line's chord takes the
    pad of 1e-3 at each end that an arc's angles take, as it does since
    lines and arcs share one frame.  A circle that does not cross the
    shrunk absolute takes the angle sampler the arc-length frame
    replaced, bit for bit."""
    if cycle.is_line:
        d = 1j * cycle.b / abs(cycle.b)
        z0 = -cycle.c * cycle.b / (2.0 * abs(cycle.b) ** 2)
        half = math.sqrt(max(0.0, (1.0 - margin) ** 2 - abs(z0) ** 2)) * (1.0 - 2e-3)
        return [z0 + d * (half * (2.0 * k / (count - 1) - 1.0)) for k in range(count)]
    ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
    shrunk = GeneralizedCycle(1.0, 0j, -((1.0 - margin) ** 2))
    crossings = intersect(cycle, shrunk)
    if len(crossings) < 2:
        return [ec + er * complex(math.cos(t), math.sin(t))
                for t in (2.0 * math.pi * k / count for k in range(count))]
    t0, t1 = sorted(math.atan2((z - ec).imag, (z - ec).real) for z in crossings)
    mid = ec + er * complex(math.cos((t0 + t1) / 2.0), math.sin((t0 + t1) / 2.0))
    if abs(mid) >= 1.0 - margin:
        t0, t1 = t1, t0 + 2.0 * math.pi
    pad = 1e-3 * (t1 - t0)
    lo, hi = t0 + pad, t1 - pad
    return [ec + er * complex(math.cos(t), math.sin(t))
            for t in (lo + (hi - lo) * k / (count - 1) for k in range(count))]


def _ref_arc_samples_by_angle(cycle, a, b, count):
    """The former _arc_samples of a circle inside the disk: count points
    counterclockwise from a to b, evenly spaced in angle about the
    center."""
    ec, er = coefficient_center_radius(cycle.a, cycle.b, cycle.c)
    ta = cmath.phase(a - ec)
    delta = (cmath.phase(b - ec) - ta) % (2.0 * math.pi)
    return [ec + er * cmath.exp(1j * (ta + delta * k / (count + 1)))
            for k in range(1, count + 1)]


def _ref_intersect(c1, c2):
    if c1.is_line and c2.is_line:
        return cycles._intersect_lines(c1, c2)
    b_l = c2.a * c1.b - c1.a * c2.b
    c_l = c2.a * c1.c - c1.a * c2.c
    if abs(b_l) < 1e-15:
        if abs(c_l) < 1e-15:
            raise IdenticalCycles("cycles share every coefficient ratio")
        return ()
    base = c1 if abs(c1.a) >= abs(c2.a) else c2
    z0 = -c_l * b_l / (2.0 * abs(b_l) ** 2)
    d = 1j * b_l / abs(b_l)
    qa = base.a
    qb = 2.0 * (base.a * (z0.conjugate() * d).real + (base.b.conjugate() * d).real)
    qc = base.evaluate(z0)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    if qb >= 0.0:
        q = -(qb + root) / 2.0
    else:
        q = -(qb - root) / 2.0
    sols = [q / qa, qc / q] if q != 0.0 else [0.0]
    out = []
    for s in sols:
        z = z0 + s * d
        if not any(abs(z - w) < 1e-13 for w in out):
            out.append(z)
    return tuple(out)


def _ref_convex_quad_angles(a, b, c, d):
    quad = [as_complex(p) for p in (a, b, c, d)]
    try:
        turns = [signed_angle(quad[i - 1], quad[i], quad[(i + 1) % 4]) for i in range(4)]
    except GeometryError:
        return None
    if all(t > 0.0 for t in turns):
        return turns
    if all(t < 0.0 for t in turns):
        return [-t for t in turns]
    return None


def _ref_arc_instance(rng):
    cycle = random_cycle(rng)
    pts = _ref_sample_points(cycle, 24, margin=1e-3)
    return cycle, pts[0], pts[len(pts) // 3]


def _ref_trapezoid_quad(rng):
    disk_point = _instance_disk_point
    for _ in range(MAX_DRAWS):
        a = disk_point(rng, 0.62)
        b = disk_point(rng, 0.62)
        if abs(a - b) < 0.4:
            continue
        c0 = disk_point(rng, 0.62)
        try:
            ca = triangle_area(a, b, c0)
        except GeometryError:
            continue
        if not 0.05 < ca < 2.5 or abs(c0 - a) < 0.3 or abs(c0 - b) < 0.3:
            continue
        locus = lexell_cycle(a, b, c0)
        candidates = [z for z in _ref_sample_points(locus, 48, margin=0.07)
                      if abs(z - c0) > 0.25 and abs(z - a) > 0.2 and abs(z - b) > 0.2]
        candidates.sort(key=lambda z: -abs(z - c0))
        quad = None
        for d0 in candidates[:12]:
            for cc, dd in ((c0, d0), (d0, c0)):
                if _ref_convex_quad_angles(a, b, cc, dd) is not None:
                    quad = (a, b, cc, dd)
                    break
            if quad:
                break
        if quad is not None:
            return quad
    raise AssertionError("no quad")


def _disk_point(rng, radius):
    return radius * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


# ------------------------------------ side frames, shots and the angle floor

def _shot_rays(monkeypatch, tri, vertex, target):
    """The two Mobius images the tangent shot at a vertex computes."""
    seen = []

    def spy(a, z):
        seen.append((a, z))
        return mobius_to_origin(a, z)

    monkeypatch.setattr(cevians, "mobius_to_origin", spy)
    cevians._shoot_tangent_circle(tri, vertex, target)
    monkeypatch.setattr(cevians, "mobius_to_origin", mobius_to_origin)
    return seen


@pytest.mark.parametrize("box", BOXES)
def test_side_frames_shots_and_angle_floor_match_the_references(monkeypatch, box):
    """5,000 triangles per box: every side frame, both rays of every
    shot and the sampler's angle floor."""
    for idx in range(5_000):
        tri, first = random_triangle(instance_rng(1313, idx), box, min_angle=0.0)
        circumcircle = cycle_through(tri.a, tri.b, tri.c)
        for v in VERTICES:
            _frame_matches_the_reference(tri, v)
            # the shot's rays are the images of the other two vertices in
            # the frame of its vertex, in this order
            apex, p, q = tri.opposite(v)
            assert (_bits(_shot_rays(monkeypatch, tri, v, circumcircle))
                    == _bits([(apex, p), (apex, q)]))
        # the floor accepts the same draw at exactly its smallest angle
        # and refuses it one ulp above
        floor = min(_ref_angle_floor(tri))
        accepted, resamples = random_triangle(instance_rng(1313, idx), box, floor)
        assert resamples == first
        assert _bits((accepted.a, accepted.b, accepted.c)) == _bits((tri.a, tri.b, tri.c))
        _, resamples = random_triangle(instance_rng(1313, idx), box,
                                       math.nextafter(floor, math.inf))
        assert resamples > first


def test_side_frame_of_coincident_vertices_raises_like_the_reference():
    # Triangle.of refuses such a triangle; built directly it must fail the
    # way the reference's signed_angle did, not divide by zero
    for tri in (Triangle(0.3j, 0.3j, -0.2, False, 0.1),
                Triangle(0.1, -0.2j, -0.2j, False, 0.1)):
        for v in VERTICES:
            _frame_matches_the_reference(tri, v)
    with pytest.raises(KeyError):
        _side_frame(Triangle.of(*SETUP_TRIANGLE), "d")


# ------------------------------------------------------------- incidences

def _normal_through(p, q):
    return unit_normal(through_normal(point_lift(p), point_lift(q)))


def _line_sets(rng):
    """Unit normals of near-concurrent cevian triples and quadruples,
    lines through one point, random (mostly non-concurrent) sets and
    divergent sets near the absolute."""
    for idx in range(300):
        cfg = build_config(random_triangle(instance_rng(2024, idx), BOXES[idx % 3])[0])
        for family in (cfg.bisector_normals, cfg.pseudoaltitude_normals):
            if len(family) == 3:
                normals = [unit_normal(family[v]) for v in VERTICES]
                yield normals
                yield normals + [unit_normal(cfg.side_normals["c"])]
    for _ in range(300):
        p = _disk_point(rng, 0.9)
        yield [_normal_through(p, _disk_point(rng, 0.9)) for _ in range(rng.choice((3, 4)))]
    for _ in range(600):
        n = rng.choice((3, 4))
        yield [_normal_through(_disk_point(rng, 0.9), _disk_point(rng, 0.9))
               for _ in range(n)]
    for _ in range(100):
        n = rng.choice((3, 4))
        ts = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
        yield [_normal_through(0.97 * cmath.exp(1j * (t - 0.05)),
                               0.97 * cmath.exp(1j * (t + 0.05))) for t in ts]


def _largest_q(normals):
    """The largest m_t^2 - |m_xy|^2 over the pairs' cross products m:
    sin^2 of the angle at which the most transversal pair meets."""
    qs = []
    for (a1, x1, y1), (a2, x2, y2) in itertools.combinations(normals, 2):
        mt, mx, my = x1 * y2 - y1 * x2, y1 * a2 - a1 * y2, a1 * x2 - x1 * a2
        qs.append(mt * mt - mx * mx - my * my)
    return max(qs)


def test_concurrency_point_matches_the_reference():
    # the same meets and the same divergences as the 50-digit pencil.  A
    # meet of two lines at angle theta moves by rounding over sin^2
    # theta = q, so the point's error is bounded times q, and the
    # residual's relative error likewise; at q near 1 both are a few ulps
    outcomes = set()
    worst_point = worst_residual = 0.0
    for normals in _line_sets(Random(5)):
        ref_point, ref_residual = decimal_pencil(normals)
        if ref_point is None:
            with pytest.raises(DivergentCevians):
                concurrency_point(normals)
            outcomes.add((len(normals), "raises"))
            continue
        point, residual = concurrency_point(normals)
        q = _largest_q(normals)
        worst_point = max(worst_point, abs(point - ref_point) * q)
        worst_residual = max(worst_residual,
                             abs(residual - ref_residual) / max(1.0, ref_residual) * q)
        outcomes.add((len(normals), "value"))
    # 3- and 4-line sets, both meeting and divergent
    assert outcomes == {(3, "value"), (3, "raises"), (4, "value"), (4, "raises")}
    assert worst_point < 1e-13
    assert worst_residual < 2e-13


def test_concurrency_point_of_two_lines_scores_zero():
    normals = [_normal_through(0.1, 0.5j), _normal_through(-0.3, 0.4 + 0.2j)]
    point, residual = concurrency_point(normals)
    assert residual == 0.0
    assert abs(point - decimal_pencil(normals)[0]) < 1e-15


# ------------------------------------------------------- arcs and quads

def _cycles(rng):
    """Circles that cross the shrunk absolute, circles well inside,
    equidistants, geodesics and diameters, in turn."""
    for idx in range(5_000):
        kind = idx % 5
        if kind == 0:
            yield circle_from_center_radius(_disk_point(rng, 0.999), rng.uniform(0.5, 6.0))
        elif kind == 1:
            yield circle_from_center_radius(_disk_point(rng, 0.5), rng.uniform(0.05, 1.0))
        elif kind == 2:
            t1 = rng.uniform(0.0, 2.0 * math.pi)
            t2 = t1 + rng.uniform(0.3, 2.0 * math.pi - 0.3)
            yield cycle_through(cmath.exp(1j * t1), cmath.exp(1j * t2), _disk_point(rng, 0.7))
        elif kind == 3:
            yield geodesic_through(_disk_point(rng, 0.9), _disk_point(rng, 0.9))
        else:
            yield geodesic_through(0j, _disk_point(rng, 0.9))


def _former_error(cycle):
    """A few eps of max(1, R), the error of the former sampler's samples
    on a cycle of Euclidean radius R."""
    radius = 1.0 if cycle.is_line else coefficient_center_radius(cycle.a, cycle.b, cycle.c)[1]
    return 16.0 * EPS * max(1.0, radius)


SAMPLE_COUNTS, SAMPLE_MARGINS = (16, 24, 32, 48), (1e-6, 1e-4, 1e-3, 0.07)


def _sampled_cycles(limit=None):
    """(cycle, count, margin, span) over _cycles(Random(11)), span being
    "line", "arc" or "whole" by the former sampler's test: two crossings
    of the shrunk absolute or not."""
    for idx, cycle in enumerate(itertools.islice(_cycles(Random(11)), limit)):
        count, margin = SAMPLE_COUNTS[idx % 4], SAMPLE_MARGINS[(idx // 4) % 4]
        shrunk = GeneralizedCycle(1.0, 0j, -((1.0 - margin) ** 2))
        span = ("line" if cycle.is_line else
                "arc" if len(intersect(cycle, shrunk)) == 2 else "whole")
        yield cycle, count, margin, span


def test_sample_points_matches_the_reference():
    # lines and arcs; a whole circle's samples moved along it, and the
    # next test holds them to it
    spans = set()
    for cycle, count, margin, span in _sampled_cycles():
        got = sample_points(cycle, count, margin)
        assert len(got) == count
        spans.add(span)
        if span == "whole":
            continue
        want = _ref_sample_points(cycle, count, margin)
        assert max(abs(z - w) for z, w in zip(got, want)) <= _former_error(cycle), cycle
    assert spans == {"line", "arc", "whole"}


def test_whole_circles_are_sampled_on_them_as_closely_as_by_angle():
    # every sample of a circle inside the disk, and every inscribed-angle
    # sample between two of them, lies off it by no more than the former
    # angle sampler's worst on that circle plus the rounding of the last
    # steps; the error both share is that of S = sqrt(|B|^2 - AC), which
    # cancels on a small circle near the absolute (19.3 eps here, 19.1
    # eps by angle)
    circles, worst = 0, 0.0
    for cycle, count, margin, span in _sampled_cycles(2_000):
        if span != "whole":
            continue
        circles += 1
        samples = sample_points(cycle, count, margin)
        former = _ref_sample_points(cycle, count, margin)
        between = cycles._arc_samples(cycle, samples[1], samples[9], 4)
        former += _ref_arc_samples_by_angle(cycle, former[1], former[9], 4)
        assert len(samples) == count and len(between) == 4
        off = max(_off_cycle(cycle, z) for z in samples + between)
        assert off <= max(_off_cycle(cycle, z) for z in former) + 4.0 * EPS, cycle
        worst = max(worst, off)
    assert circles > 700
    assert worst <= 20.0 * EPS


def _off_cycle(cycle, z):
    """|E(z)| / |grad E(z)| in exact arithmetic on the float coefficients:
    the distance from z to the cycle, to first order."""
    a, c = Fraction(cycle.a), Fraction(cycle.c)
    br, bi = Fraction(cycle.b.real), Fraction(cycle.b.imag)
    x, y = Fraction(z.real), Fraction(z.imag)
    value = a * (x * x + y * y) + 2 * (br * x + bi * y) + c
    return abs(float(value)) / (2.0 * math.hypot(float(a * x + br), float(a * y + bi)))


def test_arc_samples_lie_on_their_cycle_near_lines_included():
    # every sample of an arc frame, and every inscribed-angle sample
    # between two of them, lies on its cycle within a few eps, where the
    # former sampler put a near-line's samples up to 1e-4 off
    margins = (1e-6, 1e-4, 1e-3, 0.07)
    loci = [lexell_cycle(*draw) for draw in lexell_scan()]
    worst, arcs = 0.0, 0
    for idx, cycle in enumerate(list(itertools.islice(_cycles(Random(11)), 2_000)) + loci):
        margin = margins[idx % 4]
        if cycles.disk_arc(cycle, margin) is None:
            continue
        arcs += 1
        samples = sample_points(cycle, 16, margin)
        between = cycles._arc_samples(cycle, samples[1], samples[9], 4)
        assert len(between) == 4
        worst = max(worst, *(_off_cycle(cycle, z) for z in samples + between))
    assert arcs > 1_500
    assert worst <= 8.0 * EPS
    former = max(_off_cycle(cycle, z) for cycle in loci
                 for z in _ref_sample_points(cycle, 16, 1e-4))
    assert former > 1e-5


def test_intersect_matches_the_former_one():
    # each cycle against its predecessor, against the absolute or a
    # shrunk absolute as sample_frame and the SVG clip take them, and
    # against itself; and circles of center m and radius 1 - |m|, exact
    # in binary, which touch the absolute at one point
    outcomes = Counter()
    pool = list(itertools.islice(_cycles(Random(31)), 2_000))
    pairs = []
    for idx, cycle in enumerate(pool):
        radius2 = (1.0, (1.0 - 1e-6) ** 2, (1.0 - 0.07) ** 2)[idx % 3]
        pairs += [(cycle, other) for other in
                  (pool[idx - 1], GeneralizedCycle(1.0, 0j, -radius2), cycle)]
    for m in (0.5, -0.75, 0.25j, -0.5j):
        touching = GeneralizedCycle(1.0, -m, abs(m) ** 2 - (1.0 - abs(m)) ** 2)
        pairs += [(touching, GeneralizedCycle(1.0, 0j, -1.0)),
                  (GeneralizedCycle(1.0, 0j, -1.0), touching)]
    for c1, c2 in pairs:
        _same(intersect, _ref_intersect, c1, c2)
        kind, value = _outcome(intersect, c1, c2)
        outcomes[len(value) if kind == "value" else value] += 1
    assert outcomes[0] and outcomes[1] and outcomes[2] and outcomes[IdenticalCycles]


def _quads(rng):
    for _ in range(3_000):
        pts = [_disk_point(rng, 0.9) for _ in range(4)]
        yield pts
        yield pts[::-1]
    # a square in both orientations, and one with float vertices
    yield [0.3 + 0.3j, -0.3 + 0.3j, -0.3 - 0.3j, 0.3 - 0.3j]
    yield [0.3 - 0.3j, -0.3 - 0.3j, -0.3 + 0.3j, 0.3 + 0.3j]
    yield [0.5, 0.5j, -0.5, -0.5j]
    # a reflex vertex, a straight turn, a zero turn (d on the side ab), a
    # repeated vertex, a vertex at the origin
    yield [0.5, 0.5j, 0.05, -0.5j]
    yield [0.5, 0j, -0.5, 0.4j]
    yield [0j, 0.6, 0.4 + 0.3j, 0.3]
    yield [0.5, 0.5, -0.5, 0.4j]
    yield [0j, 0.5, 0.5 + 0.3j, 0.3j]
    yield [0.5, 0.5j, -0.5, "not a point"]
    # each pair of vertices equal, and closer than the coincidence floor
    for _ in range(500):
        pts = [_disk_point(rng, 0.9) for _ in range(4)]
        for i, j in itertools.combinations(range(4), 2):
            quad = list(pts)
            quad[j] = quad[i]
            yield quad
            quad = list(pts)
            quad[j] = quad[i] + 1e-15
            yield quad


def test_convex_quad_angles_matches_the_reference():
    kinds = set()
    for quad in _quads(Random(13)):
        _same(convex_quad_angles, _ref_convex_quad_angles, *quad)
        kind, value = _outcome(convex_quad_angles, *quad)
        kinds.add("not convex" if kind == "value" and value is None else kind)
    assert kinds == {"value", "not convex", "raises"}


def test_trapezoid_quad_matches_the_former_search():
    """Seeds 0-5 x 2,000 draws: the same draws are
    rejected, so each generator is left in the former one's state, and
    each vertex lies within 1e-11 of the former one (1.8e-12 is the
    worst seen)."""
    for seed in range(6):
        for idx in range(2_000):
            rng, ref_rng = (instance_rng(seed, idx, PURPOSE_QUAD) for _ in range(2))
            got = instances.trapezoid_quad(rng)
            want = _ref_trapezoid_quad(ref_rng)
            assert rng.getstate() == ref_rng.getstate(), (seed, idx)
            assert max(abs(z - w) for z, w in zip(got, want)) <= 1e-11, (seed, idx)


def test_arc_instance_matches_the_former_one():
    # the same cycle from the same draws; on a line or an arc the same
    # two points within rounding, and on a whole circle two points on it
    # as close as the former angle samples were
    whole = 0
    for seed in range(6):
        for idx in range(2_000):
            rng, ref_rng = (instance_rng(seed, idx, PURPOSE_ARC) for _ in range(2))
            cycle, a, b = instances.arc_instance(rng)
            want = _ref_arc_instance(ref_rng)
            assert cycle == want[0] and rng.getstate() == ref_rng.getstate(), (seed, idx)
            if cycles.disk_arc(cycle, 1e-3) is not None or cycle.is_line:
                assert max(abs(a - want[1]), abs(b - want[2])) <= _former_error(cycle), (seed, idx)
                continue
            whole += 1
            former = max(_off_cycle(cycle, z) for z in want[1:])
            assert max(_off_cycle(cycle, a), _off_cycle(cycle, b)) <= former + 4.0 * EPS
    assert whole > 4_000


def test_farthest_sample_is_the_first_of_the_stable_sort_on_every_frame_kind():
    # on lines, arcs and whole circles: c0 a point of the cycle, as
    # trapezoid_quad's apex is of its locus, near-lines included; c0 one
    # of the samples; and on a whole circle, c0 near m, whose antipode
    # falls in the padded gap between the last sample and the first, or
    # on one of them
    spans = set()
    loci = (lexell_cycle(*draw) for draw in lexell_scan())
    for idx, cycle in enumerate(itertools.chain(_cycles(Random(23)), loci)):
        if idx % 5 == 0:
            continue  # circles that barely reach into the disk
        count = (16, 24, 48)[idx % 3]
        margin = (1e-6, 0.07)[idx % 2]
        frame = sample_frame(cycle, margin)
        samples = sample_points(cycle, count, margin)
        apexes = [sample_points(cycle, 7, margin=0.1)[idx % 7], samples[idx % count]]
        m, t, kappa, half = frame
        if cycle.is_line or cycles.disk_arc(cycle, margin) is not None:
            spans.add("line" if cycle.is_line else "arc")
        else:
            spans.add("whole")
            gap = math.pi / abs(kappa) - half
            apexes += [cycles.arc_point(m, t, kappa, s) for s in
                       (0.0, 1e-9, -1e-9, 0.5 * gap, -0.5 * gap, gap, -gap)]
        for c0 in apexes:
            want = sorted(samples, key=lambda z: -abs(z - c0))[0]
            got = cycles.farthest_sample(frame, count, c0)
            assert _bits(got) == _bits(want), (idx, cycle, c0)
    assert spans == {"line", "arc", "whole"}


# ------------------------------------------------------------ call counts

def _count_calls(monkeypatch, home, name):
    """Count calls of home.<name> through every hypfeuer namespace that
    binds it."""
    original = getattr(home, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hypfeuer" or mod_name.startswith("hypfeuer."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_one_configuration_makes_six_mobius_divisions(monkeypatch):
    # two per side frame in build_config and two per tangent shot; the
    # feet take no angle
    mobius = _count_calls(monkeypatch, geom_core, "mobius_to_origin")
    angles = _count_calls(monkeypatch, geom_core, "signed_angle")
    cfg = build_config(Triangle.of(*SETUP_TRIANGLE))
    assert mobius == [6]
    assert check_tangent_cevians(cfg).status == "pass"
    assert mobius == [12]
    assert angles == [0]


def test_random_triangle_reads_its_angles_from_the_rays(monkeypatch):
    # signed_angle makes each vertex's two rays itself, bit for bit
    # mobius_to_origin
    mobius = _count_calls(monkeypatch, geom_core, "mobius_to_origin")
    angles = _count_calls(monkeypatch, geom_core, "signed_angle")
    draws = 0
    for idx in range(20):
        _, resamples = instances.random_triangle(instance_rng(3, idx))
        draws += resamples + 1
    assert mobius == [0]
    # three per draw that Triangle.of accepts, none for the draws it refuses
    assert 3 * 20 <= angles[0] <= 3 * draws and angles[0] % 3 == 0


def test_sample_points_makes_no_intersect_call(monkeypatch):
    crossings = _count_calls(monkeypatch, cycles, "intersect")
    for idx, cycle in enumerate(itertools.islice(_cycles(Random(29)), 500)):
        sample_points(cycle, 4, (1e-6, 1e-4, 1e-3, 0.07)[idx % 4])
    assert crossings == [0]


def test_arc_instance_evaluates_two_samples(monkeypatch):
    samples = _count_calls(monkeypatch, cycles, "frame_point")
    for idx in range(50):
        instances.arc_instance(instance_rng(0, idx, PURPOSE_ARC))
    assert samples == [100]


def test_trapezoid_draws_evaluate_few_locus_samples(monkeypatch):
    # seed 0 x 200: 2 of the 48 samples per locus, the arc's two ends (the
    # apex's antipode lies off every sampled arc), where the former search
    # built all 48
    counted = _count_calls(monkeypatch, cycles, "frame_point")
    loci = _count_calls(monkeypatch, cycles, "sample_frame")
    for idx in range(200):
        instances.trapezoid_quad(instance_rng(0, idx, PURPOSE_QUAD))
    assert (counted[0], loci[0]) == (400, 200)
