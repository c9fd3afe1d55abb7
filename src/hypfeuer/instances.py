"""Seeded random instances for the verification suites.

All generators take an explicit random.Random so a suite run is a pure
function of its seed.  Rejection counts are returned where the contract
wants them recorded.  Every instance is drawn and tested, never solved
for: no generator runs a root-finder.
"""

from __future__ import annotations

import cmath
import math
from random import Random

from .errors import GeometryError, SamplingExhausted
from .geom_core import (
    Triangle,
    convex_quad_angles,
    mobius_from_origin,
    signed_angle,
    triangle_area,
)
from .cycles import (
    GeneralizedCycle,
    circle_from_center_radius,
    cycle_through,
    farthest_sample,
    frame_point,
    geodesic_through,
    lexell_cycle,
    point_geodesic_distance,
    sample_frame,
)

DEFAULT_MAX_VERTEX_RADIUS = 0.7
DEFAULT_MIN_ANGLE = 0.15

# every rejection loop gives up after this many draws; over seeds 0-5 x
# 200 random_triangle rejected at most 5 draws before a success in the
# default box, 4 in a 0.25 box
MAX_DRAWS = 10_000

# purpose slots for instance_rng; separate streams per concern so that
# which suites are selected never shifts the draws of another suite
PURPOSE_TRIANGLE = 0
PURPOSE_CYCLE_PAIR = 1
PURPOSE_MONGE = 2
PURPOSE_QUAD = 3
PURPOSE_LEXELL = 4
PURPOSE_ARC = 5


def instance_rng(seed: int, index: int, purpose: int = 0) -> Random:
    """Independent deterministic stream per (seed, instance, purpose).

    Integer-only arithmetic: strings or tuples as Random seeds would tie
    report bytes to PYTHONHASHSEED.  The *64 keeps purpose slots of
    consecutive instances from colliding.
    """
    return Random((seed * 1000003 + index) * 64 + purpose)


def _exhausted(generator: str, what: str) -> SamplingExhausted:
    return SamplingExhausted(f"{generator}: no {what} in {MAX_DRAWS} draws")


def _disk_point(rng: Random, radius: float) -> complex:
    # sqrt for area-uniform sampling
    return radius * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def random_triangle(rng: Random,
                    max_vertex_radius: float = DEFAULT_MAX_VERTEX_RADIUS,
                    min_angle: float = DEFAULT_MIN_ANGLE) -> tuple[Triangle, int]:
    """A triangle inside the vertex-radius box with all angles above the
    floor; returns (triangle, number of rejected draws).

    Raises SamplingExhausted when MAX_DRAWS draws all fail, which only
    settings that no draw meets in practice reach.
    """
    for resamples in range(MAX_DRAWS):
        pts = [_disk_point(rng, max_vertex_radius) for _ in range(3)]
        try:
            tri = Triangle.of(*pts)
        except GeometryError:
            continue
        # the angle at each vertex between its two sides; Triangle.of keeps
        # the vertices 1e-9 apart, so no angle is degenerate
        angles = [abs(signed_angle(p, v, q)) for v, p, q in map(tri.opposite, "abc")]
        if min(angles) >= min_angle:
            return tri, resamples
    raise SamplingExhausted(
        f"no triangle with min_angle {min_angle!r} inside max_vertex_radius "
        f"{max_vertex_radius!r} in {MAX_DRAWS} draws")


def random_cycle(rng: Random) -> GeneralizedCycle:
    """A random cycle: mostly circles, some geodesics and equidistants."""
    kind = rng.random()
    if kind < 0.6:
        center = _disk_point(rng, 0.6)
        return circle_from_center_radius(center, rng.uniform(0.15, 1.8))
    if kind < 0.8:
        for _ in range(MAX_DRAWS):
            p, q = _disk_point(rng, 0.8), _disk_point(rng, 0.8)
            if abs(p - q) > 0.2:
                return geodesic_through(p, q)
        raise _exhausted("random_cycle", "geodesic")
    for _ in range(MAX_DRAWS):
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi)
        if not 0.3 < abs(t1 - t2) % (2.0 * math.pi) < 2.0 * math.pi - 0.3:
            continue
        e1, e2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
        x = _disk_point(rng, 0.7)
        if point_geodesic_distance(x, geodesic_through(e1, e2)) < 0.1:
            continue
        return cycle_through(e1, e2, x)
    raise _exhausted("random_cycle", "equidistant")


def random_cycle_pair(rng: Random) -> tuple[GeneralizedCycle, GeneralizedCycle]:
    """Pair of cycles with non-constant power (circles or equidistants);
    geodesics carry the same power at every point, so no pair involving
    one has an equal-power locus to test."""

    def draw() -> GeneralizedCycle:
        for _ in range(MAX_DRAWS):
            cycle = random_cycle(rng)
            if abs(cycle.c - cycle.a) > 1e-6:
                return cycle
        raise _exhausted("random_cycle_pair", "circle or equidistant")

    return draw(), draw()


def lexell_instance(rng: Random) -> tuple[complex, complex, complex]:
    """Base pair plus an apex kept clear of the base geodesic."""
    for _ in range(MAX_DRAWS):
        a = _disk_point(rng, 0.62)
        b = _disk_point(rng, 0.62)
        x0 = _disk_point(rng, 0.62)
        if abs(a - b) < 0.35:
            continue
        try:
            if point_geodesic_distance(x0, geodesic_through(a, b)) < 0.05:
                continue
        except GeometryError:
            continue
        return a, b, x0
    raise _exhausted("lexell_instance", "separated base pair and apex")


def arc_instance(rng: Random) -> tuple[GeneralizedCycle, complex, complex]:
    """A cycle together with two points a and b on it: the first and the
    ninth of the 24 points sample_points spreads over its in-disk part,
    8/23 of the sampled span apart, the span being an arc or a whole
    circle less its pad.  Only those two are computed (frame_point), bit
    for bit sample_points'.
    Every cycle has all 24, so no draw is rejected, and the arc between
    a and b that check_inscribed_angle samples lies inside the disk."""
    cycle = random_cycle(rng)
    frame = sample_frame(cycle, margin=1e-3)
    return cycle, frame_point(frame, 0, 24), frame_point(frame, 8, 24)


MONGE_RADIUS_BANDS = ((1.2, 1.6), (0.65, 0.85), (0.3, 0.4))


def monge_triple(rng: Random) -> tuple[GeneralizedCycle, GeneralizedCycle, GeneralizedCycle]:
    """Three nested-cluster circles with distinct radii.

    Well-separated equal-size circles almost never have positive
    homothetic centers in the hyperbolic plane (the common external
    tangent lines diverge), so the generator clusters the centers and
    staggers the radii; this keeps all six pairwise centers existing for
    essentially every draw.
    """
    base = _disk_point(rng, 0.3)
    out = []
    for lo, hi in MONGE_RADIUS_BANDS:
        # |base| < 0.3 and an offset under 0.16 keep every center inside
        # |z| < (0.3 + 0.16) / (1 + 0.3 * 0.16) < 0.44
        center = mobius_from_origin(base, _disk_point(rng, 0.16))
        out.append(circle_from_center_radius(center, rng.uniform(lo, hi)))
    return out[0], out[1], out[2]


def trapezoid_quad(rng: Random):
    """Convex quadrilateral (a, b, c, d) with c and d on one constant-area
    locus over base ab, so area(abc) = area(abd) holds by construction.

    d is the one of the locus's 48 samples farthest from c
    (farthest_sample), and the draw is rejected, like a bad a, b or c,
    when d lies within 0.25 of c or 0.2 of a or b, or makes a convex
    quad in neither order.  The quad is the first convex order of
    (a, b, c, d).
    """
    for _ in range(MAX_DRAWS):
        a = _disk_point(rng, 0.62)
        b = _disk_point(rng, 0.62)
        if abs(a - b) < 0.4:
            continue
        c0 = _disk_point(rng, 0.62)
        try:
            ca = triangle_area(a, b, c0)
        except GeometryError:
            continue
        if not 0.05 < ca < 2.5 or abs(c0 - a) < 0.3 or abs(c0 - b) < 0.3:
            continue
        d0 = farthest_sample(sample_frame(lexell_cycle(a, b, c0), margin=0.07), 48, c0)
        if abs(d0 - c0) <= 0.25 or abs(d0 - a) <= 0.2 or abs(d0 - b) <= 0.2:
            continue
        for quad in ((a, b, c0, d0), (a, b, d0, c0)):
            if convex_quad_angles(*quad) is not None:
                return quad
    raise _exhausted("trapezoid_quad", "convex quadrilateral")
