"""Seeded random instances for the verification suites.

All generators take an explicit random.Random so a suite run is a pure
function of its seed.  Rejection counts are returned where the contract
wants them recorded.
"""

from __future__ import annotations

import cmath
import math
from random import Random

from .cevians import brent_root
from .errors import GeometryError, SamplingExhausted
from .geom_core import Triangle, mobius_from_origin, signed_angle, triangle_area
from .cycles import (
    GeneralizedCycle,
    circle_from_center_radius,
    cycle_through,
    geodesic_through,
    point_geodesic_distance,
    sample_points,
)
from .theorems import convex_quad_angles, lexell_cycle

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
            angles = (abs(signed_angle(tri.b, tri.a, tri.c)),
                      abs(signed_angle(tri.c, tri.b, tri.a)),
                      abs(signed_angle(tri.a, tri.c, tri.b)))
        except GeometryError:
            continue
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
        if point_geodesic_distance(x, geodesic_through_boundary(e1, e2)) < 0.1:
            continue
        return cycle_through(e1, e2, x)
    raise _exhausted("random_cycle", "equidistant")


def geodesic_through_boundary(e1: complex, e2: complex) -> GeneralizedCycle:
    """Geodesic with the two given ideal endpoints."""
    return geodesic_through(0.999999 * e1, 0.999999 * e2)


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
    """A cycle together with two separated points lying on it: a third
    of its in-disk arc apart (sample_points always gives all 24 samples,
    so no draw is rejected)."""
    cycle = random_cycle(rng)
    pts = sample_points(cycle, 24, margin=1e-3)
    return cycle, pts[0], pts[len(pts) // 3]


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


def trapezoid_quad(rng: Random, converse: bool = False):
    """Convex quadrilateral (a, b, c, d) built to satisfy one side of the
    trapezoid equivalence exactly.

    With converse=False, c and d share a constant-area locus over base
    ab, so area(abc) = area(abd) holds by construction.  With
    converse=True, d is instead root-found along a transversal until the
    angle balance (A + D) - (B + C) vanishes, testing the reverse
    implication without assuming the locus.
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
        locus = lexell_cycle(a, b, c0)
        candidates = [z for z in sample_points(locus, 48, margin=0.07)
                      if abs(z - c0) > 0.25 and abs(z - a) > 0.2 and abs(z - b) > 0.2]
        candidates.sort(key=lambda z: -abs(z - c0))
        quad = None
        for d0 in candidates[:12]:
            for cc, dd in ((c0, d0), (d0, c0)):
                if convex_quad_angles(a, b, cc, dd) is not None:
                    quad = (a, b, cc, dd)
                    break
            if quad:
                break
        if quad is None:
            continue
        if not converse:
            return quad
        perturbed = _rebalance_quad(quad)
        if perturbed is not None:
            return perturbed
    raise _exhausted("trapezoid_quad", "convex quadrilateral")


# _rebalance_quad moves the vertex by t in [-REBALANCE_STEP, REBALANCE_STEP]
# and solves for t to REBALANCE_WIDTH, which stays above twice the float
# spacing there (ulp(0.04) = 6.9e-18): a narrower goal would let Brent
# take steps smaller than one float and never finish
REBALANCE_STEP = 0.04
REBALANCE_WIDTH = 1e-16


class _NonConvexQuad(Exception):
    """The moved quad is no longer convex, so its balance is undefined."""


def _rebalance_quad(quad):
    """Move the last vertex across the locus until the angle balance is
    zero; None when no convex quad on the way balances."""
    a, b, c, d = quad
    grad = lexell_cycle(a, b, c).gradient(d)
    n = grad / abs(grad)

    def h(t: float) -> float:
        angles = convex_quad_angles(a, b, c, d + t * n)
        if angles is None:
            raise _NonConvexQuad
        qa, qb, qc, qd = angles
        return (qa + qd) - (qb + qc)

    lo, hi = -REBALANCE_STEP, REBALANCE_STEP
    try:
        hlo, hhi = h(lo), h(hi)
        if hlo * hhi > 0.0:
            return None
        t, _ = brent_root(h, lo, hi, hlo, hhi, width=REBALANCE_WIDTH)
    except _NonConvexQuad:
        return None
    # brent_root returns a point where h was evaluated, so convex
    return a, b, c, d + t * n
