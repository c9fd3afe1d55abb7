"""Test-only constructions that the library itself never needs.

`random_isometry` draws the isometries of the invariance tests,
`diameter_with_direction` builds diameters for constructions that are
checked against a translated frame, `internal_bisector` builds a
vertex's angle bisector that way, `hyp_midpoint` is the midpoint
the foot oracles compare with, and `interior_intersections` keeps the
crossings of two cycles that lie inside the disk.
"""

import cmath
import math

from hypfeuer.cycles import INTERIOR_MARGIN, GeneralizedCycle, intersect, transform
from hypfeuer.geom_core import TAU, DiskIsometry, mobius_from_origin, mobius_to_origin


def random_isometry(rng) -> DiskIsometry:
    """Orientation-preserving isometry with uniform rotation, mild translation."""
    r = 0.6 * math.sqrt(rng.random())
    phi = rng.uniform(0.0, TAU)
    return DiskIsometry(r * cmath.exp(1j * phi), rng.uniform(-math.pi, math.pi), False)


def diameter_with_direction(u: complex) -> GeneralizedCycle:
    """Geodesic through the origin along unit direction u."""
    return GeneralizedCycle.of(0.0, 1j * u, 0.0)


def internal_bisector(tri, vertex) -> GeneralizedCycle:
    """The internal angle bisector at a vertex: in the vertex's frame the
    diameter along the sum of the two unit side directions, translated
    back with transform."""
    v, p, q = tri.opposite(vertex)
    u1, u2 = mobius_to_origin(v, p), mobius_to_origin(v, q)
    back = DiskIsometry(-v)  # sends 0 to v
    u = u1 / abs(u1) + u2 / abs(u2)
    return transform(back, diameter_with_direction(u / abs(u)))


def hyp_midpoint(p, q) -> complex:
    """Midpoint of the geodesic segment pq."""
    p, q = complex(p), complex(q)
    w = mobius_to_origin(p, q)
    r = abs(w)
    if r == 0.0:
        return p
    # halve the distance along the radius through w
    return mobius_from_origin(p, w / r * math.tanh(math.atanh(r) / 2.0))


def interior_intersections(c1: GeneralizedCycle,
                           c2: GeneralizedCycle) -> tuple[complex, ...]:
    """Intersection points inside the disk, INTERIOR_MARGIN clear of the absolute."""
    return tuple(z for z in intersect(c1, c2) if abs(z) < 1.0 - INTERIOR_MARGIN)
