"""Generalized cycles: one algebra for geodesics, circles, horocycles, equidistants.

A cycle is the real locus of

    E(z) = A |z|^2 + 2 Re(conj(B) z) + C  =  0

with A, C real and B complex, not all zero.  Scaling (A, B, C) by a
nonzero real gives the same locus, so coefficients are normalized to
max(|A|, |B|, |C|) = 1 with the first nonzero of (A, Re B, Im B, C)
positive.  In this form:

* geodesics are exactly the cycles with C = A (diameters have A = 0),
* Euclidean center and radius are -B/A and sqrt(|B|^2 - A C)/|A|,
* the inversive product <c1,c2> = 2 Re(B1 conj B2) - A1 C2 - A2 C1 is
  invariant under disk isometries up to a common scale, which makes
  |<c1,c2>^2 - <c1,c1><c2,c2>| / (<c1,c1><c2,c2>) a scale-free tangency
  residual (it is the normalized discriminant of the intersection
  quadratic, zero exactly at tangency).

Isometries act on coefficients in closed form (``transform``), so every
derived object here can be moved to a convenient frame, computed, and
moved back without leaving the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AmbiguousClass,
    CoincidentPoints,
    IdenticalCycles,
    NoHyperbolicCenter,
    NotACircle,
    NotACycle,
)
from .geom_core import DiskIsometry, as_complex, check_disk

# normalized |C - A| below this: the cycle is a geodesic
GEODESIC_EPS = 1e-12

# |discriminant| bands for the horocycle / ambiguous decision
TANGENT_EPS = 1e-12
AMBIGUOUS_EPS = 1e-10


class CycleClass(Enum):
    GEODESIC = "geodesic"
    HYP_CIRCLE = "hyp_circle"
    HOROCYCLE = "horocycle"
    EQUIDISTANT = "equidistant"


@dataclass(frozen=True)
class GeneralizedCycle:
    """Normalized coefficient triple (a real, b complex, c real)."""

    a: float
    b: complex
    c: float

    @classmethod
    def of(cls, a: float, b: complex, c: float) -> "GeneralizedCycle":
        a, b, c = float(a), complex(b), float(c)
        scale = max(abs(a), abs(b), abs(c))
        if scale == 0.0 or not math.isfinite(scale):
            raise NotACycle("zero or non-finite coefficients")
        a, b, c = a / scale, b / scale, c / scale
        if a != 0.0 and abs(b) ** 2 - a * c < -1e-14:
            raise NotACycle("negative discriminant: empty locus")
        # sign convention: first meaningfully nonzero of (a, Re b, Im b, c) positive
        for lead in (a, b.real, b.imag, c):
            if abs(lead) > 1e-14:
                if lead < 0.0:
                    a, b, c = -a, -b, -c
                break
        return cls(a, b, c)

    def evaluate(self, p) -> float:
        z = as_complex(p)
        return self.a * abs(z) ** 2 + 2.0 * (self.b.conjugate() * z).real + self.c

    @property
    def is_line(self) -> bool:
        """Euclidean line through the origin region (A = 0)."""
        return abs(self.a) < GEODESIC_EPS

    def euclid_center_radius(self) -> tuple[complex, float]:
        if self.is_line:
            raise NotACircle("straight line has no Euclidean center")
        disc = abs(self.b) ** 2 - self.a * self.c
        return -self.b / self.a, math.sqrt(max(disc, 0.0)) / abs(self.a)

    def gradient(self, p) -> complex:
        """Euclidean gradient of E at p, as a complex vector."""
        return 2.0 * (self.a * as_complex(p) + self.b)


def membership_residual(cycle: GeneralizedCycle, p) -> float:
    """|E(p)| / |grad E(p)|: first-order Euclidean distance from p to the locus."""
    g = abs(cycle.gradient(p))
    if g == 0.0:
        return abs(cycle.evaluate(p))
    return abs(cycle.evaluate(p)) / g


def coefficient_distance(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """Max coefficient deviation between two normalized cycles, up to sign."""
    direct = max(abs(c1.a - c2.a), abs(c1.b - c2.b), abs(c1.c - c2.c))
    flipped = max(abs(c1.a + c2.a), abs(c1.b + c2.b), abs(c1.c + c2.c))
    return min(direct, flipped)


def classify(cycle: GeneralizedCycle) -> CycleClass:
    """Decide the cycle type from its position against the absolute.

    The discriminant of E on |z| = 1 is D = 4|B|^2 - (A + C)^2: positive
    means the cycle crosses the absolute (equidistant or geodesic), zero
    means tangency (horocycle), negative means disjoint.  A band of
    1e-10 around zero is refused as ambiguous rather than guessed.
    """
    if abs(cycle.c - cycle.a) < GEODESIC_EPS:
        return CycleClass.GEODESIC
    d = 4.0 * abs(cycle.b) ** 2 - (cycle.a + cycle.c) ** 2
    if abs(d) <= TANGENT_EPS:
        # tangency from inside (center interior) is a horocycle;
        # tangency from outside has an empty interior locus
        if _center_inside(cycle):
            return CycleClass.HOROCYCLE
        raise NotACycle("tangent to the absolute from outside")
    if abs(d) <= AMBIGUOUS_EPS:
        raise AmbiguousClass(f"absolute discriminant {d:.3g} in dead zone")
    if d > 0.0:
        return CycleClass.EQUIDISTANT
    if _center_inside(cycle):
        return CycleClass.HYP_CIRCLE
    raise NotACycle("locus lies outside the disk")


def _center_inside(cycle: GeneralizedCycle) -> bool:
    if cycle.is_line:
        return False
    center, _ = cycle.euclid_center_radius()
    return abs(center) < 1.0


def cycle_through(p, q, r) -> GeneralizedCycle:
    """Unique cycle through three distinct points (cofactor expansion).

    Accepts interior points, absolute points, and their inverses alike:
    the coefficients are polynomial in the inputs.  Collinear points
    come out with A = 0, i.e. a straight line, automatically.
    """
    pts = [as_complex(x) for x in (p, q, r)]
    for i in range(3):
        if abs(pts[i] - pts[(i + 1) % 3]) < 1e-12:
            raise CoincidentPoints("cycle through coincident points")
    rows = [(abs(z) ** 2, z.real, z.imag) for z in pts]
    # cofactors of the first row of det[|z|^2, x, y, 1; rows...]
    a = (rows[0][1] * (rows[1][2] - rows[2][2])
         - rows[1][1] * (rows[0][2] - rows[2][2])
         + rows[2][1] * (rows[0][2] - rows[1][2]))
    c12 = (rows[0][0] * (rows[1][2] - rows[2][2])
           - rows[1][0] * (rows[0][2] - rows[2][2])
           + rows[2][0] * (rows[0][2] - rows[1][2]))
    c13 = (rows[0][0] * (rows[1][1] - rows[2][1])
           - rows[1][0] * (rows[0][1] - rows[2][1])
           + rows[2][0] * (rows[0][1] - rows[1][1]))
    c14 = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[2][1] * rows[1][2])
           - rows[1][0] * (rows[0][1] * rows[2][2] - rows[2][1] * rows[0][2])
           + rows[2][0] * (rows[0][1] * rows[1][2] - rows[1][1] * rows[0][2]))
    return GeneralizedCycle.of(a, complex(-c12 / 2.0, c13 / 2.0), -c14)


def geodesic_through(p, q) -> GeneralizedCycle:
    """Geodesic through two distinct points.

    Lifting z to (|z|^2 + 1, 2x, 2y) turns "cycle with C = A" into a
    plane through the origin; the cross product of two lifts is its
    normal, read back as (A, B, C=A).
    """
    zp, zq = as_complex(p), as_complex(q)
    if abs(zp - zq) < 1e-12:
        raise CoincidentPoints("geodesic through coincident points")
    u = (abs(zp) ** 2 + 1.0, 2.0 * zp.real, 2.0 * zp.imag)
    v = (abs(zq) ** 2 + 1.0, 2.0 * zq.real, 2.0 * zq.imag)
    n0 = u[1] * v[2] - u[2] * v[1]
    n1 = u[2] * v[0] - u[0] * v[2]
    n2 = u[0] * v[1] - u[1] * v[0]
    return GeneralizedCycle.of(n0, complex(n1, n2), n0)


def diameter_with_direction(u: complex) -> GeneralizedCycle:
    """Geodesic through the origin along unit direction u."""
    return GeneralizedCycle.of(0.0, 1j * u, 0.0)


def _translate_raw(t: complex, a_: float, b_: complex, c_: float):
    """Coefficients after the substitution z = (w + t)/(1 + conj(t) w)."""
    a2 = a_ + 2.0 * (b_.conjugate() * t).real + c_ * abs(t) ** 2
    b2 = a_ * t + b_ + b_.conjugate() * t * t + c_ * t
    c2 = a_ * abs(t) ** 2 + 2.0 * (b_.conjugate() * t).real + c_
    return a2, b2, c2


def transform(iso: DiskIsometry, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under a disk isometry, in coefficients.

    Built from three generators in the isometry's application order:
    conjugation (B -> conj B), translation (quadratic substitution),
    rotation (B -> e^{i theta} B).
    """
    a_, b_, c_ = cycle.a, cycle.b, cycle.c
    if iso.reflect:
        b_ = b_.conjugate()
    a2, b2, c2 = _translate_raw(iso.a, a_, b_, c_)
    rot = complex(math.cos(iso.theta), math.sin(iso.theta))
    return GeneralizedCycle.of(a2, rot * b2, c2)


def inversive_product(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    return 2.0 * (c1.b * c2.b.conjugate()).real - c1.a * c2.c - c2.a * c1.c


def tangency_residual(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """Scale-free tangency defect; zero iff the cycles touch at one point."""
    g = inversive_product(c1, c1) * inversive_product(c2, c2)
    return abs(inversive_product(c1, c2) ** 2 - g) / g


def tangency_ratio(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """<c1,c2> / sqrt(<c1,c1><c2,c2>): +1 internal tangency, -1 external."""
    g = inversive_product(c1, c1) * inversive_product(c2, c2)
    return inversive_product(c1, c2) / math.sqrt(g)


def intersect(c1: GeneralizedCycle, c2: GeneralizedCycle) -> tuple[complex, ...]:
    """All intersection points in the plane (0, 1 or 2 of them).

    Eliminating |z|^2 between the two equations leaves a line; the
    quadratic along that line is solved with the sign-aware formula so
    nearly tangent pairs do not lose a root to cancellation.
    """
    if c1.is_line and c2.is_line:
        # two straight lines: direct 2x2 solve on their equations
        return _intersect_lines(c1, c2)
    b_l = c2.a * c1.b - c1.a * c2.b
    c_l = c2.a * c1.c - c1.a * c2.c
    if abs(b_l) < 1e-15:
        if abs(c_l) < 1e-15:
            raise IdenticalCycles("cycles share every coefficient ratio")
        return ()
    base = c1 if abs(c1.a) >= abs(c2.a) else c2
    # line: 2 Re(conj(b_l) z) + c_l = 0, point closest to origin + direction
    z0 = -c_l * b_l / (2.0 * abs(b_l) ** 2)
    d = 1j * b_l / abs(b_l)
    # base.a |z0 + s d|^2 + 2 Re(conj(base.b)(z0 + s d)) + base.c = 0
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
    sols = []
    if q != 0.0:
        sols.append(q / qa)
        sols.append(qc / q)
    else:
        sols.append(0.0)
    out = []
    for s in sols:
        z = z0 + s * d
        if not any(abs(z - w) < 1e-13 for w in out):
            out.append(z)
    return tuple(out)


def _intersect_lines(c1: GeneralizedCycle, c2: GeneralizedCycle) -> tuple[complex, ...]:
    det = c1.b.real * c2.b.imag - c1.b.imag * c2.b.real
    if abs(det) < 1e-15:
        if coefficient_distance(c1, c2) < 1e-12:
            raise IdenticalCycles("same straight line")
        return ()
    x = (-c1.c / 2.0 * c2.b.imag + c2.c / 2.0 * c1.b.imag) / det
    y = (-c1.b.real * c2.c / 2.0 + c2.b.real * c1.c / 2.0) / det
    return (complex(x, y),)


def interior_intersections(c1: GeneralizedCycle, c2: GeneralizedCycle,
                           margin: float = 1e-9) -> tuple[complex, ...]:
    """Intersection points strictly inside the disk."""
    return tuple(z for z in intersect(c1, c2) if abs(z) < 1.0 - margin)


def circle_from_center_radius(center, rho: float) -> GeneralizedCycle:
    """Hyperbolic circle with given interior center and radius rho > 0."""
    z = as_complex(center)
    r = math.tanh(rho / 2.0)
    # |w|^2 = r^2 in the frame centered at z, pulled back
    a2, b2, c2 = _translate_raw(-z, 1.0, 0j, -r * r)
    return GeneralizedCycle.of(a2, b2, c2)


def hyp_center_radius(cycle: GeneralizedCycle) -> tuple[complex, float]:
    """Interior center and hyperbolic radius of a compact circle.

    Worked in the diameter through the Euclidean center: the cycle cuts
    it at signed Euclidean offsets s < t, so the hyperbolic center sits
    at the tanh-average of their atanh coordinates.  Raises when the
    cycle reaches the absolute (no interior center exists).
    """
    if cycle.is_line:
        raise NotACircle("geodesic through the origin")
    ec, er = cycle.euclid_center_radius()
    if abs(ec) < 1e-15:
        if er >= 1.0:
            raise NoHyperbolicCenter("cycle contains the absolute")
        return 0j, 2.0 * math.atanh(er)
    s = abs(ec) - er
    t = abs(ec) + er
    if t >= 1.0 or s <= -1.0:
        raise NoHyperbolicCenter("cycle meets or encloses the absolute")
    u = ec / abs(ec)
    mid = (math.atanh(s) + math.atanh(t)) / 2.0
    return u * math.tanh(mid), math.atanh(t) - math.atanh(s)


def point_geodesic_distance(p, geo: GeneralizedCycle) -> float:
    """Distance from an interior point to a geodesic, in closed form.

    On the hyperboloid the point is the unit timelike vector
    (1 + |z|^2, 2x, 2y) / (1 - |z|^2) and the geodesic (A, B, A) is the
    plane A t + Re(B) x + Im(B) y = 0, whose normal has Minkowski norm
    sqrt(|B|^2 - A^2).  sinh of the distance is the point's value in the
    plane's form over that norm, i.e. |E(z)| / ((1 - |z|^2) sqrt(|B|^2 -
    A^2)).  Near the geodesic this is proportional to |E(z)| itself, so
    a point within ~1e-8 of it keeps its relative accuracy (no
    difference of two nearly equal distances is formed).
    """
    z = check_disk(p)
    norm2 = abs(geo.b) ** 2 - geo.a * geo.a
    if norm2 <= 0.0:
        raise NotACycle("degenerate geodesic coefficients")
    return math.asinh(abs(geo.evaluate(z)) / ((1.0 - abs(z) ** 2) * math.sqrt(norm2)))


def sample_points(cycle: GeneralizedCycle, count: int,
                  margin: float = 1e-6) -> list[complex]:
    """Points on the cycle strictly inside the disk, for residual checks.

    Circles fully inside the disk are sampled uniformly in angle; arcs
    (geodesics, equidistants) are sampled between their two crossings of
    a slightly shrunk absolute so every sample keeps the margin.
    """
    if cycle.is_line:
        d = 1j * cycle.b / abs(cycle.b)
        z0 = -cycle.c * cycle.b / (2.0 * abs(cycle.b) ** 2)
        half = math.sqrt(max(0.0, (1.0 - margin) ** 2 - abs(z0) ** 2))
        return [z0 + d * (half * (2.0 * k / (count - 1) - 1.0)) for k in range(count)]
    ec, er = cycle.euclid_center_radius()
    shrunk = GeneralizedCycle.of(1.0, 0j, -((1.0 - margin) ** 2))
    crossings = intersect(cycle, shrunk)
    if len(crossings) < 2:
        # fully interior: whole circle
        return [ec + er * complex(math.cos(t), math.sin(t))
                for t in (2.0 * math.pi * k / count for k in range(count))]
    t0, t1 = sorted(math.atan2((z - ec).imag, (z - ec).real) for z in crossings)
    # choose the arc whose midpoint is inside
    mid = ec + er * complex(math.cos((t0 + t1) / 2.0), math.sin((t0 + t1) / 2.0))
    if abs(mid) >= 1.0 - margin:
        t0, t1 = t1, t0 + 2.0 * math.pi
    pad = 1e-3 * (t1 - t0)
    lo, hi = t0 + pad, t1 - pad
    return [ec + er * complex(math.cos(t), math.sin(t))
            for t in (lo + (hi - lo) * k / (count - 1) for k in range(count))]
