"""Core primitives for the hyperbolic plane in the unit-disk model.

Points are complex numbers z with |z| < 1.  The boundary circle |z| = 1
(the absolute) is not part of the plane; every constructor that accepts
user input enforces a safety margin of 1e-12 away from it.

Orientation-preserving isometries of the disk are the Mobius maps

    z  ->  e^{i theta} (z - a) / (1 - conj(a) z),        |a| < 1,

and composing with complex conjugation first gives the orientation-
reversing ones.  ``DiskIsometry`` stores exactly that data and composes
through 2x2 matrices so products stay in the same closed form.

Angles are signed: ``signed_angle(x, y, z)`` is the rotation at y taking
the ray toward x onto the ray toward z, counterclockwise positive, in
(-pi, pi].  One kernel, the signed area

    s = 2 arg((1 - a conj(b)) (1 - b conj(c)) (1 - c conj(a))),

positive when abc runs counterclockwise, gives the area |s|, the
orientation and area ``Triangle.of`` stores, and the asymmetric angle
combination (the three signed angles sum to s - copysign(pi, s))

    sigma(x, y, z) = angle(x,y,z) - angle(z,x,y) - angle(y,z,x),

which drives every cevian construction here: on a circle through two
points it is constant, which gives the pseudoaltitude foot its closed
form (see ``cevians``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    BoundaryPoint,
    CenterHasNoInverse,
    DegenerateAngle,
    DegenerateTriangle,
)

TAU = 2.0 * math.pi

# margin kept between accepted points and the absolute
BOUNDARY_EPS = 1e-12

# below this pseudolength two points count as the same point
COINCIDENT_EPS = 1e-13


def as_complex(p) -> complex:
    """Coerce a point-like input (complex, real, or 2-tuple) to complex."""
    if type(p) is complex or isinstance(p, complex):
        return p
    if isinstance(p, (int, float)):
        return complex(p)
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return complex(p[0], p[1])
    raise TypeError(f"not a point: {p!r}")


def check_disk(p, eps: float = BOUNDARY_EPS) -> complex:
    """Return p as complex, raising BoundaryPoint unless |p| <= 1 - eps."""
    z = as_complex(p)
    if abs(z) > 1.0 - eps:
        raise BoundaryPoint(f"|z| = {abs(z):.17g} exceeds 1 - {eps:g}")
    return z


def mobius_to_origin(a: complex, z: complex) -> complex:
    """The translation sending a to 0, applied to z."""
    return (z - a) / (1.0 - a.conjugate() * z)


def mobius_from_origin(a: complex, w: complex) -> complex:
    """Inverse of mobius_to_origin(a, .): sends 0 back to a."""
    return (w + a) / (1.0 + a.conjugate() * w)


def hyp_distance(p, q) -> float:
    """Geodesic distance 2 atanh |(q-p)/(1 - conj(p) q)|."""
    zp, zq = check_disk(p), check_disk(q)
    return 2.0 * math.atanh(abs((zq - zp) / (1.0 - zp.conjugate() * zq)))


def hyp_midpoint(p, q) -> complex:
    """Midpoint of the geodesic segment pq."""
    zp, zq = as_complex(p), as_complex(q)
    w = mobius_to_origin(zp, zq)
    r = abs(w)
    if r == 0.0:
        return zp
    # halve the distance along the radius through w
    return mobius_from_origin(zp, w / r * math.tanh(math.atanh(r) / 2.0))


def absolute_inverse(p) -> complex:
    """Inversion in the absolute: z -> z / |z|^2.

    The disk center has no inverse (the would-be image is the point at
    infinity), so it is rejected rather than mapped somewhere arbitrary.
    """
    z = as_complex(p)
    if abs(z) < BOUNDARY_EPS:
        raise CenterHasNoInverse("absolute inverse of the disk center")
    return z / (abs(z) ** 2)


def wrap_angle(d: float) -> float:
    """Reduce an angle difference to the half-open interval (-pi, pi]."""
    d = math.remainder(d, TAU)
    if d <= -math.pi:
        d += TAU
    return d


def complex_angle(x: complex, y: complex, z: complex) -> float:
    """signed_angle for complex arguments only: the kernel behind the
    angle functions, which coerce their inputs once and then call this.

    The arithmetic is mobius_to_origin written out, then the phase
    difference and wrap_angle, so results are bit-identical to composing
    those functions.
    """
    yc = y.conjugate()
    u = (x - y) / (1.0 - yc * x)
    v = (z - y) / (1.0 - yc * z)
    if abs(u) < COINCIDENT_EPS or abs(v) < COINCIDENT_EPS:
        raise DegenerateAngle("angle vertex coincides with a ray endpoint")
    return wrap_angle(cmath.phase(v) - cmath.phase(u))


def signed_angle(x, y, z) -> float:
    """Signed angle at y from ray y->x to ray y->z, ccw positive, in (-pi, pi]."""
    return complex_angle(as_complex(x), as_complex(y), as_complex(z))


def signed_area(a: complex, b: complex, c: complex) -> float:
    """Area of triangle abc, counterclockwise positive; complex arguments
    only.  Two vertices closer than complex_angle allows (pseudolength
    |a - b| / |1 - a conj(b)| below COINCIDENT_EPS) raise DegenerateAngle.
    """
    ab = 1.0 - a * b.conjugate()
    bc = 1.0 - b * c.conjugate()
    ca = 1.0 - c * a.conjugate()
    if (abs(a - b) < COINCIDENT_EPS * abs(ab) or abs(b - c) < COINCIDENT_EPS * abs(bc)
            or abs(c - a) < COINCIDENT_EPS * abs(ca)):
        raise DegenerateAngle("two triangle vertices coincide")
    return 2.0 * cmath.phase(ab * bc * ca)


def sigma(x, y, z) -> float:
    """angle(x,y,z) - angle(z,x,y) - angle(y,z,x), the cevian functional,
    in (-pi, pi].

    For a clockwise triangle with apex y over base xz this equals
    2*angle_at_y + area - pi.  It is constant on any circle arc through
    x and z (on the same side), equals pi when y lies between x and z on
    their geodesic, and is additive when a cevian splits the angle sum.
    """
    zx, zy, zz = as_complex(x), as_complex(y), as_complex(z)
    s = signed_area(zx, zy, zz)
    return wrap_angle(2.0 * complex_angle(zx, zy, zz) - s + math.copysign(math.pi, s))


def triangle_area(a, b, c) -> float:
    """Area of triangle abc, the absolute signed area."""
    area = abs(signed_area(as_complex(a), as_complex(b), as_complex(c)))
    if area < 1e-15:
        raise DegenerateTriangle(f"collinear vertices (area {area:.3g})")
    return area


@dataclass(frozen=True)
class Triangle:
    """Three interior points, stored in clockwise order, with the area.

    Counterclockwise input is normalized by swapping b and c (recorded
    in ``swapped``) so that downstream sign conventions never branch.
    """

    a: complex
    b: complex
    c: complex
    swapped: bool
    area: float

    @classmethod
    def of(cls, a, b, c) -> "Triangle":
        za, zb, zc = (check_disk(p) for p in (a, b, c))
        for p, q, lbl in ((za, zb, "ab"), (zb, zc, "bc"), (za, zc, "ac")):
            if hyp_distance(p, q) <= 1e-9:
                raise DegenerateTriangle(f"vertices {lbl} closer than 1e-9")
        s = signed_area(za, zb, zc)
        if abs(s) <= 1e-12:
            raise DegenerateTriangle("area below 1e-12")
        if s > 0.0:
            return cls(za, zc, zb, True, s)
        return cls(za, zb, zc, False, -s)

    @property
    def vertices(self) -> dict[str, complex]:
        return {"a": self.a, "b": self.b, "c": self.c}

    def opposite(self, vertex: str) -> tuple[complex, complex, complex]:
        """(apex, base endpoint 1, base endpoint 2) for a vertex label."""
        order = {"a": (self.a, self.b, self.c),
                 "b": (self.b, self.c, self.a),
                 "c": (self.c, self.a, self.b)}
        return order[vertex]


def _su11(theta: float, a: complex) -> tuple[complex, complex]:
    """Matrix (alpha, beta) with T(z) = (alpha z + beta)/(conj(beta) z + conj(alpha))."""
    h = cmath.exp(0.5j * theta)
    return h, -h * a


@dataclass(frozen=True)
class DiskIsometry:
    """z -> e^{i theta} (c(z) - a) / (1 - conj(a) c(z)), c = conj iff reflect.

    Conjugation is applied first, so composition stays associative with
    a simple xor on the reflect flags.
    """

    a: complex = 0j
    theta: float = 0.0
    reflect: bool = False

    def __post_init__(self):
        check_disk(self.a)

    def __call__(self, p) -> complex:
        z = as_complex(p)
        if self.reflect:
            z = z.conjugate()
        return cmath.exp(1j * self.theta) * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def compose(self, other: "DiskIsometry") -> "DiskIsometry":
        """self after other: (self.compose(other))(z) == self(other(z))."""
        a1, b1 = _su11(self.theta, self.a)
        a2, b2 = _su11(other.theta, other.a)
        if self.reflect:
            a2, b2 = a2.conjugate(), b2.conjugate()
        alpha = a1 * a2 + b1 * b2.conjugate()
        beta = a1 * b2 + b1 * a2.conjugate()
        return DiskIsometry(-beta / alpha,
                            wrap_angle(2.0 * cmath.phase(alpha)),
                            self.reflect ^ other.reflect)

    def inverse(self) -> "DiskIsometry":
        rot = cmath.exp(1j * self.theta)
        if self.reflect:
            return DiskIsometry(-self.a.conjugate() / rot, self.theta, True)
        return DiskIsometry(-self.a * rot, -self.theta, False)

    @classmethod
    def translation(cls, a) -> "DiskIsometry":
        """The map sending a to the origin."""
        return cls(as_complex(a), 0.0, False)

    @classmethod
    def rotation(cls, theta: float) -> "DiskIsometry":
        return cls(0j, wrap_angle(theta), False)


def random_isometry(rng) -> DiskIsometry:
    """Orientation-preserving isometry with uniform rotation, mild translation."""
    r = 0.6 * math.sqrt(rng.random())
    phi = rng.uniform(0.0, TAU)
    return DiskIsometry(r * cmath.exp(1j * phi), rng.uniform(-math.pi, math.pi), False)
