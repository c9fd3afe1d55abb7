"""Core primitives for the hyperbolic plane in the unit-disk model.

Points are complex numbers z with |z| < 1.  The boundary circle |z| = 1
(the absolute) is not part of the plane; every constructor that accepts
user input enforces a safety margin of 1e-12 away from it.

Orientation-preserving isometries of the disk are the Mobius maps

    z  ->  e^{i theta} (z - a) / (1 - conj(a) z),        |a| < 1,

and composing with complex conjugation first gives the orientation-
reversing ones.  ``DiskIsometry`` stores exactly that data.

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
form (see ``cevians``).  The sampled checks call ``sigma`` for
sigma(a, x, b) and ``abs(signed_area)`` for the area of (a, b, x) once
per sample x, on samples their guards keep clear of a and b, so
neither raises there; a raise of ``sigma`` all the same fails the
inscribed-angle check.

A point below the input boundary is a ``complex``, and a real number
works as one.  ``check_disk`` is the one caller of ``as_complex``: it
checks a point-like input (complex, real or 2-tuple) for
``Triangle.of`` and ``DiskIsometry`` and returns it as a complex; every
other function takes its points as they come, ``disk_distance`` too,
which measures points already checked or built by the library.
"""

from __future__ import annotations

import cmath
import math

from .errors import BoundaryPoint, DegenerateAngle, DegenerateTriangle

TAU = 2.0 * math.pi

# margin kept between accepted points and the absolute
BOUNDARY_EPS = 1e-12

# below this pseudolength two points count as the same point
COINCIDENT_EPS = 1e-13


def as_complex(p) -> complex:
    """Coerce a point-like input (complex, real, or 2-tuple) to complex."""
    if isinstance(p, (complex, int, float)):
        return complex(p)
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return complex(p[0], p[1])
    raise TypeError(f"not a point: {p!r}")


def check_disk(p) -> complex:
    """Return p as complex, raising BoundaryPoint unless |p| <= 1 - BOUNDARY_EPS."""
    z = as_complex(p)
    if abs(z) > 1.0 - BOUNDARY_EPS:
        raise BoundaryPoint(f"|z| = {abs(z):.17g} exceeds 1 - {BOUNDARY_EPS:g}")
    return z


def mobius_to_origin(a: complex, z: complex) -> complex:
    """The translation sending a to 0, applied to z."""
    return (z - a) / (1.0 - a.conjugate() * z)


def mobius_from_origin(a: complex, w: complex) -> complex:
    """Inverse of mobius_to_origin(a, .): sends 0 back to a."""
    return (w + a) / (1.0 + a.conjugate() * w)


def disk_distance(p: complex, q: complex) -> float:
    """Geodesic distance 2 asinh(|q - p| / sqrt((1 - |p|^2)(1 - |q|^2)))
    between two points inside the disk, unchecked: for points already
    checked or built by the library (check_disk refuses the others).

    This is 2 atanh |(q - p) / (1 - conj(p) q)|, as |1 - conj(p) q|^2 -
    |q - p|^2 = (1 - |p|^2)(1 - |q|^2); near the absolute that
    pseudolength can round to 1, where atanh has no value.
    """
    return 2.0 * math.asinh(abs(q - p)
                            / math.sqrt((1.0 - abs(p) ** 2) * (1.0 - abs(q) ** 2)))


def wrap_angle(d: float) -> float:
    """Reduce an angle difference to the half-open interval (-pi, pi]."""
    d = math.remainder(d, TAU)
    if d <= -math.pi:
        d += TAU
    return d


def signed_angle(x: complex, y: complex, z: complex) -> float:
    """Signed angle at y from ray y->x to ray y->z, ccw positive, in (-pi, pi].

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


def convex_quad_angles(a: complex, b: complex, c: complex, d: complex) -> list[float] | None:
    """Unsigned interior angles of quadrilateral abcd at a, b, c, d, or
    None unless it is convex: its four turns signed_angle(d, a, b),
    signed_angle(a, b, c), signed_angle(b, c, d) and signed_angle(c, d, a)
    share a sign (a degenerate turn counts as not convex)."""
    try:
        ta, tb = signed_angle(d, a, b), signed_angle(a, b, c)
        tc, td = signed_angle(b, c, d), signed_angle(c, d, a)
    except DegenerateAngle:
        return None
    if ta > 0.0 and tb > 0.0 and tc > 0.0 and td > 0.0:
        return [ta, tb, tc, td]
    if ta < 0.0 and tb < 0.0 and tc < 0.0 and td < 0.0:
        return [-ta, -tb, -tc, -td]
    return None


def signed_area(a: complex, b: complex, c: complex) -> float:
    """Area of triangle abc, counterclockwise positive.  Two vertices
    closer than signed_angle allows (pseudolength
    |a - b| / |1 - a conj(b)| below COINCIDENT_EPS) raise DegenerateAngle.
    """
    ab = 1.0 - a * b.conjugate()
    bc = 1.0 - b * c.conjugate()
    ca = 1.0 - c * a.conjugate()
    if (abs(a - b) < COINCIDENT_EPS * abs(ab) or abs(b - c) < COINCIDENT_EPS * abs(bc)
            or abs(c - a) < COINCIDENT_EPS * abs(ca)):
        raise DegenerateAngle("two triangle vertices coincide")
    return 2.0 * cmath.phase(ab * bc * ca)


def sigma(x: complex, y: complex, z: complex) -> float:
    """angle(x,y,z) - angle(z,x,y) - angle(y,z,x), the cevian functional,
    in (-pi, pi]: composed from signed_area(x, y, z) and
    signed_angle(x, y, z), so two coincident points raise DegenerateAngle.

    For a clockwise triangle with apex y over base xz this equals
    2*angle_at_y + area - pi.  It is constant on any circle arc through
    x and z (on the same side), equals pi when y lies between x and z on
    their geodesic, and is additive when a cevian splits the angle sum.
    """
    s = signed_area(x, y, z)
    return wrap_angle(2.0 * signed_angle(x, y, z) - s + math.copysign(math.pi, s))


def triangle_area(a: complex, b: complex, c: complex) -> float:
    """Area of triangle abc, abs(signed_area(a, b, c)): two coincident
    vertices raise DegenerateAngle, an area below 1e-15 DegenerateTriangle."""
    area = abs(signed_area(a, b, c))
    if area < 1e-15:
        raise DegenerateTriangle(f"collinear vertices (area {area:.3g})")
    return area


class Record:
    """Base of hypfeuer's value records.

    A record class's ``__slots__`` are its fields, in the order its
    ``__init__`` takes them; the JSON writer in ``cli`` writes a record
    as those fields.  A record class that writes no ``__init__`` gets
    one compiled from its slots: it takes each field positionally or by
    keyword and stores it as given, and a ``_defaults`` tuple on the
    class gives the defaults of the last fields.  One class writes its
    own: ``DiskIsometry``, which checks its point.

    Two records are equal when they are of one class and their fields
    are equal (against another class ``==`` returns NotImplemented), a
    record hashes as its field tuple, and ``replace(**changes)`` builds
    a copy with some fields changed, through ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:
            return
        # compiled, so a call runs the bytecode of a written-out __init__
        fields = cls.__slots__
        source = f"def __init__(self, {', '.join(fields)}):\n" + ("".join(
            f"    self.{name} = {name}\n" for name in fields) or "    pass\n")
        namespace = {"__name__": cls.__module__}
        exec(compile(source, f"<{cls.__qualname__} record>", "exec"), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = cls.__dict__.get("_defaults")
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        values = [changes.pop(name) if name in changes else getattr(self, name)
                  for name in self.__slots__]
        if changes:
            raise TypeError(f"{type(self).__qualname__} has no field "
                            f"{sorted(changes)[0]!r}")
        return type(self)(*values)


class Triangle(Record):
    """Three interior points, stored in clockwise order, with the area.

    Counterclockwise input is normalized by swapping b and c (recorded
    in ``swapped``) so that downstream sign conventions never branch.
    """

    __slots__ = ("a", "b", "c", "swapped", "area")

    @classmethod
    def of(cls, a, b, c) -> "Triangle":
        za, zb, zc = (check_disk(p) for p in (a, b, c))
        for p, q, lbl in ((za, zb, "ab"), (zb, zc, "bc"), (za, zc, "ac")):
            if disk_distance(p, q) <= 1e-9:
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
        if vertex == "a":
            return self.a, self.b, self.c
        if vertex == "b":
            return self.b, self.c, self.a
        if vertex == "c":
            return self.c, self.a, self.b
        raise KeyError(vertex)


class DiskIsometry(Record):
    """z -> e^{i theta} (c(z) - a) / (1 - conj(a) c(z)), c = conj iff reflect:
    conjugation is applied first."""

    __slots__ = ("a", "theta", "reflect")

    def __init__(self, a: complex = 0j, theta: float = 0.0, reflect: bool = False):
        self.a = check_disk(a)
        self.theta = theta
        self.reflect = reflect

    def __call__(self, p: complex) -> complex:
        if self.reflect:
            p = p.conjugate()
        return cmath.exp(1j * self.theta) * (p - self.a) / (1.0 - self.a.conjugate() * p)

    def inverse(self) -> "DiskIsometry":
        rot = cmath.exp(1j * self.theta)
        if self.reflect:
            return DiskIsometry(-self.a.conjugate() / rot, self.theta, True)
        return DiskIsometry(-self.a * rot, -self.theta, False)
