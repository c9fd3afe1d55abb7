"""Generalized cycles: one algebra for geodesics, circles, horocycles, equidistants.

A cycle is the real locus of

    E(z) = A |z|^2 + 2 Re(conj(B) z) + C  =  0

with A, C real and B complex, not all zero.  Scaling (A, B, C) by a
nonzero real gives the same locus, so coefficients are normalized to
max(|A|, |B|, |C|) = 1 with the first nonzero of (A, Re B, Im B, C)
positive.  ``GeneralizedCycle.of`` does this in one pass: it coerces
only what is not already float or complex, takes the scale by
comparisons, divides, then applies the sign rule to the scaled parts.
A triple with any non-finite part (NaN included, wherever it sits),
all parts zero, or A = B = 0 (the line at infinity) raises NotACycle.
In this form:

* geodesics are exactly the cycles with C = A (diameters have A = 0),
* Euclidean center and radius are -B/A and sqrt(|B|^2 - A C)/|A|
  (``coefficient_center_radius``, on a bare triple too),
* the inversive product <c1,c2> = 2 Re(B1 conj B2) - A1 C2 - A2 C1 is
  invariant under disk isometries up to a common scale, which makes
  |<c1,c2>^2 - <c1,c1><c2,c2>| / (<c1,c1><c2,c2>) a scale-free tangency
  residual (it is the normalized discriminant of the intersection
  quadratic, zero exactly at tangency).

A translation acts on coefficients in closed form (``_translate_raw``):
the power of a point, homothety and inversion, and the tangent-circle
shot in ``cevians`` work in the frame where their center is the origin.
``transform`` applies a whole ``DiskIsometry`` the same way; no
construction in the package calls it.  Every cycle is also a plane
on the hyperboloid of disk points (``_hyperboloid_plane``), which gives
a circle's center and radius, tells which side of the absolute a
disjoint cycle lies on, and places homothetic centers.  A geodesic
(A, B, A) is the plane with normal (A, Re B, Im B), the cross product of
the lifts (|z|^2 + 1, 2x, 2y) of two of its points (``point_lift``,
``through_normal``): two geodesics meet at the cross product of their
normals, no quadratic solved, and a point's distance to one is the
plane's form at the point over the norms, for a point given as a
hyperboloid vector (``plane_distances``, with unit normals) or as a disk
point (``point_geodesic_distance``).  ``meet_point`` is the one reader
of a hyperboloid vector as a disk point: a meet, a circle's center, a
homothetic or tritangent center.

The checks' cycle constructions live here too: the constant-area locus
(``lexell_cycle``, a cycle through two points' absolute inverses,
built as homogeneous rows by ``cycle_through_rows`` like every cycle
through three points) and samples along a cycle, split into its frame
(``sample_frame``) and the expression of one sample (``frame_point``),
so a caller computes only the samples it reads; ``farthest_sample``
picks the one farthest from a point of the cycle.  Only this module
reads a frame's layout.  Every cycle, a line or not, is sampled by arc
length from its point m nearest the origin (``arc_frame``; a circle
about the origin takes m on the positive real axis): the point at arc
length s is m + t h e^{i kappa s / 2} (``arc_point``) and a point's arc
length is read back by ``arc_length``, so no center or radius is formed
and a near-line of huge Euclidean radius keeps its samples on it.  The
part of a cycle inside the disk (``disk_arc``) is the arc through m
between its two crossings of the absolute, found once for the sampler
and the SVG clip; a cycle that does not cross it twice is sampled, and
drawn, whole.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    CoincidentPoints,
    IdenticalCycles,
    MissingCenter,
    NoHyperbolicCenter,
    NotACircle,
    NotACycle,
)
from .geom_core import (
    BOUNDARY_EPS,
    DiskIsometry,
    Record,
    check_disk,
)

# normalized |C - A| below this: the cycle is a geodesic
GEODESIC_EPS = 1e-12

_INF = math.inf
_new_object = object.__new__


class GeneralizedCycle(Record):
    """Normalized coefficient triple (a real, b complex, c real)."""

    __slots__ = ("a", "b", "c")

    @classmethod
    def of(cls, a: float, b: complex, c: float) -> "GeneralizedCycle":
        """The normalized cycle of a coefficient triple, in one pass;
        NotACycle for a zero or non-finite triple or an empty locus (a
        negative discriminant, or A = B = 0: the line at infinity)."""
        if type(a) is not float:
            a = float(a)
        if type(b) is not complex:
            b = complex(b)
        if type(c) is not float:
            c = float(c)
        sa, sb, sc = abs(a), abs(b), abs(c)
        # a NaN fails every comparison, so it is refused here wherever it is
        if not (sa < _INF and sb < _INF and sc < _INF):
            raise NotACycle("non-finite coefficients")
        scale = sa if sa >= sb else sb
        if sc > scale:
            scale = sc
        if scale == 0.0:
            raise NotACycle("zero coefficients")
        a, b, c = a / scale, b / scale, c / scale
        if a != 0.0:
            if abs(b) ** 2 - a * c < -1e-14:
                raise NotACycle("negative discriminant: empty locus")
        elif b == 0.0:
            raise NotACycle("A = B = 0: the line at infinity, an empty locus")
        # sign convention: first meaningfully nonzero of (a, Re b, Im b, c) positive
        lead = a
        if -1e-14 <= lead <= 1e-14:
            lead = b.real
            if -1e-14 <= lead <= 1e-14:
                lead = b.imag
                if -1e-14 <= lead <= 1e-14:
                    lead = c
        if lead < 0.0:
            a, b, c = -a, -b, -c
        # the slots __init__ sets, without the call into it
        cycle = _new_object(cls)
        cycle.a, cycle.b, cycle.c = a, b, c
        return cycle

    def evaluate(self, p: complex) -> float:
        return self.a * abs(p) ** 2 + 2.0 * (self.b.conjugate() * p).real + self.c

    @property
    def is_line(self) -> bool:
        """Euclidean line through the origin region (A = 0)."""
        return abs(self.a) < GEODESIC_EPS

    def gradient(self, p: complex) -> complex:
        """Euclidean gradient of E at p, as a complex vector."""
        return 2.0 * (self.a * p + self.b)


def coefficient_center_radius(a: float, b: complex, c: float) -> tuple[complex, float]:
    """Euclidean center -b / a and radius sqrt(|b|^2 - a c) / |a| of the
    circle with coefficients (a, b, c), a != 0, without building it; a
    negative |b|^2 - a c reads as radius 0."""
    return -b / a, math.sqrt(max(abs(b) ** 2 - a * c, 0.0)) / abs(a)


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


def _hyperboloid_plane(cycle: GeneralizedCycle) -> tuple[float, float, float, float]:
    """(P_t, P_x, P_y, k) of the cycle's hyperboloid plane <X, P> + k = 0.

    A disk point z lifts to X = (1 + |z|^2, 2x, 2y) / (1 - |z|^2), with
    <X, X> = X_t^2 - X_x^2 - X_y^2 = 1, and E(z) / (1 - |z|^2) = <X, P> + k
    for P = ((A + C)/2, -Re B, -Im B) and k = (C - A)/2, both turned so
    that P_t >= 0.  Then <X, P> > 0 for a timelike P, so a locus that
    misses the absolute is inside the disk exactly when k < 0.  A circle
    has its center at P / |P| and cosh of its radius at -k / |P|.
    """
    pt, k = 0.5 * (cycle.a + cycle.c), 0.5 * (cycle.c - cycle.a)
    if pt < 0.0:
        return -pt, cycle.b.real, cycle.b.imag, -k
    return pt, -cycle.b.real, -cycle.b.imag, k


def _circle_vector(cycle: GeneralizedCycle) -> tuple[float, float, float, float, float]:
    """(P_t, P_x, P_y, |P|, s) of a circle inside the disk (P timelike,
    k < -|P|), with s = sqrt(|B|^2 - A C) = |P| sinh r; raises
    NoHyperbolicCenter for any other cycle."""
    pt, px, py, k = _hyperboloid_plane(cycle)
    norm = math.sqrt(max(pt * pt - px * px - py * py, 0.0))
    if norm == 0.0 or k >= -norm:
        raise NoHyperbolicCenter("not a circle inside the disk")
    s2 = abs(cycle.b) ** 2 - cycle.a * cycle.c
    return pt, px, py, norm, math.sqrt(max(s2, 0.0))


def circle_vector(cycle: GeneralizedCycle) -> tuple[float, float, float, float]:
    """(O_t, O_x, O_y, sinh r) of a circle inside the disk: its unit
    center vector O = P / |P| and sinh of its radius (_circle_vector,
    which raises NoHyperbolicCenter for any other cycle)."""
    pt, px, py, norm, s = _circle_vector(cycle)
    return pt / norm, px / norm, py / norm, s / norm


def cycle_through(p: complex, q: complex, r: complex) -> GeneralizedCycle:
    """Unique cycle through three distinct points: cycle_through_rows of
    their rows (|z|^2, x, y, 1).

    Accepts interior points, absolute points, and their inverses alike:
    the coefficients are polynomial in the inputs.  Collinear points
    come out with A = 0, i.e. a straight line, automatically.
    """
    if abs(p - q) < 1e-12 or abs(q - r) < 1e-12 or abs(r - p) < 1e-12:
        raise CoincidentPoints("cycle through coincident points")
    return cycle_through_rows((abs(p) ** 2, p.real, p.imag, 1.0),
                              (abs(q) ** 2, q.real, q.imag, 1.0),
                              (abs(r) ** 2, r.real, r.imag, 1.0))


def cycle_through_rows(r0, r1, r2) -> GeneralizedCycle:
    """The cycle A s + 2 Re(B) x + 2 Im(B) y + C w = 0 through three
    homogeneous rows (s, x, y, w), from the rows' signed 3x3 minors.

    A point z is the row (|z|^2, x, y, 1) and its absolute inverse
    z / |z|^2 the row (1, x, y, |z|^2), so the inverse of the disk
    center is the point at infinity (1, 0, 0, 0) and a cycle through it
    comes out as a line, no division taken.  With every w = 1.0 each
    product y1 * w2 is y1 exactly, so points give the bits of the plain
    cofactor expansion.
    """
    s0, x0, y0, w0 = r0
    s1, x1, y1, w1 = r1
    s2, x2, y2, w2 = r2
    # cofactors of the first row of det[s, x, y, w; the three rows]
    dy12, dy02, dy01 = y1 * w2 - y2 * w1, y0 * w2 - y2 * w0, y0 * w1 - y1 * w0
    dx12, dx02, dx01 = x1 * w2 - x2 * w1, x0 * w2 - x2 * w0, x0 * w1 - x1 * w0
    a = x0 * dy12 - x1 * dy02 + x2 * dy01
    c12 = s0 * dy12 - s1 * dy02 + s2 * dy01
    c13 = s0 * dx12 - s1 * dx02 + s2 * dx01
    c14 = (s0 * (x1 * y2 - x2 * y1)
           - s1 * (x0 * y2 - x2 * y0)
           + s2 * (x0 * y1 - x1 * y0))
    return GeneralizedCycle.of(a, complex(-c12 / 2.0, c13 / 2.0), -c14)


def point_lift(z: complex) -> tuple[float, float, float]:
    """(|z|^2 + 1, 2x, 2y): the hyperboloid point of z times 1 - |z|^2.
    It is polynomial, so it takes ideal endpoints on the absolute as
    exactly as interior points."""
    return abs(z) ** 2 + 1.0, 2.0 * z.real, 2.0 * z.imag


def through_normal(u, v) -> tuple[float, float, float]:
    """The normal (A, Re B, Im B) of the geodesic through two lifted
    points: the cross product of the lifts."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def geodesic_of_normal(n) -> GeneralizedCycle:
    """The geodesic (A, B, A) with the normal n = (A, Re B, Im B)."""
    return GeneralizedCycle.of(n[0], complex(n[1], n[2]), n[0])


def geodesic_through(p: complex, q: complex) -> GeneralizedCycle:
    """Geodesic through two distinct points.

    Lifting z to (|z|^2 + 1, 2x, 2y) (point_lift) turns "cycle with
    C = A" into a plane through the origin; the cross product of two
    lifts (through_normal) is its normal, read back as (A, B, C=A).
    """
    if abs(p - q) < 1e-12:
        raise CoincidentPoints("geodesic through coincident points")
    return geodesic_of_normal(through_normal(point_lift(p), point_lift(q)))


def lexell_cycle(a: complex, b: complex, x0: complex) -> GeneralizedCycle:
    """The constant-area locus through x0 over base ab: the cycle through
    x0 and the absolute inverses of a and b, taken as the rows
    (1, x, y, |z|^2) (cycle_through_rows), so a base end at the disk
    center sends the locus through the point at infinity: a line."""
    return cycle_through_rows((1.0, a.real, a.imag, abs(a) ** 2),
                              (1.0, b.real, b.imag, abs(b) ** 2),
                              (abs(x0) ** 2, x0.real, x0.imag, 1.0))


def _translate_raw(t: complex, a_: float, b_: complex, c_: float):
    """Coefficients after the substitution z = (w + t)/(1 + conj(t) w)."""
    bc = b_.conjugate()
    t2 = abs(t) ** 2
    cross = 2.0 * (bc * t).real
    return a_ + cross + c_ * t2, a_ * t + b_ + bc * t * t + c_ * t, a_ * t2 + cross + c_


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


def _self_products(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """<c1,c1><c2,c2>, the scale of both tangency measures.  NotACircle
    when either cycle has |B|^2 - AC = 0, a point or a circle whose
    radius squares to nothing against its coefficients."""
    g = inversive_product(c1, c1) * inversive_product(c2, c2)
    if g == 0.0:
        raise NotACircle("a cycle of radius zero has no tangency")
    return g


def tangency_residual(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """Scale-free tangency defect; zero iff the cycles touch at one point."""
    g = _self_products(c1, c2)
    return abs(inversive_product(c1, c2) ** 2 - g) / g


def tangency_ratio(c1: GeneralizedCycle, c2: GeneralizedCycle) -> float:
    """<c1,c2> / sqrt(<c1,c1><c2,c2>): +1 internal tangency, -1 external."""
    return inversive_product(c1, c2) / math.sqrt(_self_products(c1, c2))


def intersect(c1: GeneralizedCycle, c2: GeneralizedCycle) -> tuple[complex, ...]:
    """All intersection points in the plane (0, 1 or 2 of them)."""
    if c1.is_line and c2.is_line:
        # two straight lines: direct 2x2 solve on their equations
        return _intersect_lines(c1, c2)
    return coefficient_crossings(c1.a, c1.b, c1.c, c2.a, c2.b, c2.c)


def coefficient_crossings(a1: float, b1: complex, c1: float,
                          a2: float, b2: complex, c2: float) -> tuple[complex, ...]:
    """intersect of the cycles with coefficients (a1, b1, c1) and (a2, b2,
    c2), not both lines, without building them.

    Eliminating |z|^2 between the two equations leaves a line; the
    quadratic along that line is solved with the sign-aware formula so
    nearly tangent pairs do not lose a root to cancellation.
    """
    b_l = a2 * b1 - a1 * b2
    c_l = a2 * c1 - a1 * c2
    if abs(b_l) < 1e-15:
        if abs(c_l) < 1e-15:
            raise IdenticalCycles("cycles share every coefficient ratio")
        return ()
    if abs(a1) < abs(a2):
        # the quadratic is taken on the cycle with the larger A
        a1, b1, c1 = a2, b2, c2
    # line: 2 Re(conj(b_l) z) + c_l = 0, point closest to origin + direction
    z0 = -c_l * b_l / (2.0 * abs(b_l) ** 2)
    d = 1j * b_l / abs(b_l)
    # a1 |z0 + s d|^2 + 2 Re(conj(b1)(z0 + s d)) + c1 = 0
    qa = a1
    qb = 2.0 * (a1 * (z0.conjugate() * d).real + (b1.conjugate() * d).real)
    qc = a1 * abs(z0) ** 2 + 2.0 * (b1.conjugate() * z0).real + c1
    q = sign_aware_q(qa, qb, qc)
    if q is None:
        return ()
    if q == 0.0:
        return (z0 + 0.0 * d,)
    p1 = z0 + (q / qa) * d
    p2 = z0 + (qc / q) * d
    return (p1,) if abs(p2 - p1) < 1e-13 else (p1, p2)


def sign_aware_q(qa: float, qb: float, qc: float) -> float | None:
    """q = -(qb + sgn(qb) sqrt(qb^2 - 4 qa qc)) / 2 for the quadratic
    qa s^2 + qb s + qc, whose roots are then q / qa and qc / q: neither
    subtracts nearly equal numbers.  A zero qb, -0.0 too, takes the plus
    sign.  None when the discriminant is negative."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return -(qb + root) / 2.0 if qb >= 0.0 else -(qb - root) / 2.0


def _intersect_lines(c1: GeneralizedCycle, c2: GeneralizedCycle) -> tuple[complex, ...]:
    det = c1.b.real * c2.b.imag - c1.b.imag * c2.b.real
    if abs(det) < 1e-15:
        if coefficient_distance(c1, c2) < 1e-12:
            raise IdenticalCycles("same straight line")
        return ()
    x = (-c1.c / 2.0 * c2.b.imag + c2.c / 2.0 * c1.b.imag) / det
    y = (-c1.b.real * c2.c / 2.0 + c2.b.real * c1.c / 2.0) / det
    return (complex(x, y),)


def meet_point(t: float, x: float, y: float) -> complex | None:
    """The disk point of the hyperboloid ray through (t, x, y), or None
    unless the vector is timelike: X / |X| reads back in the disk as
    (X_x + i X_y) / (X_t + |X|), either sign of X giving the same point.
    It is the one reader of a vector as a point: the meet n1 x n2 of two
    geodesic normals, a circle's center vector, a sum of them."""
    q = t * t - x * x - y * y
    if q <= 0.0:
        return None
    return complex(x, y) / (t + math.copysign(math.sqrt(q), t))


def circle_from_center_radius(center: complex, rho: float) -> GeneralizedCycle:
    """Hyperbolic circle with given interior center and radius rho > 0:
    the plane with P = (1 + |z|^2, 2x, 2y) and k = -|P| cosh(rho), halved
    and written with cosh(rho) = 1 + 2 sinh(rho/2)^2 so small radii keep
    their digits."""
    z2 = abs(center) ** 2
    h = math.sinh(0.5 * rho) ** 2 * (1.0 - z2)
    return GeneralizedCycle.of(1.0 + h, -center, z2 - h)


def hyp_center_radius(cycle: GeneralizedCycle) -> tuple[complex, float]:
    """Interior center P / |P| (meet_point) and hyperbolic radius
    asinh(s / |P|) of a circle inside the disk (_circle_vector);
    NoHyperbolicCenter for any other cycle."""
    pt, px, py, norm, s = _circle_vector(cycle)
    center = meet_point(pt, px, py)
    # meet_point's q is norm^2 > 0 here, so only a meet_point that reads
    # points differently returns None: a circle whose center is missing,
    # which callers must tell from a cycle that is not a circle
    if center is None:
        raise MissingCenter("a circle's center vector reads as no point")
    return center, math.asinh(s / norm)


def spacelike_norm(n) -> float:
    """Minkowski norm sqrt(|B|^2 - A^2) of a normal n = (A, Re B, Im B),
    or 0.0 when n is not spacelike: then it is no geodesic's normal (a
    line through two points equal to rounding has none)."""
    n0, n1, n2 = n
    norm2 = n1 * n1 + n2 * n2 - n0 * n0
    return 0.0 if norm2 <= 0.0 else math.sqrt(norm2)


def unit_normal(n) -> tuple[float, float, float]:
    """The normal n = (A, Re B, Im B) of a geodesic scaled to Minkowski
    norm 1 (spacelike_norm); NotACycle when n is not spacelike."""
    norm = spacelike_norm(n)
    if not norm:
        raise NotACycle("degenerate geodesic coefficients")
    s = 1.0 / norm
    return n[0] * s, n[1] * s, n[2] * s


def plane_distances(x, normals) -> list[float]:
    """Distance from the point of a timelike vector x = (t, x, y), of any
    scale, to each geodesic given by its unit normal n: asinh(|n . x| /
    sqrt(t^2 - x^2 - y^2)), n . x being the geodesic's form at x."""
    t, xx, y = x
    root = math.sqrt(t * t - xx * xx - y * y)
    return [math.asinh(abs(n0 * t + n1 * xx + n2 * y) / root) for n0, n1, n2 in normals]


def point_geodesic_distance(p: complex, geo: GeneralizedCycle) -> float:
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
    r = abs(p)
    if r > 1.0 - BOUNDARY_EPS:
        check_disk(p)  # raises BoundaryPoint
    r2 = r ** 2
    a, b = geo.a, geo.b
    norm2 = abs(b) ** 2 - a * a
    if norm2 <= 0.0:
        raise NotACycle("degenerate geodesic coefficients")
    return math.asinh(abs(geo.evaluate(p)) / ((1.0 - r2) * math.sqrt(norm2)))


def arc_frame(cycle: GeneralizedCycle) -> tuple[complex, complex, float]:
    """(m, t, kappa) of a cycle: its point nearest the origin
    m = -B C / (|B| (|B| + S)), S = sqrt(|B|^2 - A C), the unit tangent
    t = i B / |B| there, and the signed curvature kappa = A / S, 0 on a
    line; the center is m + i t / kappa.  No term cancels, however
    small A is, so a near-line keeps its digits.  A circle about the
    origin (B = 0) has every point nearest: it takes m = -C / S on the
    positive real axis and t = i.  A radius-0 circle (S = 0) and a line
    so far out that |B| (|B| + S) underflows have no such frame: they
    take m at infinity and kappa = 0, whose every point lies outside the
    disk, so they get no sample there."""
    b, nb = cycle.b, abs(cycle.b)
    s = math.sqrt(max(nb * nb - cycle.a * cycle.c, 0.0))
    try:
        if nb == 0.0:
            return complex(-cycle.c / s), 1j, cycle.a / s
        return -b * cycle.c / (nb * (nb + s)), 1j * b / nb, cycle.a / s
    except ZeroDivisionError:
        return complex(math.inf), 1j, 0.0


def arc_point(m: complex, t: complex, kappa: float, s: float) -> complex:
    """The point at signed arc length s from m along t on the cycle of
    arc_frame: m + t h e^{i kappa s / 2}, with the chord h = 2 Im(e^{i
    kappa s / 2}) / kappa, or h = s on a line, in one cmath.exp.  An
    error in s moves the point along the cycle, not off it."""
    e = cmath.exp(1j * (0.5 * kappa * s))
    return m + t * (2.0 * e.imag / kappa if kappa else s) * e


def arc_length(m: complex, t: complex, kappa: float, p: complex) -> float:
    """The signed arc length from m to a point p of the cycle of
    arc_frame: (2 / |kappa|) atan2(|p - m|, |p - m - 2 i t / kappa|), the
    second point being m's antipode, or |p - m| on a line; signed by
    Re((p - m) conj(t)).  Both distances are taken on w = (p - m)
    conj(t), p - m turned so that t is 1."""
    w = (p - m) * t.conjugate()
    s = abs(w) if kappa == 0.0 else (
        2.0 / abs(kappa) * math.atan2(abs(w), math.hypot(w.real, w.imag - 2.0 / kappa)))
    return math.copysign(s, w.real)


def disk_arc(cycle: GeneralizedCycle, margin: float) -> tuple | None:
    """((m, t, kappa), (p, q), half) of a cycle that crosses |z| = 1 -
    margin twice: its arc_frame, and the crossings p at arc length -half
    and q at +half; None when it crosses fewer than twice.

    Along a cycle the distance from the origin falls until m and rises
    after it, so the part inside is the arc through m from p to q; the
    line through the origin and m is an axis of symmetry of both
    circles, so the crossings lie at opposite arc lengths.  They are
    coefficient_crossings' of the two coefficient triples, so no cycle
    is built.
    """
    crossings = coefficient_crossings(cycle.a, cycle.b, cycle.c,
                                      1.0, 0j, -(1.0 - margin) ** 2)
    if len(crossings) < 2:
        return None
    frame = arc_frame(cycle)
    p, q = crossings
    s = arc_length(*frame, p)
    return frame, ((p, q) if s < 0.0 else (q, p)), abs(s)


def sample_frame(cycle: GeneralizedCycle, margin: float = 1e-6) -> tuple:
    """(m, t, kappa, half): where sample_points(cycle, count, margin) puts
    its samples, for any count; frame_point gives each sample.  The
    samples spread evenly over the arc lengths from -half to half of the
    cycle's arc_frame, half being less a pad of 1e-3 of the span at each
    end.  On a cycle that crosses the shrunk absolute, a line or not, the
    span is its in-disk arc (disk_arc); on any other it is the whole
    curve, pi / |kappa| either side of m, or nothing on a line (every
    sample at m)."""
    arc = disk_arc(cycle, margin)
    if arc is not None:
        frame, _, half = arc
    else:
        frame = arc_frame(cycle)
        half = math.pi / abs(frame[2]) if frame[2] else 0.0
    return (*frame, half * (1.0 - 2e-3))


def frame_point(frame: tuple, k: int, count: int) -> complex:
    """Sample k of count in a sample_frame, without the other samples:
    arc_point at half (2 k / (count - 1) - 1), bit for bit the one
    sample_points(cycle, count, margin) keeps when it lies inside the
    disk."""
    m, t, kappa, half = frame
    return arc_point(m, t, kappa, half * (2.0 * k / (count - 1) - 1.0))


def farthest_sample(frame: tuple, count: int, c0: complex) -> complex:
    """The sample of count in a sample_frame of a cycle through c0
    farthest from c0, the lower index on a tie: the first of a stable
    sort of all of them by -abs(z - c0).

    The distance grows with the arc between a sample and c0 up to c0's
    antipode, at arc length s0 +- pi / |kappa|; on a line it grows
    without end.  So the farthest is an end or one of the two samples
    either side of the antipode, and only those (at most four) are
    computed (frame_point).  An antipode in the padded gap of a whole
    circle lies beyond an end, and the two ends are always computed."""
    m, t, kappa, half = frame
    s0 = arc_length(m, t, kappa, c0)
    # the antipode on the side of m away from c0; a line has none
    below = math.floor((s0 - math.copysign(math.pi / kappa, s0) + half) / (2.0 * half)
                       * (count - 1)) if kappa else -1
    ks = {0, count - 1, *(k for k in (below, below + 1) if 0 <= k < count)}
    # max keeps the first of equal distances, so the lower index
    return max((frame_point(frame, k, count) for k in sorted(ks)), key=lambda z: abs(z - c0))


def sample_points(cycle: GeneralizedCycle, count: int,
                  margin: float = 1e-6) -> list[complex]:
    """Those of the count samples of the cycle's sample_frame that lie
    strictly inside the disk, for residual checks: all of them on a
    cycle that crosses the shrunk absolute or lies inside it, none on a
    cycle with no part inside.

    Every cycle is sampled by arc length: an arc (geodesic, equidistant,
    large circle) between its two crossings of a slightly shrunk
    absolute, so every sample keeps the margin, and a circle inside the
    disk all round, from m's antipode back to it.
    """
    frame = sample_frame(cycle, margin)
    return [z for k in range(count) if abs(z := frame_point(frame, k, count)) < 1.0]


def _arc_samples(cycle: GeneralizedCycle, a: complex, b: complex,
                 count: int) -> list[complex]:
    """Interior points on the arc of the cycle from a to b (excluding
    both): between the arc lengths of a and b (arc_length), an arc
    through the cycle's point nearest the origin."""
    m, t, kappa = arc_frame(cycle)
    sa, sb = arc_length(m, t, kappa, a), arc_length(m, t, kappa, b)
    xs = [arc_point(m, t, kappa, sa + (sb - sa) * k / (count + 1)) for k in range(1, count + 1)]
    return [z for z in xs if abs(z) < 1.0 - 1e-9 and abs(z - a) > 1e-9 and abs(z - b) > 1e-9]
