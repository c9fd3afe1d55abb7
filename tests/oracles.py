"""Test-only constructions that the library itself never needs.

`random_isometry` draws the isometries of the invariance tests,
`diameter_with_direction` builds diameters for constructions that are
checked against a translated frame, `internal_bisector` builds a
vertex's angle bisector that way, `hyp_midpoint` is the midpoint
the foot oracles compare with, `interior_intersections` keeps the
crossings of two cycles that lie inside the disk, and `geodesic_meet`
is the meet of two geodesic cycles (`cycles.meet_point` of the cross
product of their normals).  `decimal_pencil` is the 50-digit oracle of
`cevians.concurrency_point`, and `bisect_root` the plain bisection the
cevian foot oracle solves with.
"""

import cmath
import itertools
import math
from decimal import Decimal, localcontext

from hypfeuer.cycles import GeneralizedCycle, intersect, meet_point, through_normal, transform
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
    """Intersection points inside the disk."""
    return tuple(z for z in intersect(c1, c2) if abs(z) < 1.0)


def geodesic_meet(g1: GeneralizedCycle, g2: GeneralizedCycle) -> complex | None:
    """The disk point where two geodesics (A, B, A) meet, or None: the
    meet_point of the cross product of their normals (A, Re B, Im B)."""
    return meet_point(*through_normal((g1.a, g1.b.real, g1.b.imag),
                                      (g2.a, g2.b.real, g2.b.imag)))


def decimal_pencil(normals):
    """The pencil of geodesic unit normals worked at 50 digits from the
    same float inputs: (meet, residual) for the pair with the largest
    q = m_t^2 - |m_xy|^2 of its cross product m (the first such pair in
    index order), its meet read back as a disk point and the worst
    asinh(|n_k . m| / sqrt(q)) over the other lines; (None, None) when
    that meet is not timelike."""
    with localcontext() as ctx:
        ctx.prec = 50
        ns = [tuple(Decimal(c) for c in n) for n in normals]
        best = None
        for i, j in itertools.combinations(range(len(ns)), 2):
            (a1, x1, y1), (a2, x2, y2) = ns[i], ns[j]
            m = (x1 * y2 - y1 * x2, y1 * a2 - a1 * y2, a1 * x2 - x1 * a2)
            q = m[0] * m[0] - m[1] * m[1] - m[2] * m[2]
            if best is None or q > best[0]:
                best = (q, i, j, m)
        q, i, j, m = best
        if q <= 0:
            return None, None
        root = q.sqrt()
        den = m[0] + root.copy_sign(m[0])
        zx, zy = m[1] / den, m[2] / den
        residual = Decimal(0)
        for k, (n0, n1, n2) in enumerate(ns):
            if k not in (i, j):
                s = abs(n0 * m[0] + n1 * m[1] + n2 * m[2]) / root
                residual = max(residual, (s + (s * s + 1).sqrt()).ln())
        return complex(float(zx), float(zy)), float(residual)


def bisect_root(f, lo: float, hi: float, width: float) -> float:
    """A root of f in the sign-changing bracket lo < hi, by halving it
    until it is at most width wide (or its ends are adjacent floats); an
    exact zero met on the way is returned as it is."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
