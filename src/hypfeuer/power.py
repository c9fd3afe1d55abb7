"""Power of a point, radical axes, homothety and inversion on cycles.

The pseudolength of a segment is tanh of half its hyperbolic length,
i.e. the Euclidean length of its image after translating one endpoint to
the origin.  With distances measured this way the classical Euclidean
power machinery survives verbatim in the disk:

* power(P, c) = product of pseudolengths P->X, P->Y over any chord XY of
  c through P (negative when P is enclosed); computed in closed form by
  translating P to the origin, where it is the constant-over-quadratic
  coefficient ratio of the translated cycle;
* the locus of equal power of two cycles is always a geodesic (the
  radical axis): the equal-power condition factors through the algebra
  with one factor supported on the absolute and the other a coefficient
  cross-combination that satisfies the geodesic condition identically;
* homothety with pseudolength ratio k about a center fixes the center
  and multiplies chord pseudolengths by k; inversion swaps them against
  a fixed pseudolength power.

Homothetic centers of two circles are signed sums of the two circles'
hyperboloid vectors (``cycles._circle_vector``), the points each kind of
common tangent passes through.  The construction is a deterministic
function of the circles and does not check its result; collinearity of
the centers is what the Monge check measures.  ``monge_centers`` builds
the three pairs' centers once, and ``monge_line`` picks and fits one
sign pattern's centers from them, so a check over all four patterns
constructs each pair once.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    AxisOutsideDisk,
    ConcentricCycles,
    DegenerateConfiguration,
    MissingCenter,
    NoHyperbolicCenter,
)
from .geom_core import Record
from .cycles import (
    GeneralizedCycle,
    _circle_vector,
    _translate_raw,
    geodesic_through,
    meet_point,
    point_geodesic_distance,
    through_normal,
)


def pseudolength(p: complex, q: complex) -> float:
    """tanh(d(p, q) / 2): the Euclidean length of pq seen from p's frame."""
    return abs((q - p) / (1.0 - p.conjugate() * q))


def power_of_point(p: complex, cycle: GeneralizedCycle) -> float:
    """Chord-product power of p with respect to a cycle (negative inside)."""
    a2, _, c2 = _translate_raw(p, cycle.a, cycle.b, cycle.c)
    if abs(a2) < 1e-15:
        raise DegenerateConfiguration("power undefined: cycle through the absolute inverse")
    return c2 / a2


def radical_axis(c1: GeneralizedCycle, c2: GeneralizedCycle) -> GeneralizedCycle:
    """The geodesic of points with equal power with respect to c1 and c2,
    neither of them a geodesic (|C - A| at least GEODESIC_EPS): a
    geodesic's power is identically 1, so against it the powers agree
    nowhere or everywhere, and the caller (check_radical_axis) skips such
    a pair before it gets here.

    The combination below has equal leading and constant coefficients by
    construction, so it is exactly a geodesic; no projection step is
    needed.  It has no interior locus when the two cycles are concentric
    circles, and also when the equal-power locus lies beyond the
    absolute; the coefficients alone cannot tell these apart (every
    empty axis is the translate of an origin-centred one), so the
    circles' hyperboloid vectors (``cycles._circle_vector``) decide
    which error is raised.
    """
    ar = c1.a * c2.c - c2.a * c1.c
    br = (c1.a - c1.c) * c2.b - (c2.a - c2.c) * c1.b
    if abs(br) ** 2 - ar * ar <= 1e-28:
        try:
            *p1, n1, _ = _circle_vector(c1)
            *p2, n2, _ = _circle_vector(c2)
        except NoHyperbolicCenter:
            pass
        else:
            # concentric circles have parallel P vectors: their cross
            # product has Minkowski norm |P1| |P2| sinh d for the distance
            # d between the centers
            mt, mx, my = through_normal(p1, p2)
            if mx * mx + my * my - mt * mt < (1e-10 * n1 * n2) ** 2:
                raise ConcentricCycles("the circles share a hyperbolic center")
        raise AxisOutsideDisk("radical axis has no interior locus")
    return GeneralizedCycle.of(ar, br, ar)


def _centered_map(center: complex, cycle: GeneralizedCycle, centered) -> GeneralizedCycle:
    """Image of a cycle under a map about center: translate center to the
    origin, apply centered to the coefficients (A, B, C) there, and
    translate back."""
    a3, b3, c3 = centered(*_translate_raw(center, cycle.a, cycle.b, cycle.c))
    return GeneralizedCycle.of(*_translate_raw(-center, a3, b3, c3))


def homothety_cycle(center, k: float, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under the homothety about center with ratio k."""
    # in the centered frame w -> k w sends (A, B, C) to (A, kB, k^2 C)
    return _centered_map(center, cycle, lambda a, b, c: (a, k * b, k * k * c))


def inversion_cycle(center, r2: float, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under inversion about center with power r2."""
    # in the centered frame w -> r2 / conj(w) sends (A, B, C) to (C, r2 B, r2^2 A)
    return _centered_map(center, cycle, lambda a, b, c: (c, r2 * b, r2 * r2 * a))


class HomotheticCenters(Record):
    """Positive and negative homothetic centers of two circles; a center
    that does not exist in the disk is None."""

    __slots__ = ("positive", "negative")


def crossing_angle(c1: GeneralizedCycle, c2: GeneralizedCycle, at: complex) -> float:
    """Unsigned angle between two cycles at a common point, in [0, pi/2]."""
    g1 = c1.gradient(at)
    g2 = c2.gradient(at)
    if abs(g1) < 1e-15 or abs(g2) < 1e-15:
        raise DegenerateConfiguration("vanishing gradient at crossing")
    phi = abs(cmath.phase(g2 / g1))
    return min(phi, math.pi - phi)


def homothetic_centers(c1: GeneralizedCycle, c2: GeneralizedCycle) -> HomotheticCenters:
    """Both homothetic centers of two circles, absent entries as None.

    On the hyperboloid a circle is its center O and radius r, and a
    geodesic with unit normal n touches it where <O, n> = +-sinh r.  A
    common tangent with both circles on one side (positive center) or on
    opposite sides (negative) therefore contains

        X = sinh(r2) O1 -+ sinh(r1) O2,

    the point all such tangents pass through.  _circle_vector gives each
    circle as P = |P| O with s = |P| sinh r, so X is s2 P1 -+ s1 P2 up
    to a positive scale; the center exists in the disk exactly when X
    is timelike, and meet_point reads it.  Concentric circles give their
    common center (one circle twice gives it only as the negative
    center).  Tangent circles touch at a center: the positive one if one
    circle is inside the other, the negative one if not.
    """
    t1, x1, y1, _, s1 = _circle_vector(c1)
    t2, x2, y2, _, s2 = _circle_vector(c2)
    return HomotheticCenters(
        meet_point(s2 * t1 - s1 * t2, s2 * x1 - s1 * x2, s2 * y1 - s1 * y2),
        meet_point(s2 * t1 + s1 * t2, s2 * x1 + s1 * x2, s2 * y1 + s1 * y2))


def monge_centers(c1: GeneralizedCycle, c2: GeneralizedCycle, c3: GeneralizedCycle,
                  ) -> tuple[HomotheticCenters, HomotheticCenters, HomotheticCenters]:
    """Homothetic centers of the pairs (c2, c3), (c3, c1) and (c1, c2),
    built once for every sign pattern monge_line is asked about."""
    return (homothetic_centers(c2, c3), homothetic_centers(c3, c1),
            homothetic_centers(c1, c2))


# The sign patterns whose three centers are collinear (all positive, or
# exactly two negative), keyed p and n in the pairs' order.
MONGE_PATTERNS = {"ppp": (1, 1, 1), "pnn": (1, -1, -1), "npn": (-1, 1, -1),
                  "nnp": (-1, -1, 1)}


def monge_line(pair_centers: tuple[HomotheticCenters, HomotheticCenters, HomotheticCenters],
               signs: tuple[int, int, int],
               ) -> tuple[GeneralizedCycle, float, list[complex]]:
    """Line through the three pairwise homothetic centers chosen by signs.

    pair_centers is what monge_centers returns for three circles;
    signs, one of MONGE_PATTERNS' values (no other pattern's centers
    are collinear), picks signs[0] for the center of the pair (c2, c3),
    and cyclically.  Returns the geodesic through the first two centers,
    the distance of the third from it, and the three centers.
    """
    centers: list[complex] = []
    for hc, s in zip(pair_centers, signs):
        chosen = hc.positive if s == 1 else hc.negative
        if chosen is None:
            kind = "positive" if s == 1 else "negative"
            raise MissingCenter(f"{kind} center of a pair does not exist")
        centers.append(chosen)
    line = geodesic_through(centers[0], centers[1])
    return line, point_geodesic_distance(centers[2], line), centers
