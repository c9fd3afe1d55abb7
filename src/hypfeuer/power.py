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

Homothetic centers of two circles are placed in closed form on the
geodesic through their hyperbolic centers by the hyperbolic ratio law.
The construction is a deterministic function of the circles and does not
check its result; collinearity of the centers is what the Monge check
measures.  ``monge_centers`` builds the three pairs' centers once, and
``monge_line`` picks and fits one sign pattern's centers from them, so a
check over all four patterns constructs each pair once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    AxisOutsideDisk,
    CenterInput,
    ConcentricCycles,
    DegenerateConfiguration,
    ImageOutsideDisk,
    InvalidSignPattern,
    MissingCenter,
    NoHyperbolicCenter,
    NoInteriorCenter,
    NotACircle,
)
from .geom_core import (
    as_complex,
    hyp_distance,
    mobius_from_origin,
    mobius_to_origin,
)
from .cycles import (
    GeneralizedCycle,
    _translate_raw,
    geodesic_through,
    hyp_center_radius,
    interior_intersections,
    point_geodesic_distance,
)


def pseudolength(p, q) -> float:
    """tanh(d(p, q) / 2): the Euclidean length of pq seen from p's frame."""
    zp, zq = as_complex(p), as_complex(q)
    return abs((zq - zp) / (1.0 - zp.conjugate() * zq))


def power_of_point(p, cycle: GeneralizedCycle) -> float:
    """Chord-product power of p with respect to a cycle (negative inside)."""
    z = as_complex(p)
    a2, _, c2 = _translate_raw(z, cycle.a, cycle.b, cycle.c)
    if abs(a2) < 1e-15:
        raise DegenerateConfiguration("power undefined: cycle through the absolute inverse")
    return c2 / a2


def radical_axis(c1: GeneralizedCycle, c2: GeneralizedCycle) -> GeneralizedCycle:
    """The geodesic of points with equal power with respect to c1 and c2.

    The combination below has equal leading and constant coefficients by
    construction, so it is exactly a geodesic; no projection step is
    needed.  It has no interior locus when the two cycles are concentric
    circles, and also when the equal-power locus lies beyond the
    absolute; the coefficients alone cannot tell these apart (every
    empty axis is the translate of an origin-centred one), so the
    hyperbolic centers decide which error is raised.
    """
    # a geodesic has equal leading/constant coefficients, which makes its
    # power identically 1: against anything else powers can never agree,
    # and against another geodesic they agree everywhere
    if abs(c1.c - c1.a) < 1e-12 or abs(c2.c - c2.a) < 1e-12:
        raise ConcentricCycles("constant power on a geodesic member")
    ar = c1.a * c2.c - c2.a * c1.c
    br = (c1.a - c1.c) * c2.b - (c2.a - c2.c) * c1.b
    if abs(br) ** 2 - ar * ar <= 1e-28:
        if _concentric_circles(c1, c2):
            raise ConcentricCycles("the circles share a hyperbolic center")
        raise AxisOutsideDisk("radical axis has no interior locus")
    return GeneralizedCycle.of(ar, br, ar)


def _concentric_circles(c1: GeneralizedCycle, c2: GeneralizedCycle) -> bool:
    try:
        o1, _ = hyp_center_radius(c1)
        o2, _ = hyp_center_radius(c2)
    except (NotACircle, NoHyperbolicCenter):
        return False
    return hyp_distance(o1, o2) < 1e-10


def radical_center(c1: GeneralizedCycle, c2: GeneralizedCycle,
                   c3: GeneralizedCycle) -> tuple[complex, float]:
    """Common point of the three pairwise radical axes, with residual."""
    r12 = radical_axis(c1, c2)
    r13 = radical_axis(c1, c3)
    r23 = radical_axis(c2, c3)
    pts = interior_intersections(r12, r13)
    if not pts:
        raise NoInteriorCenter("radical axes meet outside the disk")
    return pts[0], point_geodesic_distance(pts[0], r23)


def homothety_point(center, k: float, p) -> complex:
    """Image of p under the homothety about center with pseudolength ratio k."""
    w = k * mobius_to_origin(as_complex(center), as_complex(p))
    if abs(w) >= 1.0:
        raise ImageOutsideDisk(f"scaled pseudolength {abs(w):.6g} >= 1")
    return mobius_from_origin(as_complex(center), w)


def homothety_cycle(center, k: float, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under the homothety about center with ratio k."""
    z = as_complex(center)
    a2, b2, c2 = _translate_raw(z, cycle.a, cycle.b, cycle.c)
    # in the centered frame w -> k w sends (A, B, C) to (A, kB, k^2 C)
    a3, b3, c3 = a2, k * b2, k * k * c2
    a4, b4, c4 = _translate_raw(-z, a3, b3, c3)
    return GeneralizedCycle.of(a4, b4, c4)


def inversion_point(center, r2: float, p) -> complex:
    """Inversion about center with pseudolength power r2 > 0."""
    w = mobius_to_origin(as_complex(center), as_complex(p))
    if abs(w) < 1e-14:
        raise CenterInput("inversion center has no image")
    w2 = r2 / w.conjugate()
    if abs(w2) >= 1.0:
        raise ImageOutsideDisk(f"inverted pseudolength {abs(w2):.6g} >= 1")
    return mobius_from_origin(as_complex(center), w2)


def inversion_cycle(center, r2: float, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under inversion about center with power r2."""
    z = as_complex(center)
    a2, b2, c2 = _translate_raw(z, cycle.a, cycle.b, cycle.c)
    # in the centered frame w -> r2 / conj(w) sends (A, B, C) to (C, r2 B, r2^2 A)
    a3, b3, c3 = c2, r2 * b2, r2 * r2 * a2
    a4, b4, c4 = _translate_raw(-z, a3, b3, c3)
    return GeneralizedCycle.of(a4, b4, c4)


def rotation_half_turn_cycle(center, cycle: GeneralizedCycle) -> GeneralizedCycle:
    """Image of a cycle under the half turn about a point."""
    z = as_complex(center)
    a2, b2, c2 = _translate_raw(z, cycle.a, cycle.b, cycle.c)
    a4, b4, c4 = _translate_raw(-z, a2, -b2, c2)
    return GeneralizedCycle.of(a4, b4, c4)


@dataclass(frozen=True)
class HomotheticCenters:
    """Positive and negative homothetic centers of two circles; a center
    that does not exist in the disk is None."""

    positive: complex | None
    negative: complex | None


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

    By the hyperbolic ratio law both lie on the geodesic through the
    hyperbolic centers o1, o2, at signed distance x from its midpoint
    toward o2, where, with D = d(o1, o2),

        tanh x = tanh(D/2) tanh((r1 +- r2)/2) / tanh((r1 -+ r2)/2)

    for the positive and the negative center; a center needing
    |tanh x| >= 1 does not exist.  In o1's frame, where o2 sits at
    w with |w| = tanh(D/2), the center's Klein coordinate along w is
    tanh(D/2 + x), which the addition law gives from the two tanh values.
    """
    o1, r1 = hyp_center_radius(c1)
    o2, r2 = hyp_center_radius(c2)
    if hyp_distance(o1, o2) < 1e-10:
        # concentric: both centers coincide with the common center
        return HomotheticCenters(o1, o1)
    w = mobius_to_origin(o1, o2)
    th = abs(w)
    plus, minus = math.tanh(0.5 * (r1 + r2)), math.tanh(0.5 * (r1 - r2))

    def on_center_line(num: float, den: float) -> complex | None:
        if abs(num) >= abs(den):
            return None
        t = num / den
        k = (th + t) / (1.0 + th * t)
        return mobius_from_origin(o1, k / (1.0 + math.sqrt(1.0 - k * k)) * w / th)

    return HomotheticCenters(on_center_line(th * plus, minus),
                             on_center_line(th * minus, plus))


def monge_centers(c1: GeneralizedCycle, c2: GeneralizedCycle, c3: GeneralizedCycle,
                  ) -> tuple[HomotheticCenters, HomotheticCenters, HomotheticCenters]:
    """Homothetic centers of the pairs (c2, c3), (c3, c1) and (c1, c2),
    built once for every sign pattern monge_line is asked about."""
    return (homothetic_centers(c2, c3), homothetic_centers(c3, c1),
            homothetic_centers(c1, c2))


def monge_line(pair_centers: tuple[HomotheticCenters, HomotheticCenters, HomotheticCenters],
               signs: tuple[int, int, int],
               ) -> tuple[GeneralizedCycle, float, list[complex]]:
    """Line through the three pairwise homothetic centers chosen by signs.

    pair_centers is what monge_centers returns for three circles;
    signs[0] picks the center of the pair (c2, c3), and cyclically.  The
    product of the three signs must be positive for the collinearity to
    hold, so odd patterns are rejected.  Returns the geodesic through
    the first two centers, the distance of the third from it, and the
    three centers.
    """
    if any(s not in (1, -1) for s in signs) or signs[0] * signs[1] * signs[2] != 1:
        raise InvalidSignPattern(f"sign pattern {signs} spans no line")
    centers: list[complex] = []
    for hc, s in zip(pair_centers, signs):
        chosen = hc.positive if s == 1 else hc.negative
        if chosen is None:
            kind = "positive" if s == 1 else "negative"
            raise MissingCenter(f"{kind} center of a pair does not exist")
        centers.append(chosen)
    line = geodesic_through(centers[0], centers[1])
    return line, point_geodesic_distance(centers[2], line), centers
