"""Seeded generators: every rejection loop ends after MAX_DRAWS draws."""

import itertools
import math

import pytest

from hypfeuer import instances
from hypfeuer.cycles import (
    GEODESIC_EPS,
    _arc_samples,
    circle_from_center_radius,
    geodesic_through,
    hyp_center_radius,
    lexell_cycle,
    membership_residual,
    point_geodesic_distance,
    sample_points,
)
from hypfeuer.errors import SamplingExhausted
from hypfeuer.geom_core import convex_quad_angles, disk_distance, triangle_area
from hypfeuer.instances import (
    MAX_DRAWS,
    MONGE_RADIUS_BANDS,
    PURPOSE_ARC,
    PURPOSE_CYCLE_PAIR,
    PURPOSE_LEXELL,
    PURPOSE_MONGE,
    PURPOSE_QUAD,
    arc_instance,
    instance_rng,
    lexell_instance,
    monge_triple,
    random_cycle,
    random_cycle_pair,
    trapezoid_quad,
)
from hypfeuer.power import (
    MONGE_PATTERNS,
    homothetic_centers,
    monge_centers,
    monge_line,
    pseudolength,
)
from hypfeuer.theorems import ARC_SAMPLES, LEXELL_SAMPLES


class StubStream:
    """Stands in for random.Random: random() replays `randoms` in turn and
    uniform(lo, hi) gives lo + (hi - lo) * u for `uniforms` in turn."""

    def __init__(self, randoms, uniforms=(0.0,)):
        self._randoms = itertools.cycle(randoms)
        self._uniforms = itertools.cycle(uniforms)
        self.calls = 0

    def random(self):
        self.calls += 1
        return next(self._randoms)

    def uniform(self, lo, hi):
        self.calls += 1
        return lo + (hi - lo) * next(self._uniforms)


# Each case: the generator, the stub stream's randoms and uniforms, none
# of whose draws it accepts, the stream calls one rejected draw takes, and
# the start of the message.
# A constant stream puts every disk point in one place, so point pairs
# coincide; random() = 0.7 picks the geodesic branch of random_cycle and
# 0.9 the equidistant one, whose two ideal endpoints then coincide.
# For random_cycle_pair the stream instead yields the diameter through
# +-0.8 sqrt(0.5) on every draw, a geodesic, which the pair never takes.
EXHAUSTING = [
    (random_cycle, ([0.7], [0.0]), 4, "random_cycle: no geodesic"),
    (random_cycle, ([0.9], [0.0]), 2, "random_cycle: no equidistant"),
    (random_cycle_pair, ([0.7, 0.5, 0.5], [0.0, 0.5]), 5,
     "random_cycle_pair: no circle or equidistant"),
    (lexell_instance, ([0.5], [0.0]), 6, "lexell_instance: no separated"),
    (trapezoid_quad, ([0.5], [0.0]), 4, "trapezoid_quad: no convex"),
]


@pytest.mark.parametrize("generator, stream, calls_per_draw, message", EXHAUSTING,
                         ids=["random_cycle-geodesic", "random_cycle-equidistant",
                              "random_cycle_pair", "lexell_instance", "trapezoid_quad"])
def test_generator_gives_up_after_max_draws(generator, stream, calls_per_draw, message):
    rng = StubStream(*stream)
    with pytest.raises(SamplingExhausted, match=message):
        generator(rng)
    # random_cycle draws its kind once before the loop
    before_loop = 1 if generator is random_cycle else 0
    assert rng.calls == before_loop + calls_per_draw * MAX_DRAWS


def test_trapezoid_converse_gives_up_after_max_draws():
    with pytest.raises(SamplingExhausted, match="trapezoid_quad"):
        trapezoid_quad(StubStream([0.5]), converse=True)


# Points that each fail one test of trapezoid_quad's locus sample and
# pass the others.  A small step from c along ba, or from a along bc,
# leaves (a, b, c, d) a convex trapezoid; |a - b| >= 0.4 and |c - a|,
# |c - b| >= 0.3 keep each step clear of the other vertices.

def _near_c(a, b, c):
    return c + 0.05 * (a - b) / abs(a - b)


def _near_a(a, b, c):
    return a + 0.04 * (c - b) / abs(c - b)


def _inside(a, b, c):
    # a point inside the triangle abc is a reflex vertex in either order;
    # the first of a few weightings that keeps clear of all three
    for wa, wb, wc in ((1, 1, 1), (1, 1, 0.5), (2, 1, 1), (1, 2, 1), (1, 1, 0.25)):
        d = (wa * a + wb * b + wc * c) / (wa + wb + wc)
        if abs(d - c) > 0.25 and abs(d - a) > 0.2 and abs(d - b) > 0.2:
            return d
    raise AssertionError("no interior point clear of the vertices")


# trapezoid_quad's tests of its locus sample, in the order it makes them
SAMPLE_RULES = (_near_c, _near_a, _inside)


@pytest.mark.parametrize("converse", (False, True))
@pytest.mark.parametrize("failing", SAMPLE_RULES)
def test_trapezoid_quad_redraws_when_its_sample_fails(monkeypatch, converse, failing):
    # no sampled draw's farthest locus sample fails a rule, so the first
    # one is made to: the draw is rejected and the result is the stream's
    # next accepted draw, the second unpatched call on it
    rng = instance_rng(0, 0, PURPOSE_QUAD)
    trapezoid_quad(rng, converse=converse)
    want = trapezoid_quad(rng, converse=converse)

    bases, calls = [], []
    lexell_cycle, farthest_sample = instances.lexell_cycle, instances.farthest_sample

    def recorded(a, b, c):
        bases.append((a, b, c))
        return lexell_cycle(a, b, c)

    def failing_once(frame, count, c0):
        calls.append(c0)
        if len(calls) > 1:
            return farthest_sample(frame, count, c0)
        a, b, c = bases[-1]
        d = failing(a, b, c)
        convex = [convex_quad_angles(*q) is not None for q in ((a, b, c, d), (a, b, d, c))]
        fails = [abs(d - c) <= 0.25, min(abs(d - a), abs(d - b)) <= 0.2, not any(convex)]
        assert fails == [rule is failing for rule in SAMPLE_RULES]
        return d

    monkeypatch.setattr(instances, "lexell_cycle", recorded)
    monkeypatch.setattr(instances, "farthest_sample", failing_once)
    got = trapezoid_quad(instance_rng(0, 0, PURPOSE_QUAD), converse=converse)
    assert len(calls) == 2
    assert got == want


def test_arc_instance_takes_the_first_cycle():
    # every sample of a drawn cycle lies inside the disk, so sample_points
    # keeps all 24 and the two points come from the first cycle drawn, a
    # third of the arc apart
    rng = StubStream([0.5])
    cycle, p, q = arc_instance(rng)
    assert rng.calls == 4  # kind, center radius and angle, cycle radius
    pts = sample_points(cycle, 24, margin=1e-3)
    assert len(pts) == 24
    assert (p, q) == (pts[0], pts[8])


def test_monge_centers_stay_inside_their_bound():
    # the largest draws the stream can give, base and offsets on one ray:
    # the farthest any center can land, which stays under 0.44
    rng = StubStream([1.0 - 2.0 ** -53])
    circles = monge_triple(rng)
    assert rng.calls == 2 + 3 * 3  # base point, then offset and radius per circle
    for circle in circles:
        center, _ = hyp_center_radius(circle)
        assert 0.43 < abs(center) < 0.44


# ------------------------------------------- what the drawn checks trust
# A drawn check fails, rather than skips, on an input that breaks a
# property its generator guarantees (theorems); each such property is
# pinned here over the streams verify draws from, seeds 0-5 x 200.

def _draws(purpose):
    for seed in range(6):
        for index in range(200):
            yield index, instance_rng(seed, index, purpose)


def test_arc_instance_puts_a_and_b_on_the_cycle_with_every_sample_between():
    # a and b are sample_points' own samples, and the arc between them
    # lies inside the sampled span, so _arc_samples keeps every sample;
    # it drops any within 1e-9 of a or b, and a and b lie far apart, so
    # sigma(a, x, b) meets no coincident pair
    for _, rng in _draws(PURPOSE_ARC):
        cycle, a, b = arc_instance(rng)
        assert max(membership_residual(cycle, a), membership_residual(cycle, b)) < 1e-14
        assert len(_arc_samples(cycle, a, b, ARC_SAMPLES)) == ARC_SAMPLES
        assert pseudolength(a, b) > 0.1


def test_lexell_instance_keeps_its_base_apart_and_its_apex_off_it():
    # and so the locus through the apex, |x0| <= 0.62, crosses the
    # shrunk absolute: every sample is kept, none near a or b
    for _, rng in _draws(PURPOSE_LEXELL):
        a, b, x0 = lexell_instance(rng)
        assert abs(a - b) >= 0.35
        assert point_geodesic_distance(x0, geodesic_through(a, b)) >= 0.05
        xs = sample_points(lexell_cycle(a, b, x0), LEXELL_SAMPLES, margin=1e-4)
        assert len(xs) == LEXELL_SAMPLES
        assert min(abs(x - p) for x in xs for p in (a, b)) > 0.01


def test_random_cycle_pair_draws_no_geodesic():
    for _, rng in _draws(PURPOSE_CYCLE_PAIR):
        for cycle in random_cycle_pair(rng):
            assert abs(cycle.c - cycle.a) > 1e-6 > GEODESIC_EPS


def test_trapezoid_quad_is_convex_and_non_degenerate():
    # the odd indices draw the converse quads, as verify does
    for index, rng in _draws(PURPOSE_QUAD):
        a, b, c, d = quad = trapezoid_quad(rng, converse=bool(index % 2))
        assert convex_quad_angles(*quad) is not None
        assert min(triangle_area(a, b, c), triangle_area(a, b, d)) > 0.05


def test_monge_triple_always_has_its_npn_centers():
    # the negative center of two circles always exists (a sum of two
    # future timelike vectors); the positive one of (c3, c1) exists below
    # a center distance of 1.30 (next test), and the draws' centers lie
    # within 2 * 2 atanh(0.16) = 0.65 of each other
    bound = 4.0 * math.atanh(0.16)
    for _, rng in _draws(PURPOSE_MONGE):
        circles = monge_triple(rng)
        centers = [hyp_center_radius(c)[0] for c in circles]
        assert max(disk_distance(p, q) for p, q in itertools.combinations(centers, 2)) < bound
        _, residual, _ = monge_line(monge_centers(*circles), MONGE_PATTERNS["npn"])
        assert residual < 1e-9


@pytest.mark.parametrize("distance, exists", [(1.29, True), (1.31, False)])
def test_monge_positive_center_of_c3_c1_exists_below_distance_1_30(distance, exists):
    # the worst radii of the bands: c1's smallest, c3's largest.  The
    # center X = sinh(r1) O3 - sinh(r3) O1 is timelike while cosh d <
    # (sinh(r1)^2 + sinh(r3)^2) / (2 sinh(r1) sinh(r3)), here d < 1.302
    r1, r3 = MONGE_RADIUS_BANDS[0][0], MONGE_RADIUS_BANDS[2][1]
    c1 = circle_from_center_radius(0j, r1)
    c3 = circle_from_center_radius(math.tanh(0.5 * distance), r3)
    assert (homothetic_centers(c3, c1).positive is not None) == exists
    assert 4.0 * math.atanh(0.16) < 0.65 < 1.29
