"""Seeded generators: every rejection loop ends after MAX_DRAWS draws."""

import itertools

import pytest

from hypfeuer import instances
from hypfeuer.cycles import hyp_center_radius, sample_points
from hypfeuer.errors import SamplingExhausted
from hypfeuer.geom_core import convex_quad_angles
from hypfeuer.instances import (
    MAX_DRAWS,
    PURPOSE_QUAD,
    arc_instance,
    instance_rng,
    lexell_instance,
    monge_triple,
    random_cycle,
    random_cycle_pair,
    trapezoid_quad,
)


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
