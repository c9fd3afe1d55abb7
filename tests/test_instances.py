"""Seeded generators: every rejection loop ends after MAX_DRAWS draws."""

import itertools

import pytest

from hypfeuer.cycles import hyp_center_radius, sample_points
from hypfeuer.errors import SamplingExhausted
from hypfeuer.instances import (
    MAX_DRAWS,
    arc_instance,
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


def test_arc_instance_takes_the_first_cycle():
    # sample_points always returns every sample it is asked for, so the
    # two points come from the first cycle drawn, a third of the arc apart
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
