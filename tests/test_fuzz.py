"""Hand-given triangles, fuzzed: every input either works or exits with
one line.

The corpus draws vertex radii near the absolute (1 - 10^-u), near the
origin (10^-u) or uniformly, then makes some triangles near-collinear,
some with two near-coincident vertices and some shrunk about a vertex
by 10^-u.  Each triangle runs `construct`, `render` or `verify --trials
1` through `cli.main` in process.  A triangle that `Triangle.of`
refuses is a usage error: it exits 2, and no other input does.
`construct` and `render` exit 1 only where `build_config` raises.
"""

import cmath
import json
import math
import xml.etree.ElementTree as ET
from random import Random

import pytest

from hypfeuer import cli
from hypfeuer.cevians import build_config
from hypfeuer.errors import GeometryError
from hypfeuer.geom_core import Triangle

SEED = 1
INPUTS = 300
COMMANDS = (["construct"], ["render"], ["verify", "--trials", "1"])


def _vertex(rng: Random) -> complex:
    roll = rng.random()
    if roll < 0.3:
        radius = 1.0 - 10.0 ** -rng.uniform(1.0, 16.0)
    elif roll < 0.5:
        radius = 10.0 ** -rng.uniform(0.0, 12.0)
    else:
        radius = rng.random()
    return radius * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _triangle(rng: Random) -> tuple[complex, complex, complex]:
    """Three vertices of the corpus, each with |z| < 1 - 1e-12."""
    while True:
        a, b, c = _vertex(rng), _vertex(rng), _vertex(rng)
        roll = rng.random()
        if roll < 0.15:  # c on the chord ab, lifted off it
            c = a + rng.random() * (b - a) + 1j * 10.0 ** -rng.uniform(1.0, 16.0)
        elif roll < 0.3:  # b next to a
            b = a + 10.0 ** -rng.uniform(1.0, 16.0) * cmath.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi))
        elif roll < 0.4:  # shrunk about a
            scale = 10.0 ** -rng.uniform(1.0, 12.0)
            b, c = a + scale * (b - a), a + scale * (c - a)
        if max(abs(a), abs(b), abs(c)) < 1.0 - 1e-12:
            return a, b, c


def corpus(seed: int, count: int) -> list[list[str]]:
    """count argv lists, a triangle each, the commands in turn."""
    rng = Random(seed)
    return [[*COMMANDS[i % 3], "--triangle",
             ",".join(cli.format_complex(z) for z in _triangle(rng))]
            for i in range(count)]


def refused(argv: list[str]) -> bool:
    """Whether Triangle.of refuses argv's triangle."""
    try:
        Triangle.of(*cli.parse_triangle(argv[-1]))
    except GeometryError:
        return True
    return False


def builds(argv: list[str]) -> bool:
    """Whether build_config builds argv's triangle, one Triangle.of takes."""
    try:
        build_config(Triangle.of(*cli.parse_triangle(argv[-1])))
    except GeometryError:
        return False
    return True


def outcome(argv: list[str], capsys) -> str | None:
    """What breaks the contract on argv, or None: an escaping exception,
    an exit code outside 0-2, exit 2 for a triangle Triangle.of takes or
    any other for one it refuses, construct or render exiting 1 on a
    triangle build_config builds, stdout that is neither JSON nor (for
    render) SVG, or a usage error that is not one `hypfeuer: ` line."""
    try:
        code = cli.main(argv)
    except Exception as exc:
        capsys.readouterr()
        return f"{type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if (code == 2) != refused(argv):
        return f"exit code {code} for a triangle Triangle.of {'refuses' if code != 2 else 'takes'}"
    if code == 1 and argv[0] != "verify" and builds(argv):
        return f"{argv[0]} exit 1 for a triangle build_config builds"
    if out:
        if argv[0] == "render":
            if not out.startswith("<svg"):
                return "render wrote no SVG"
        else:
            try:
                json.loads(out)
            except ValueError:
                return "stdout is not JSON"
    if code == 2 and not (err.startswith("hypfeuer: ") and err.count("\n") == 1):
        return f"usage error wrote {err!r}"
    return None


def test_fuzzed_triangles_work_or_exit_with_one_line(capsys):
    broken = {}
    inputs = corpus(SEED, INPUTS)
    for argv in inputs:
        problem = outcome(argv, capsys)
        if problem is not None:
            broken[" ".join(argv)] = problem
    assert broken == {}
    # the corpus reaches the refusals it is there to test
    assert sum(map(refused, inputs)) >= 20


# (seed, index) of the corpus inputs, at 900 a seed, whose construct or
# render exited 1 with NotACycle: a cevian whose foot sits next to its
# vertex has a normal that is not spacelike, and it reached
# geodesic_of_normal; the pencil now leaves it out, so each writes its
# configuration
NO_GEODESIC_CEVIAN = [(3, 387), (3, 684), (3, 780), (3, 888), (4, 339), (4, 852),
                      (1, 391), (1, 433), (2, 424), (2, 442)]


@pytest.mark.parametrize("seed, index", NO_GEODESIC_CEVIAN,
                         ids=[f"{seed}-{index}" for seed, index in NO_GEODESIC_CEVIAN])
def test_a_cevian_that_is_no_geodesic_does_not_stop_construct_or_render(
        seed, index, capsys):
    argv = corpus(seed, 900)[index]
    assert argv[0] in ("construct", "render")
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "render":
        ET.fromstring(out)
    else:
        json.loads(out)
