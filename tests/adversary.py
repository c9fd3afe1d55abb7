"""Search for a legal triangle on which one triangle check fails.

Run from the repository root as ``PYTHONPATH=src python3
tests/adversary.py`` (options: ``--check NAME`` for one check,
``--box`` and ``--min-angle`` for the scenario, ``--evals`` per check,
``--seed``).  For each triangle check it climbs: start at a random legal
triangle (vertices in |z| <= box, every angle at least min_angle), move
one vertex by a random step, keep the move when it raises the check's
residual / tolerance, halve the step after MISSES moves in a row that
do not, and restart from a new random triangle once the step falls
below MIN_STEP.  A move that leaves the box, breaks the angle floor or
makes no triangle is a miss.  A skipped check scores 0.  A raise from
``build_config`` or the check is a finding of its own: it is counted,
the first one's type and triangle are kept, and the climb does not move
there.

It prints one line per check:

    check box min_angle best_ratio raises first_raise --triangle "a,b,c"

with the triangle of the best ratio (or of the first raise, when the
best ratio is not above 1 and something raised) in the form ``verify
--triangle`` reads, so that ``hypfeuer verify --trials 1 --suite CHECK
--triangle "..."`` replays it.  Seeded and deterministic; stdlib only;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import cmath
import math
from random import Random

from hypfeuer import theorems
from hypfeuer.cevians import build_config
from hypfeuer.cli import format_complex
from hypfeuer.errors import GeometryError
from hypfeuer.geom_core import Triangle, signed_angle
from hypfeuer.instances import random_triangle

CHECKS = ("six_point", "euler_line", "euler_ratios", "feuerbach", "tangent_cevians",
          "feuerbach_point")

MISSES = 30
START_STEP = 0.1
MIN_STEP = 1e-13


def legal(points, box: float, min_angle: float) -> Triangle | None:
    """The triangle of three points when it lies in the scenario's box
    with every angle at least min_angle, else None."""
    if max(abs(p) for p in points) > box:
        return None
    try:
        tri = Triangle.of(*points)
    except GeometryError:
        return None
    angles = [abs(signed_angle(p, v, q)) for v, p, q in map(tri.opposite, "abc")]
    return tri if min(angles) >= min_angle else None


def search(check: str, box: float, min_angle: float, evals: int, seed: int):
    """(best ratio, its points, raises, first raise as (type name,
    points)) of one check's climb over `evals` evaluated triangles."""
    rng = Random(seed)
    run = getattr(theorems, f"check_{check}")
    best, best_points = 0.0, None
    raises, first_raise = 0, None
    done = 0
    while done < evals:
        tri, _ = random_triangle(rng, box, min_angle)
        points, score, step, misses = [tri.a, tri.b, tri.c], None, START_STEP, 0
        while done < evals and step >= MIN_STEP:
            trial = list(points)
            if score is not None:
                k = rng.randrange(3)
                trial[k] += step * rng.random() * cmath.exp(1j * rng.uniform(0.0, math.tau))
            tri = legal(trial, box, min_angle)
            value = None
            if tri is not None:
                done += 1
                try:
                    chk = run(build_config(tri))
                except Exception as exc:  # noqa: BLE001 -- any raise is a finding
                    raises += 1
                    first_raise = first_raise or (type(exc).__name__, trial)
                else:
                    value = 0.0 if chk.residual is None else chk.residual / chk.tolerance
            if value is not None and (score is None or value > score):
                points, score, misses = trial, value, 0
                if value > best:
                    best, best_points = value, trial
            else:
                misses += 1
                if misses == MISSES:
                    step, misses = 0.5 * step, 0
    return best, best_points, raises, first_raise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", choices=CHECKS, action="append")
    parser.add_argument("--box", type=float, default=0.7)
    parser.add_argument("--min-angle", type=float, default=0.15)
    parser.add_argument("--evals", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for check in args.check or CHECKS:
        best, points, raises, first_raise = search(check, args.box, args.min_angle,
                                                   args.evals, args.seed)
        kind, shown = "-", points
        if first_raise is not None:
            kind = first_raise[0]
            if best <= 1.0:
                shown = first_raise[1]
        triangle = ",".join(format_complex(p) for p in shown) if shown else "-"
        print(f"{check} {args.box} {args.min_angle} {best:.3g} {raises} {kind} "
              f'--triangle "{triangle}"', flush=True)


if __name__ == "__main__":
    main()
