"""Print the in-process CPU cost of each stage of a verify instance.

Run from the repository root as ``PYTHONPATH=src python3
tests/stage_costs.py [--instances 200] [--rounds 25] [--seed 0] [--box
0.25] [--min-angle 0.15]``.  Over the seeded instances 0 .. N-1 it
times, with ``time.process_time``, each stage on every instance:

* ``draw``: the triangle draw (``random_triangle``);
* ``build_config`` and ``build_config_bare``: ``build_config`` of the
  drawn triangle with and without the cevian pencils;
* ``suite <name>``: each suite's registry call (``cli.SUITES``), a
  drawn suite with its own draw, a triangle suite on the full
  configuration;
* ``writer``: ``cli.report_json`` of the ``verify --suite all`` report
  of those instances.

Each round times every stage once, in that order; the script prints
one ``stage min median`` row per stage, the per-instance cost in µs over
the rounds, then the parameters.  It reads CPU time, not wall time,
which swings by up to 2x on a loaded machine.  Stdlib only; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from hypfeuer import cli
from hypfeuer.cevians import build_config
from hypfeuer.instances import PURPOSE_TRIANGLE, instance_rng, random_triangle


def stages(seed: int, count: int, box: float, min_angle: float):
    """(name, run) of every stage; run() does the stage once on every
    instance."""
    def draw():
        return [random_triangle(instance_rng(seed, i, PURPOSE_TRIANGLE), box, min_angle)[0]
                for i in range(count)]

    triangles = draw()
    configs = [build_config(tri) for tri in triangles]
    yield "draw", draw
    yield "build_config", lambda: [build_config(tri) for tri in triangles]
    yield "build_config_bare", lambda: [build_config(tri, False) for tri in triangles]
    for name, (src, call) in cli.SUITES.items():
        if name in cli.TRIANGLE_SUITES:
            def run(call=call):
                for i, cfg in enumerate(configs):
                    call(cfg, i)
        else:
            def run(call=call, src=src):
                for i in range(count):
                    call(instance_rng(seed, i, src), i)
        yield f"suite {name}", run
    report = cli.run_verify(cli.Scenario(seed=seed, trials=count, max_vertex_radius=box,
                                         min_angle=min_angle))
    yield "writer", lambda: cli.report_json(report)


def costs(seed: int, count: int, rounds: int, box: float,
          min_angle: float) -> dict[str, list[float]]:
    """stage -> its per-instance CPU time in µs, one entry per round."""
    timed = list(stages(seed, count, box, min_angle))
    got: dict[str, list[float]] = {name: [] for name, _ in timed}
    for _ in range(rounds):
        for name, run in timed:
            start = time.process_time()
            run()
            got[name].append((time.process_time() - start) / count * 1e6)
    return got


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--box", type=float, default=0.25)
    parser.add_argument("--min-angle", type=float, default=cli.DEFAULT_MIN_ANGLE)
    args = parser.parse_args(argv)
    got = costs(args.seed, args.instances, args.rounds, args.box, args.min_angle)
    print(f"{'stage':28s} {'min_us':>9s} {'median_us':>9s}")
    for name, values in got.items():
        print(f"{name:28s} {min(values):9.1f} {statistics.median(values):9.1f}")
    print(f"seed {args.seed}, {args.instances} instances, {args.rounds} rounds, "
          f"box {args.box}, min_angle {args.min_angle}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
