"""Print every check's status over the verify scenarios of output_sweep.

Run from the repository root as ``PYTHONPATH=src python3
tests/status_sweep.py > statuses.txt``.  It runs the 48 ``verify
--suite all --trials 200`` scenarios of ``tests/output_sweep.py`` (seeds
0-5 in the 0.7, 0.25, 0.99 and 0.99999 boxes, ``min_angle`` 0.15 and 0;
9,600 instances) through ``hypfeuer.cli.main`` in process and prints
one line per instance with its instance flags, comma-joined (``-`` for
none):

    box min_angle seed index flags <flags>

one line per check:

    box min_angle seed index check status flag residual

with the residual as ``repr`` of the float (``None`` for a skip), and
one ``box min_angle seed - exit <code>`` line per scenario.  Two
trees' outputs compare with ``tests/status_diff.py PARENT CHANGE``,
which prints every changed exit code, instance flag, status or flag
and, per check, how many residuals moved and the worst on each side.
Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import tempfile

from output_sweep import BOXES, MIN_ANGLES, SEEDS, run

TRIALS = 200


def scenario_lines(box: float, min_angle: float, seed: int, path: str):
    """The lines of one verify scenario, its scenario file at path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"max_vertex_radius": box, "min_angle": min_angle}, fh)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code, _, _ = run(["verify", "--suite", "all", "--trials", str(TRIALS),
                          "--seed", str(seed), "--scenario", path, "--out", out])
        head = f"{box} {min_angle} {seed}"
        yield f"{head} - exit {code}"
        if not os.path.exists(out):
            return
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    for instance in report["instances"]:
        yield f"{head} {instance['index']} flags {','.join(instance['flags']) or '-'}"
        for check in instance["checks"]:
            yield (f"{head} {instance['index']} {check['name']} {check['status']} "
                   f"{check['flag']} {check['residual']!r}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        for box in BOXES:
            for min_angle in MIN_ANGLES:
                for seed in SEEDS:
                    for line in scenario_lines(box, min_angle, seed, path):
                        print(line)


if __name__ == "__main__":
    main()
