"""Hash every output of a fixed sweep of hypfeuer commands.

Run from the repository root as ``PYTHONPATH=src python3
tests/output_sweep.py``.  Everything runs through ``hypfeuer.cli.main``
in process, 116 outputs in all:

* ``verify --suite all --trials 200 --seed S`` for S = 0-5, in the
  0.7, 0.25, 0.99 and 0.99999 vertex-radius boxes, with ``min_angle``
  0.15 and 0 (48 outputs, 9,600 instances);
* ``construct``, ``render`` and ``render --format json`` of the 20
  triangles that ``--seed 0..19`` draws (60 outputs);
* ``--help``, and 7 usage errors with ``COLUMNS=80`` (8 outputs).

Each output is hashed as its argv, exit code, standard output and
standard error, with the wall time cut from verify's stderr line (it
is the one value that differs between runs).  A verify scenario
appears in the hashed argv as its JSON text, not its temporary path.
The script prints one ``digest exit argv`` line per output, so two
runs can be compared with ``diff``, then the exit-code tally and the
SHA-256 over all outputs.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile

from hypfeuer.cli import format_complex, main
from hypfeuer.instances import PURPOSE_TRIANGLE, instance_rng, random_triangle

SEEDS = range(6)
BOXES = (0.7, 0.25, 0.99, 0.99999)
MIN_ANGLES = (0.15, 0.0)
TRIANGLE_SEEDS = range(20)

USAGE_ERRORS = (
    [],
    ["frobnicate"],
    ["verify", "--trials", "many"],
    ["verify", "--seed"],
    ["verify", "--bogus", "1"],
    ["render", "--format", "png"],
    ["construct", "verify"],
)

# verify's stderr line ends "<instances> instances, <failed> failed, <wall>s"
_WALL_TIME = re.compile(r"(failed, )[0-9.]+s$", re.MULTILINE)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), _WALL_TIME.sub(r"\1<wall>s", err.getvalue())


def commands():
    """(argv, scenario JSON or None) for every output of the sweep; a
    verify argv ends in --scenario, whose file the caller supplies."""
    for box in BOXES:
        for min_angle in MIN_ANGLES:
            scenario = json.dumps({"max_vertex_radius": box, "min_angle": min_angle})
            for seed in SEEDS:
                yield ["verify", "--suite", "all", "--trials", "200", "--seed", str(seed),
                       "--scenario"], scenario
    for seed in TRIANGLE_SEEDS:
        tri, _ = random_triangle(instance_rng(seed, 0, PURPOSE_TRIANGLE))
        flag = "--triangle=" + ",".join(format_complex(z) for z in (tri.a, tri.b, tri.c))
        for argv in (["construct", flag], ["render", flag], ["render", "--format", "json", flag]):
            yield argv, None
    yield ["--help"], None
    for argv in USAGE_ERRORS:
        yield argv, None


def sweep() -> str:
    os.environ["COLUMNS"] = "80"
    total = hashlib.sha256()
    tally = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = os.path.join(tmp, "scenario.json")
        for argv, scenario in commands():
            shown = argv
            if scenario is not None:
                with open(scenario_path, "w", encoding="utf-8") as fh:
                    fh.write(scenario)
                shown, argv = argv + [scenario], argv + [scenario_path]
            code, out, err = run(argv)
            one = hashlib.sha256(json.dumps([shown, code, out, err]).encode())
            total.update(one.digest())
            tally[argv[0] if argv else "", code] += 1
            print(one.hexdigest()[:16], code, " ".join(shown))
    for (command, code), count in sorted(tally.items()):
        print(f"exit {code}: {count} x {command or '(none)'}")
    return total.hexdigest()


if __name__ == "__main__":
    print(sweep())
