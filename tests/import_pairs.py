"""Time ``import hypfeuer.cli`` on two checkouts in alternating pairs.

Run as

    python3 tests/import_pairs.py PARENT_DIR CHANGE_DIR --runs 40

where each directory is a checkout of the repository.  Each import runs
in a fresh ``python3 -I`` interpreter that puts the checkout's ``src``
first on ``sys.path`` and times the import alone with
``time.perf_counter``.  One untimed import per side first compiles the
checkout's bytecode; then run i imports the parent first when i is
even and the change first when it is odd.  Each side's times, in
seconds, are compared through ``bench_pairs.compare`` as a lower-is-
better metric against the bound of ``setup_s`` in the change's
``BENCHMARK.json``, and printed by ``bench_pairs.summary_line``.  The
benchmark's ``setup_s`` spreads too widely to resolve a move of a
millisecond; this isolates the import's share of it.  Stdlib only;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_pairs import compare, summary_line

TIMED_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hypfeuer.cli
print(time.perf_counter() - start)
"""


def import_seconds(checkout: str) -> float:
    """Seconds one fresh interpreter takes to import hypfeuer.cli from
    checkout's src."""
    done = subprocess.run([sys.executable, "-I", "-c", TIMED_IMPORT,
                           os.path.join(os.path.abspath(checkout), "src")],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--runs", type=int, default=40)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bound = next(m["bound"] for m in json.load(fh)["end_to_end"]
                     if m["name"] == "setup_s")
    sides = {"parent": args.parent, "change": args.change}
    for path in sides.values():
        import_seconds(path)
    times = {side: [] for side in sides}
    for i in range(args.runs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            times[side].append(import_seconds(sides[side]))
    row = compare(times["parent"], times["change"], "lower", bound)
    print(summary_line("import", "hypfeuer.cli_s", row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
