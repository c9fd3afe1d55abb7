"""Compare two outputs of ``tests/status_sweep.py``: statuses, then residuals.

Run from the repository root as ``python3 tests/status_diff.py PARENT
CHANGE``, each argument a file that ``status_sweep.py`` wrote.  A line
is keyed by its first five fields (box, min_angle, seed, index, check;
a scenario's exit line by its first four and ``exit``).  The script
prints:

* ``status`` lines: every key whose first seven fields differ, that is,
  an exit code, a status or a flag, as the two lines joined by ``->``;
* ``only`` lines: every key that one side has and the other lacks;
* one ``residuals`` line per check: how many of its residuals moved by
  any bit, out of how many lines it has on both sides, and its worst
  residual on each side (skips, whose residual is ``None``, left out).

It exits 1 when any status or only line was printed, 0 otherwise.
Stdlib only; pytest does not collect it, and
``tests/test_status_diff.py`` covers it on fixed lines.
"""

from __future__ import annotations

import math
import sys


def keyed(lines) -> dict[tuple[str, ...], list[str]]:
    """Each non-blank line's fields, keyed by the first five."""
    return {tuple(fields[:5]): fields for fields in (line.split() for line in lines) if fields}


def worst(residuals: list[str]) -> float | None:
    """The largest residual that is a number, NaN left out; None when
    there is none."""
    values = [v for v in (float(r) for r in residuals if r != "None") if not math.isnan(v)]
    return max(values) if values else None


def compare(parent_lines, change_lines) -> tuple[list[str], bool]:
    """The report lines, and whether any status or only line is among
    them."""
    parent, change = keyed(parent_lines), keyed(change_lines)
    out = []
    for key in parent.keys() - change.keys():
        out.append("only PARENT " + " ".join(parent[key]))
    for key in change.keys() - parent.keys():
        out.append("only CHANGE " + " ".join(change[key]))
    out.sort()
    moved: dict[str, list[int]] = {}
    sides: dict[str, tuple[list[str], list[str]]] = {}
    for key, old in parent.items():
        new = change.get(key)
        if new is None:
            continue
        if old[:7] != new[:7]:
            out.append(f"status {' '.join(old)} -> {' '.join(new)}")
        if key[3] == "-":
            continue  # a scenario's exit line has no residual
        check = key[4]
        counts = moved.setdefault(check, [0, 0])
        counts[0] += old[7:] != new[7:]
        counts[1] += 1
        before, after = sides.setdefault(check, ([], []))
        before.extend(old[7:])
        after.extend(new[7:])
    flagged = bool(out)
    for check in sorted(moved):
        n_moved, total = moved[check]
        before, after = sides[check]
        out.append(f"residuals {check} moved {n_moved} of {total} "
                   f"worst {worst(before)!r} -> {worst(after)!r}")
    return out, flagged


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: status_diff.py PARENT CHANGE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        parent_lines = fh.readlines()
    with open(argv[1], encoding="utf-8") as fh:
        change_lines = fh.readlines()
    out, flagged = compare(parent_lines, change_lines)
    for line in out:
        print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
