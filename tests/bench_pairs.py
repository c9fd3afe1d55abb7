"""Run the benchmark on two checkouts in alternating pairs and compare them.

Run as

    python3 tests/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workloads cycles_power,verify_all --pairs 12 --seed 39100

where each directory is a checkout of the repository (a ``git archive``
of a commit, say).  For each workload it first makes one untimed
warm-up run per side (``--seconds 1``), which compiles the checkout's
bytecode: a cold checkout reads ``peak_rss_mb`` high.  Then pair i runs
``bench/run.py --workload W --seed S+i --seconds 20 --trace 0`` on both
sides, the parent first in even pairs and the change first in odd ones.
A pair is refused, and left out of the summary, unless both runs are
``correct`` and attempted as many operations.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, the change's wins out of the pairs
(the better value by the metric's direction; a tie counts for neither
side), the median of the pairs' change / parent ratios, and whether the
median ratio moves by more than the metric's bound (``worse`` or
``better``), else ``unresolved`` when the parent's own quartile spread
is wider than the bound and not every change run beats every parent
run, else ``within``; ``claimable`` follows when the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's quartile distance.

``--out`` gets the record of the run as JSON: ``machine`` (the Python
version, the platform, the CPU count and the CPU model), ``summary``
(workload -> metric -> the row above, as ``compare`` returns it) and
``runs`` (every pair, refused ones too, with both sides' raw runs).  A
claimed gain commits this record as ``BENCH_<pr>.json`` at the
repository root.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# bench/run.py's --seconds for every timed run
SECONDS = 20


def bench_run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one untraced bench/run.py run in checkout:
    {"correct", "attempted", "failed", "metrics"}."""
    done = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def refusal(parent: dict, change: dict) -> str | None:
    """Why a pair of runs is left out, or None to keep it."""
    if not (parent["correct"] and change["correct"]):
        return "not correct"
    if parent["attempted"] != change["attempted"]:
        return f"attempted {parent['attempted']} != {change['attempted']}"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs (parent[i] with change[i]).

    The verdict is ``worse`` or ``better`` when the median pair ratio
    moves past the bound.  Otherwise it is ``unresolved`` when the
    parent's own spread, its quartile distance over its median, is
    wider than the bound, unless every change run beats every parent
    run, and ``within`` if not.  ``claimable`` holds when the change
    wins at least nine tenths of the pairs and its median beats the
    parent's by more than the parent's quartile distance.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    q_parent, q_change = quartiles(parent), quartiles(change)
    p1, p2, p3 = q_parent
    if abs(ratio - 1.0) > bound:
        verdict = "better" if sign * (ratio - 1.0) > 0.0 else "worse"
    elif (p3 - p1) > bound * abs(p2) and not all(
            sign * (c - p) > 0.0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within"
    claimable = wins >= 0.9 * len(parent) and sign * (q_change[1] - p2) > p3 - p1
    return {"parent": q_parent, "change": q_change, "wins": wins,
            "pairs": len(parent), "ratio": ratio, "verdict": verdict,
            "claimable": claimable}


def cpu_model(cpuinfo: str = "/proc/cpuinfo") -> str | None:
    """The first "model name" of cpuinfo, None when it names none or
    cannot be read."""
    try:
        with open(cpuinfo, encoding="utf-8") as fh:
            for line in fh:
                key, colon, value = line.partition(":")
                if colon and key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    """What the runs ran on."""
    return {"python": platform.python_version(), "platform": platform.platform(),
            "cpu_count": os.cpu_count(), "cpu_model": cpu_model()}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """workload -> metric -> its compare() row over the workload's kept
    pairs, for each end-to-end metric (name, better, bound); a workload
    with no kept pair is left out."""
    kept: dict[str, list[dict]] = {}
    for pair in runs:
        if not pair["refused"]:
            kept.setdefault(pair["workload"], []).append(pair)
    summary = {}
    for workload, pairs in kept.items():
        summary[workload] = {}
        for m in end_to_end:
            values = {side: [p[side]["metrics"][m["name"]]["value"] for p in pairs]
                      for side in ("parent", "change")}
            summary[workload][m["name"]] = compare(values["parent"], values["change"],
                                                   m["better"], m["bound"])
    return summary


def summary_line(workload: str, metric: str, row: dict) -> str:
    p1, p2, p3 = row["parent"]
    c1, c2, c3 = row["change"]
    return (f"{workload:<17} {metric:<16} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]"
            f"  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  wins {row['wins']}/{row['pairs']}"
            f"  ratio {row['ratio']:.4f}  {row['verdict']}"
            + ("  claimable" if row["claimable"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="bench_pairs.json")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for workload in args.workloads.split(","):
        for path in sides.values():
            bench_run(path, workload, args.seed, 1)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = bench_run(sides[side], workload, args.seed + i, SECONDS)
            pair["refused"] = refusal(pair["parent"], pair["change"])
            runs.append(pair)
            if pair["refused"]:
                print(f"{workload} seed {pair['seed']}: refused ({pair['refused']})")
        for metric, row in summarize(runs, end_to_end).get(workload, {}).items():
            print(summary_line(workload, metric, row), flush=True)
    record = {"machine": machine(), "summary": summarize(runs, end_to_end), "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
