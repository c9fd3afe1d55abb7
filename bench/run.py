"""hypfeuer benchmark: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout (stdlib only; hypfeuer is imported from
./src, never from an installed copy):

    python3 bench/run.py --workload verify_all --seed 7 --seconds 20 --trace 0
    python3 bench/run.py                # every workload, untraced, then traced

One run of one workload starts a fresh worker interpreter that warms
up, measures the fixed amount of work that --seconds buys (the same
inputs on every run of one seed) and checks every output
(bench/worker.py).  Spread over that work, it times SETUP_SPAWNS fresh
interpreters from spawn to the end of the workload's set-up
(bench/probe.py), waiting for each, so only one process runs hypfeuer
at a time.  Throughput is scaled to a reference machine speed
(bench/reference.py); set-up time is wall time as measured.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics from a
separately traced run (bench/tracing.py).

Every metric is printed by name with its unit; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Full
results, the run environment and the trace spans are written under
bench/out/.  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the checkout has no hypfeuer sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spec  # noqa: E402

WORKLOADS = {w.name: w for w in spec.WORKLOADS}

# seconds a worker may take: a run does a fixed amount of work
# (spec.units), which a slow stretch of the machine can stretch to twice
# its usual 10-70 s; a whole run must end within three minutes
WORKER_TIMEOUT = 170


class RunFailed(Exception):
    """A worker crashed, timed out or printed no result."""


def environment() -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "scipy": scipy,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        # the workers always run the default serial path
        "hypfeuer_threads_set": "HYPFEUER_THREADS" in os.environ,
        "output": "CLI stdout captured in memory; results under bench/out",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPFEUER_THREADS", None)
    return env


def _worker(name: str, seed: int, seconds: int, trace: int) -> dict:
    args = [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT, name,
            str(seed), str(seconds), str(trace)]
    # its own process group, so that a timeout also ends the set-up probe
    # the worker may be waiting for
    proc = subprocess.Popen(args, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{name} worker timed out") from exc
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{name} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload: its metrics, counts and full record."""
    env = environment()
    got = _worker(name, seed, seconds, trace)
    correct = got["correct"]
    if trace:
        metrics = {m.name: (got["layers"][m.name], m.unit) for m in spec.PER_LAYER}
    else:
        values = {
            "instances_per_s": got["instances_per_s"],
            "setup_s": statistics.median(got["setup_samples"]),
            "peak_rss_mb": got["peak_rss_mb"],
            "pass_share": got["passed"] / got["attempted"],
        }
        metrics = {m.name: (values[m.name], m.unit) for m in spec.END_TO_END}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "correct": correct, "worker": got,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    return record


def _print_metrics(name: str, record: dict):
    for metric, m in record["metrics"].items():
        print(f"{name:<17} {metric:<36} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: int) -> dict:
    """Every workload, untraced spec.ALL_REPEATS times in rotating order,
    then traced once; medians over the untraced repeats."""
    names = [w.name for w in spec.WORKLOADS]
    untraced: dict[str, list[dict]] = {n: [] for n in names}
    for r in range(spec.ALL_REPEATS):
        for name in names[r % len(names):] + names[:r % len(names)]:
            untraced[name].append(run_one(name, seed, seconds, 0))
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        traced = run_one(name, seed, seconds, 1)
        for record in untraced[name] + [traced]:
            correct = correct and record["correct"]
            attempted += record["worker"]["attempted"]
            failed += record["worker"]["failed"]
        merged = {k: {"value": statistics.median(r["metrics"][k]["value"]
                                                  for r in untraced[name]),
                      "unit": v["unit"]}
                  for k, v in untraced[name][0]["metrics"].items()}
        merged.update(traced["metrics"])
        _print_metrics(name, {"metrics": merged})
        metrics.update({f"{name}.{k}": v for k, v in merged.items()})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds from 1 to 60")
    if not os.path.isfile(os.path.join(ROOT, "src", "hypfeuer", "cli.py")):
        print(f"bench: no hypfeuer sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            record = run_one(args.workload, args.seed, args.seconds, args.trace)
            _print_metrics(args.workload, record)
            result = {"correct": record["correct"],
                      "attempted": record["worker"]["attempted"],
                      "failed": record["worker"]["failed"],
                      "metrics": record["metrics"]}
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
