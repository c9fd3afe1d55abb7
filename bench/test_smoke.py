"""Smoke test of the benchmark harness: schema and plumbing, never timings.

    python3 -m pytest bench/test_smoke.py -q

Kept out of the tier-1 suite (pyproject's testpaths is tests/): it runs
every workload once untraced and once traced for a second each, which
takes well under a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_benchmark_json_within_contract_limits():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    workers = 4 + 22 * len(doc["workloads"])
    assert workers * (doc["run_seconds"] + 12) < 3420  # 12 s: warm-up and set-up


@pytest.fixture(scope="module")
def every_workload():
    """{(workload, trace): result line} from one 1-second run of each."""
    results = {}
    for w in spec.WORKLOADS:
        for trace in ("0", "1"):
            proc = _run("--workload", w.name, "--seed", "7", "--seconds", "1",
                        "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            results[w.name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_all_workloads_emit_every_metric(every_workload):
    for w in spec.WORKLOADS:
        for trace, wanted in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
            result = every_workload[w.name, trace]
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == {m.name for m in wanted}
            for m in wanted:
                got = result["metrics"][m.name]
                assert got["unit"] == m.unit
                assert math.isfinite(got["value"]) and got["value"] >= 0
                if trace == "0":
                    assert got["value"] > 0, (w.name, m.name)


def test_trace_attributes_calls_through_every_binding(every_workload):
    def metric(workload, name):
        return every_workload[workload, "1"]["metrics"][name]["value"]

    # monge_line asks for 3 pairs x 4 sign patterns
    assert metric("cycles_power", "power.homothetic_centers.calls") == 12
    # sigma is bound in cevians, not called through geom_core
    assert 20 < metric("construct_render", "cevians.foot_evals") < 80
    assert metric("cycles_power", "cevians.build_config.ms") == 0
    assert metric("construct_render", "svg_render.render_svg.ms") > 0
    assert metric("contact_chain", "theorems.tangent_shoot_evals") > 0
    # scipy.optimize was loaded by set-up, so the tracer wrapped minimize
    assert metric("contact_chain", "theorems.minimize.calls") > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
