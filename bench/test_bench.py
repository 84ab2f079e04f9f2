"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs every workload in both modes at smoke scale (300 objects, a two-second
window) and checks the contract between ``BENCHMARK.json`` and what a run
prints.  Smoke-scale numbers are not valid for comparison, and
``compare.py`` refuses them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import compare  # noqa: E402
from bench.worlds import road_inputs, uniform_inputs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Run a workload once per mode for the whole module (they take seconds)."""
    out = tmp_path_factory.mktemp("bench") / "runs.jsonl"
    cache = {}

    def _run(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "2", "--trace", str(trace),
                 "--scale", "smoke", "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
            cache[(workload, trace)] = {
                "result": json.loads(done.stdout.strip().splitlines()[-1]),
                "record": json.loads(out.read_text().splitlines()[-1]),
                "stdout": done.stdout,
            }
        return cache[(workload, trace)]

    return _run


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 x workloads runs of (set-up + window) must fit 3420 s
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 20) <= 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_exactly_the_end_to_end_metrics(workload, run):
    run = run(workload, 0)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run["record"]["scale"] == "smoke"
    assert len(run["record"]["notes"]["inputs_sha256"]) == 64
    assert run["record"]["notes"]["machine_slowdown_p50"] > 0
    assert {"nproc", "python", "numpy", "load1_at_start", "calibration_iters_per_s"} <= set(
        run["record"]["machine"])
    for name in declared:
        assert name in run["stdout"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_exactly_the_per_layer_metrics(workload, run):
    run = run(workload, 1)
    result = run["result"]
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert 0 < result["metrics"]["telemetry.overhead_ratio"]["value"] < 2
    notes = run["record"]["notes"]
    if workload != "serve_mixed":
        # children's self times account for the parent span
        assert notes["fr_span_coverage"] >= 0.9
        assert notes["wave_span_coverage"] >= 0.9
        assert any(row["span"] == "fr_query" for row in notes["span_table"])


def test_every_per_layer_metric_is_measured_by_some_workload(run):
    seen = set()
    for workload in WORKLOADS:
        metrics = run(workload, 1)["result"]["metrics"]
        seen |= {name for name, metric in metrics.items() if metric["value"] != 0}
    never = {m["name"] for m in SPEC["per_layer"]} - seen
    # Zero when nothing goes wrong; the buffer pool records no hit on these
    # query lists at this commit; and no list repeats a (qt, l) pair between
    # two ticks, so the rho-monotonic band cache has nothing to skip.
    assert never <= {"core.failed_op_share", "serving.retries", "serving.sheds",
                     "storage.buffer_hit_ratio", "sweep.bands_skipped_ratio"}


def test_inputs_are_a_function_of_the_seed():
    assert road_inputs(120, 5).digest == road_inputs(120, 5).digest
    assert road_inputs(120, 5).digest != road_inputs(120, 6).digest
    assert uniform_inputs(120, 5).digest == uniform_inputs(120, 5).digest
    assert uniform_inputs(120, 5).digest != road_inputs(120, 5).digest


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, base, "higher", 0.10)[0] == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.10)[0] == "regressed"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.10)[0] == "improved"
    # a gain needs ten pairs
    assert compare.verdict(base[:3], [v * 1.2 for v in base[:3]], "higher", 0.10)[0] == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy[::-1], "higher", 0.10)[0] == "unresolved"
    # ... unless every run of the change beats every run of the parent
    assert compare.verdict(noisy, [v * 3 for v in noisy], "higher", 0.10)[0] == "improved"


def test_compare_refuses_smoke_scale(tmp_path):
    path = tmp_path / "smoke.jsonl"
    path.write_text(json.dumps({"scale": "smoke", "trace": 0, "correct": True,
                                "workload": "query_sparse", "metrics": {}}) + "\n")
    with pytest.raises(SystemExit):
        compare.load(str(path), 0)
