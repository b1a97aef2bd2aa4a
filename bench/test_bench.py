"""Checks of the benchmark itself (about four minutes on two cores):

    python3 -m pytest -q bench/test_bench.py

Same-seed traced runs repeat every count exactly, a second seed gives a
different job list that passes the same oracles, the metric lists agree with
BENCHMARK.json, and a tree without the program fails without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ["bvp.newton_iters", "bvp.residual_calls", "bvp.factorizations",
          "fixedpoint.picard_iters", "continuation.steps_accepted",
          "continuation.steps_rejected", "mfde.entries_det_scan",
          "mfde.entries_eig_cert", "sim.rk4_steps", "cli.artifact_bytes"]


def bench(cwd: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    return request.param, [result(bench(ROOT, request.param, 11, 1)) for _ in range(2)]


def test_counts_repeat_for_same_seed(traced_pair):
    workload, (first, second) = traced_pair
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], (workload, name)
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]


def test_layer_times_add_up_to_job_time(traced_pair):
    _, runs = traced_pair
    for run in runs:
        m = run["metrics"]
        layers = sum(m[f"{layer}.self_s"]["value"] for layer in
                     ("model", "mfde", "bvp", "fixedpoint", "continuation", "sim", "tails", "cli"))
        assert layers == pytest.approx(m["trace.job_s"]["value"], rel=1e-3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_differs_and_passes(workload):
    first = [j.config for b in jobs.make_batches(workload, 11, 2) for j in b]
    second = [j.config for b in jobs.make_batches(workload, 12, 2) for j in b]
    assert first != second
    assert [j.config for b in jobs.make_batches(workload, 11, 2) for j in b] == first
    run = result(bench(ROOT, workload, 12, 0))
    assert run["correct"]
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_layer_map_covers_per_layer_metrics():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    for layer in layers.values():
        for workloads in layer["moves"].values():
            assert set(workloads) <= set(WORKLOADS)
        assert set(layer["still_on"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
