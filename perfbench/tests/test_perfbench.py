"""Tests of the benchmark itself: every workload at a tiny length, the
output contract of ``run.py``, the traced run, and that each output check
fires on a deliberately corrupted answer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, tracing, workloads  # noqa: E402
from repro.kdtree.brute import brute_ball_query  # noqa: E402
from repro.serve import QueryService  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Train needs about a dozen epochs per trainer before its accuracy check
# can pass (~4 s of op time here; 6 s leaves room for a slower machine);
# the other workloads only need a few ops.
TINY_SECONDS = {"hwsim": 0.5, "train": 6.0, "serve": 0.3, "drift": 0.3}


@pytest.fixture
def few_ops(monkeypatch):
    """Lets a run end after a few ops instead of each workload's ``min_ops``."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "min_ops", 2)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_at_tiny_length(name, few_ops):
    result = workloads.run_workload(name, 7, TINY_SECONDS[name], False)
    assert result["ops"] >= 1 and result["ops"] % workloads.WORKLOADS[name].round_size == 0
    # Every probe fails (hwsim's Mesorasi exactness probe); nothing else does.
    assert result["failed"] == result["failed_probes"] == result["ops"] - result["timed_ops"]
    for key in ("setup_s", "ops_per_s", "p50_ms", "tail_ms", "peak_rss_mb"):
        assert result[key] > 0, key
    # Reported times are CPU times scaled by the run's calibrated speed.
    assert result["p50_ms"] == pytest.approx(result["cpu_p50_ms"] * result["speed"])
    assert result["ops_per_s"] == pytest.approx(result["timed_ops"] / (result["busy_s"] * result["speed"]))


def test_traced_run_reports_every_per_layer_metric(few_ops):
    original = QueryService.submit
    result = workloads.run_workload("serve", 3, 0.2, True)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert result["missing"] == []
    assert set(result["layers"]) == names
    assert result["layers"]["serve.coalesce_factor"]["value"] > 1.0
    assert QueryService.submit is original  # wrappers removed afterwards


def test_missing_entry_point_is_reported_not_fatal(monkeypatch, few_ops):
    targets = dict(tracing.TARGETS, dyn_query=("repro.kdtree.dynamic", "DynamicKdTree.no_such_method"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    result = workloads.run_workload("drift", 3, 0.2, True)
    assert result["missing"] == ["kdtree.dynamic.query_ms"]
    assert "kdtree.dynamic.refresh_ms" in result["layers"]


def _run_py(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_run_py_prints_the_result_line_last():
    proc = _run_py(ROOT, "--workload", "drift", "--seed", "4", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"drift: {m['name']} = " in proc.stdout
    assert "drift: ops_attempted = " in proc.stdout and "drift: ops_failed = 0" in proc.stdout


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_py(tmp_path, "--workload", "hwsim", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- the checks fire on corrupted answers ------------------------------
def _ball_case(seed=0, radius=0.3, k=8):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(300, 3))
    queries = points[rng.integers(0, 300, size=40)]
    indices, counts = brute_ball_query(points, queries, radius, k)
    expected = np.minimum(checks.hit_counts(points, queries, radius), k)
    return points, queries, radius, indices, counts, expected


def test_ball_check_passes_brute_force_and_fires_on_corrupted_rows():
    points, queries, radius, indices, counts, expected = _ball_case()
    assert checks.ball_rows_problems(points, queries, radius, indices, counts, expected, exact=True) == []
    row = int(np.argmax(counts))
    far = int(np.argmax(((points - queries[row]) ** 2).sum(axis=1)))

    outside = indices.copy()
    outside[row, 0] = far
    assert "outside the radius" in " ".join(
        checks.ball_rows_problems(points, queries, radius, outside, counts, expected, exact=False))

    twice = indices.copy()
    twice[row, 1] = twice[row, 0]
    assert "twice" in " ".join(
        checks.ball_rows_problems(points, queries, radius, twice, counts, expected, exact=True))

    short = counts.copy()
    short[row] -= 1
    assert checks.ball_rows_problems(points, queries, radius, indices, short, expected, exact=True)
    assert checks.ball_rows_problems(points, queries, radius, indices, short, expected, exact=False) == []

    over = counts.copy()
    over[np.argmin(counts)] += 1
    assert checks.ball_rows_problems(points, queries, radius, indices, over, expected, exact=False)


def test_hwsim_reference_check_fires_on_corrupted_cycles():
    hwsim = workloads.Hwsim(2)
    inputs = hwsim.prepare(0)
    outputs = hwsim.op(inputs)
    assert hwsim.check(0, inputs, outputs) == []
    for recorder in outputs[1][1:]:
        for call in recorder.calls:
            call[-1][2].report.lockstep_cycles += 1
    assert hwsim.reference_problems(0, inputs[0], outputs[1])


def test_hwsim_probe_holds_mesorasi_to_exact_search():
    hwsim = workloads.Hwsim(2)
    assert [i for i in range(10) if hwsim.probe(i)] == [4, 9]
    inputs = hwsim.prepare(4)
    for other in (hwsim.prepare(9), workloads.Hwsim(3).prepare(4)):  # the same fixed cloud
        assert other[1] == inputs[1] and np.array_equal(other[2], inputs[2])
    results, recorders = hwsim.op(inputs)
    assert len(results) == len(recorders) == 1
    assert "counts differ from brute force" in " ".join(hwsim.check(4, inputs, (results, recorders)))


def test_frame_check_fires_on_corrupted_frame():
    drift = workloads.Drift(5)
    inputs = drift.prepare(0)
    results = drift.op(inputs)
    assert drift.check(0, inputs, results) == []
    indices, counts = results[0]
    corrupted = [(indices.copy(), counts), results[1]]
    corrupted[0][0][0, 0] += 1
    assert drift.check(0, inputs, corrupted)


def test_gradient_check_fires_on_corrupted_gradient():
    train = workloads.Train(6)
    assert train.gradient_problems(0, 1) == []
    assert train.gradient_problems(0, 1, corrupt=1e-3)


def test_gradient_check_skips_kinks_only():
    x = np.array([0.3e-7, 1.0])

    def loss():
        return float(abs(x[0]) + x[1] ** 2)

    # x[0] sits within eps of the |.| kink: skipped, whatever its gradient.
    assert checks.gradient_problems(loss, [(x, (0,), 5.0), (x, (1,), 2.0)], wanted=1) == []
    assert checks.gradient_problems(loss, [(x, (0,), 5.0), (x, (1,), 2.01)], wanted=1)
    assert checks.gradient_problems(loss, [(x, (0,), 5.0)], wanted=1)
    assert x.tolist() == [0.3e-7, 1.0]
