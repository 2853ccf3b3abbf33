"""Tests of the benchmark itself: metric names agree with BENCHMARK.json,
work counts repeat exactly for a fixed seed, every verdict checks out,
and the benchmark refuses to run without the univoque sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.OP_UNIT)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    with tr.request("demo", 7):
        with tr.span("layer.a"):
            pass
        with tr.span("layer.b"):
            pass
    times = tr.self_times()
    assert times["layer.a"][1] == times["layer.b"][1] == 1
    name, start, end, parent, rid = tr.spans[0]
    assert parent is None and rid == 7 and tr.spans[1][3] == 0
    total = end - start
    assert times["request.demo"][0] == pytest.approx(
        total - (tr.spans[1][2] - tr.spans[1][1]) - (tr.spans[2][2] - tr.spans[2][1]))


def _traced_rep(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-s", os.path.join(HERE, "worker.py"), workload,
         str(seed), "1", "0"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(metrics.OP_UNIT))
def test_counts_repeat_and_verdicts_agree(workload):
    first, second = _traced_rep(workload, 5), _traced_rep(workload, 5)
    assert first["failed"] == second["failed"] == 0
    assert first["undecided"] == second["undecided"]
    counts = [name for name, unit, _ in metrics.PER_LAYER
              if unit != "s" and name in first["layers"]]
    assert {n: first["layers"][n] for n in counts} == \
        {n: second["layers"][n] for n in counts}
    assert first["spans"] == second["spans"]
    if workload == "queries":
        assert sum(first["undecided"].values()) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
