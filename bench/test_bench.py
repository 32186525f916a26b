"""Self-tests of the benchmark (not part of the package's test suite).

    python -m pytest bench/test_bench.py

The smoke test runs every workload at a tiny size through the same command
line the benchmark is run with; the other tests check that a detected log
with one event dropped is counted as a failed operation, both for the
in-process workloads and for the files the CLI writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# small enough for seconds, large enough for every fit to converge
SMOKE_SCALE = {"fig2_long": 0.01, "repump_scan": 0.1, "cli_files": 0.05}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", str(SMOKE_SCALE[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert 0.0 < result["metrics"]["bench.span_coverage"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_dropped_event_fails_library_check():
    from fewatom import load_config
    st = worker.Stages(worker.Tracer("t", enabled=False))
    model = load_config(preset="fig2").rate_model()
    chain = worker._chain(st, model, 3, 103, 1e4)
    reference, errors = {}, {}
    worker._record_chain("", *chain, reference, errors)
    assert errors == {}

    log, trace, cal, detected, report, fit = chain
    keep = [i for i in range(len(detected)) if i != len(detected) // 2]
    detected.times = detected.times[keep]
    detected.kinds = detected.kinds[keep]
    detected.n_before = detected.n_before[keep]
    outputs, errors = {}, {}
    worker._record_chain("", log, trace, cal, detected, report, fit, outputs, errors)
    it = run.Iteration(traced=False, outputs=outputs, errors=errors)
    assert run.failed_ops(it, reference) == {"detect.detect"}


def test_dropped_event_fails_cli_check(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 5000\n")
    subprocess.run([sys.executable, "-m", "fewatom.cli", "pipeline", "--preset",
                    "fig2", "--config", str(cfg), "--seed", "3", "--out-dir",
                    str(tmp_path)], env=env, check=True, capture_output=True,
                   timeout=120)
    ref = run.Iteration(traced=False)
    run._check_cli_step("pipeline", tmp_path, ref)
    assert ref.errors == {}

    path = tmp_path / "detected_events.csv"
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines)
            if not line.startswith("#") and line[0].isdigit()]
    del lines[data[len(data) // 2]]
    path.write_text("".join(lines))
    it = run.Iteration(traced=False)
    run._check_cli_step("pipeline", tmp_path, it)
    assert "pipeline:detected_events.csv" in it.errors
    assert run.failed_ops(it, ref.outputs) == {"pipeline"}
