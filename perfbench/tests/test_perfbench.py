"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gesturegen import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _tiny(name, tmp_path):
    return workloads.build(workloads.tiny(workloads.WORKLOADS[name]), 7, tmp_path)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced phase per tiny workload: name -> (workload, metrics, checks)."""
    out = {}
    for name in NAMES:
        tmp = tmp_path_factory.mktemp(name)
        wl = _tiny(name, tmp)
        metrics, checks = run.measure_traced(wl, 0.0, run.Tally(), tmp / "trace.json")
        out[name] = (wl, metrics, checks)
    return out


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_tiny_end_to_end_run(name, tmp_path):
    wl = _tiny(name, tmp_path)
    tally = run.Tally()
    metrics, raw, call_s = run.measure(wl, 0.0, tally)
    assert set(metrics) == set(raw) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in metrics.values())
    assert len(call_s) == run.MIN_CALLS - 1
    assert run.run_checks(wl.checks, tally)
    assert tally.failed == 0 and tally.attempted > 0
    assert all(v > 0 for v, _ in wl.summary(call_s).values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run(name, traced):
    _, metrics, checks = traced[name]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(c.ok for c in checks), checks  # includes the layer self-time sum


def test_scan_calls_closed_form(traced):
    wl, metrics, _ = traced["train-60"]
    cfg = wl.cfg
    assert metrics["ssm.scan_calls"] == cfg["model.layers"] * cfg["train.batch"] * cfg["train.steps"]
    assert metrics["denoiser.adamw_calls"] == cfg["train.steps"]


def test_predict_x0_calls_closed_form(traced):
    wl, metrics, _ = traced["sample-60"]
    cfg = wl.cfg
    clips = cfg["sample.n"] * cfg["sample.max_conditions"]
    assert metrics["denoiser.predict_x0_calls"] == clips * cfg["diffusion.steps"]
    assert metrics["bvh.to_euler_calls"] == clips
    assert metrics["rotations.nearest_rotation_calls"] == \
        clips * cfg["synthetic.frames"] * cfg["synthetic.joints"]


def test_cold_eval_trains_the_extractor(traced):
    wl, metrics, _ = traced["eval-cold-60"]
    assert metrics["metrics.extractor_train_s"] > 0
    assert metrics["denoiser.adamw_calls"] == wl.cfg["eval.extractor_steps"]
    assert traced["eval-warm-60"][1]["denoiser.adamw_calls"] == 0


def test_euler_to_rotmat_calls_closed_form(traced):
    wl, metrics, _ = traced["eval-warm-60"]
    cfg = wl.cfg
    per_clip = cfg["synthetic.frames"] * cfg["synthetic.joints"]
    assert metrics["bvh.to_rotmat_calls"] > 0
    assert metrics["rotations.euler_to_rotmat_calls"] == per_clip * metrics["bvh.to_rotmat_calls"]
    assert metrics["ssm.scan_calls"] == metrics["fusion.forward_calls"] == 0


def test_self_time_arithmetic():
    #  harness.a [0, 10]
    #    bvh.b [1, 4]
    #      rotations.c [2, 3]
    #    bvh.d [5, 9]
    spans = [["harness.a", -1, 0.0, 10.0], ["bvh.b", 0, 1.0, 4.0],
             ["rotations.c", 1, 2.0, 3.0], ["bvh.d", 0, 5.0, 9.0]]
    stats = tracing.span_stats(spans)
    assert stats["harness.a"]["self"] == 3.0
    assert stats["bvh.b"]["self"] == 2.0 and stats["bvh.d"]["self"] == 4.0
    assert stats["bvh.b"]["incl"] + stats["bvh.d"]["incl"] == 7.0
    assert stats["rotations.c"]["self"] == 1.0
    layers = tracing.layer_self_times(stats)
    assert (layers["harness"], layers["bvh"], layers["rotations"]) == (3.0, 6.0, 1.0)
    assert sum(layers.values()) == 10.0


def test_install_rebinds_imported_names_and_uninstall_restores():
    original = harness.clip_to_euler
    tracer = tracing.Tracer()
    with tracer:
        assert harness.clip_to_euler is not original
        from gesturegen import bvh
        assert bvh.clip_to_euler is harness.clip_to_euler
    assert harness.clip_to_euler is original
    assert not tracer.spans


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", "_work", "tests"))
    proc = subprocess.run([sys.executable] + BENCHMARK["command"][1:] +
                          ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
