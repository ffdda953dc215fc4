"""The traced replay and the benchmark's contract with BENCHMARK.json."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from run import ROOT, WORKLOADS


def _targets():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_replay_gives_the_cli_bytes_and_removes_every_wrapper(name, tmp_path, monkeypatch):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    monkeypatch.chdir(tmp_path)
    workload = workloads.build(name, 5, ROOT)
    workload.write(tmp_path)
    untraced = [run.spawn(op, env) for op in workload.ops]
    before = _targets()

    tracer, peaks = tracing.Tracer(), tracing.AllocPeaks()
    with tracing.installed(tracer):
        traced = [run.replay(op) for op in workload.ops]
    with tracing.installed(peaks):
        measured = [run.replay(op) for op in workload.ops]

    expected = [(r.code, r.out) for r in untraced]
    assert [(r.code, r.out) for r in traced] == expected
    assert [(r.code, r.out) for r in measured] == expected
    after = _targets()
    assert all(after[key] is original for key, original in before.items())
    assert {span[3] for span in tracer.spans} >= {"cli.run", "fileformat.parse_document"}
    assert all(span[2] is None for span in tracer.spans if span[3] == "cli.run")


def test_a_failing_wrapped_call_still_restores_the_originals():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError
    assert all(_targets()[key] is original for key, original in before.items())


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s",
        "latency_p50_s",
        "latency_tail_s",
        "peak_rss_mb",
        "setup_s",
    }


def test_reference_process_checks_its_output_and_scales_by_the_nearest_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calibration = run.Calibration(dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    for done in (0, 0, 4, 9, 12):
        calibration.take(done)
    # operation 0 lies between the second and third reference runs
    assert calibration.scale(0) == pytest.approx(run.CALIBRATION_REF_S / statistics.fmean(calibration.times[:4]))
    assert calibration.scale(9) == pytest.approx(run.CALIBRATION_REF_S / statistics.fmean(calibration.times[2:]))
    assert calibration.scale(12) == pytest.approx(run.CALIBRATION_REF_S / statistics.fmean(calibration.times[3:]))
    monkeypatch.setattr(run, "CALIBRATION_OUT", "something else\n")
    with pytest.raises(RuntimeError, match="reference process"):
        calibration.take(12)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "fcwbench", tmp_path / "fcwbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "fcwbench/run.py", "--workload", "morse-batch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
