"""Smoke tests of the benchmark harness on tiny inputs (a few seconds each).

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

TINY_SOLVE = ["solve", "--e", "0.3", "--Z", "1", "--grid-n", "8", "--modes-radial", "1", "--nmax", "1"]
TINY_SCAN = ["scan", "--axis", "e", "--from", "0.1", "--to", "0.3", "--steps", "2",
             "--Z", "1", "--grid-n", "8", "--modes-radial", "2", "--nmax", "1"]


@pytest.fixture(autouse=True)
def _state(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)


def _traced(argv):
    out = run.invoke([sys.executable, str(run.ROOT / "perfbench" / "tracer.py"), *argv], 120.0)
    assert out.status == 0, out.stderr
    return json.loads(out.stdout)


def test_invoke_reports_exit_status_and_rusage():
    out = run.invoke(run.cli_argv(TINY_SOLVE), 120.0)
    assert out.status == 0, out.stderr
    assert json.loads(out.stdout)["report"]["energy"] < 0.0
    assert out.wall_s > 0.0 and out.cpu_s > 0.0 and out.rss_mb > 10.0
    assert run.invoke(run.cli_argv(["solve", "--grid-n", "0"]), 120.0).status == 2


def test_traced_scan_fires_every_suite_span_and_matches_untraced_output():
    payload = _traced(TINY_SCAN)
    plain = run.invoke(run.cli_argv(TINY_SCAN), 120.0)
    assert payload["status"] == 0
    assert payload["stdout"] == plain.stdout
    workloads._check_scan(plain.stdout, TINY_SCAN, run.ROOT)
    stats = payload["stats"]
    assert tracer.silent_spans(stats, workloads.WORKLOADS["scan-coarse"].spans) == []
    metrics = tracer.layer_metrics(stats)
    assert metrics["verify.run_suite.calls"][0] == 2
    assert metrics["spectral.matvec.ffts_per_call"][0] > 0
    assert metrics["spectral.lanczos.op_s"][0] > 0.0 and metrics["spectral.lanczos.self_s"][0] > 0.0
    assert metrics["spectral.lanczos.iters"][0] > metrics["spectral.lanczos.calls"][0] > 0


def test_silent_span_is_reported():
    stats = _traced(TINY_SOLVE)["stats"]
    assert tracer.silent_spans(stats, ("cli.main", "spectral.lanczos")) == []
    assert tracer.silent_spans(stats, ("verify.run_suite",)) == ["verify.run_suite"]


def test_record_detects_a_changed_value():
    rec = run.Record("src", ["solve"])
    assert rec.same("stdout_sha256", "a")
    again = run.Record("src", ["solve"])
    assert again.same("stdout_sha256", "a")
    assert not again.same("stdout_sha256", "b")
    assert run.Record("other-src", ["solve"]).same("stdout_sha256", "b")
    again.add("wall_s", 1.5)
    assert run.Record("src", ["solve"]).data["wall_s"] == [1.5]


def _tiny(spans):
    return workloads.Workload("tiny", lambda seed: TINY_SOLVE, lambda out, argv, root: None, spans, True)


def test_measure_then_trace_print_the_declared_metrics(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = run.Run(_tiny(("cli.main", "spectral.lanczos", "particle.atomic_ground")), 1, "src")
    e2e = run.measure(tiny, 0.0, random.Random(1))
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    layers = run.trace(tiny, 1)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    assert tiny.attempted == 2 and tiny.failures == []
    assert layers["spectral.lanczos.calls"][0] == 2  # the atomic and the coupled solve


def test_trace_refuses_a_silent_span():
    with pytest.raises(run.BenchmarkError, match="verify.run_suite"):
        run.trace(run.Run(_tiny(("cli.main", "verify.run_suite")), 1, "src"), 1)


def test_oracles_reject_wrong_outputs():
    bad_solve = json.dumps({"report": {"energy": workloads.SOLVE_FINE_ENERGY * (1 + 1e-6)}})
    with pytest.raises(workloads.OracleError):
        workloads._check_solve(bad_solve, [], run.ROOT)
    workloads._check_solve(json.dumps({"report": {"energy": workloads.SOLVE_FINE_ENERGY}}), [], run.ROOT)

    rows = [{"name": "inertia.numeric", "value": 1.0}, {"name": "inertia.mode_sum", "value": 1.01}]
    with pytest.raises(workloads.OracleError):
        workloads._check_effmass(json.dumps({"rows": rows}), [], run.ROOT)

    goldens = json.loads((run.ROOT / workloads.GOLDENS).read_text())
    reports = [{"id": k, "slack": v} for k, v in goldens.items()]
    workloads._check_verify(json.dumps({"passed": True, "reports": reports}), [], run.ROOT)
    with pytest.raises(workloads.OracleError):
        workloads._check_verify(json.dumps({"passed": False, "reports": reports}), [], run.ROOT)
    reports[-1]["slack"] *= 1 + 1e-6  # photons.total, far above the absolute floor
    with pytest.raises(workloads.OracleError):
        workloads._check_verify(json.dumps({"passed": True, "reports": reports}), [], run.ROOT)


def test_failed_scan_row_fails_the_oracle():
    out = run.invoke(run.cli_argv(TINY_SCAN), 120.0).stdout
    lines = out.splitlines()
    lines[-1] = lines[-1][: -len("1")] + "0"
    with pytest.raises(workloads.OracleError):
        workloads._check_scan("\n".join(lines) + "\n", TINY_SCAN, run.ROOT)


def test_scan_start_is_seeded_within_range():
    first = workloads.WORKLOADS["scan-coarse"].argv(7)
    assert first == workloads.WORKLOADS["scan-coarse"].argv(7)
    start = float(first[first.index("--from") + 1])
    assert workloads.SCAN_START[0] <= start <= workloads.SCAN_START[1]
    assert first != workloads.WORKLOADS["scan-coarse"].argv(8)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
