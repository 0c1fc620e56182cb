"""Smoke test of the benchmark at tiny (A1-only) sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _names("end_to_end") == run.END_TO_END
    assert _names("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(name):
    record = run.run_workload(name, seed=3, seconds=0.01, trace=False, tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= len(workloads.build(name, 3, tiny=True).invocations)
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    for key in ("python", "commit", "nproc", "seed", "loadavg_start", "loadavg_end"):
        assert key in record


def test_every_per_layer_metric_is_emitted_by_a_traced_run():
    record = run.run_workload("orders_hecke", seed=3, seconds=0.01, trace=True, tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == set(run.PER_LAYER)
    assert record["absent"] == []
    assert record["metrics"]["hecke.kl_basis.calls"]["value"] > 0
    assert record["metrics"]["orders.leq.calls"]["value"] > 0


def test_corrupted_output_counts_as_failed(tmp_path):
    workload = workloads.build("selfcheck", workloads.DEFAULT_SEED, tiny=True)
    runner = run.Runner(workload, tmp_path, time.monotonic() + 120, tiny=True)
    result, outdir = runner.spawn_pass()
    out = outdir / "0.out"
    out.write_bytes(out.read_bytes().replace(b"ok ", b"FAIL ", 1))
    runner.evaluate(result, outdir)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "selfcheck line" in runner.failures[0]


def test_warm_bytes_must_equal_cold_bytes(tmp_path):
    workload = workloads.build("tables_warm", workloads.DEFAULT_SEED, tiny=True)
    runner = run.Runner(workload, tmp_path, time.monotonic() + 120, tiny=True)
    result, outdir = runner.spawn_pass(cache_root=tmp_path / "cache")
    reference = [checks.sha256((outdir / f"{i}.out").read_bytes()) for i in range(len(workload.invocations))]
    reference[0] = "0" * 64
    runner.evaluate(result, outdir, reference)
    assert runner.failed == 1
    assert "differs from the cold run" in runner.failures[0]


def test_digest_mismatch_is_a_failure():
    key = "table p --type A --rank 1 --l 3 --height 2 --coset all"
    errors = checks.check_invocation(key, None, 0, b"{}", {key: "0" * 64}, require_digest=False)
    assert errors == ["stdout sha256 differs from the recorded digest"]
    assert checks.check_invocation("x", None, 0, b"", {}, require_digest=True)
    assert checks.check_invocation("x", None, 2, b"", {}, require_digest=False) == ["exit code 2"]


def test_structural_checks_reject_bad_polynomials():
    table = {"elements": ["a", "b"], "entries": [
        {"y": "a", "x": "a", "polynomial": {"0": 1}},
        {"y": "b", "x": "b", "polynomial": {"0": 2}},
        {"y": "a", "x": "b", "polynomial": {"0": 1, "1": 1}},
    ]}
    errors = checks.check_p_table(json.dumps(table))
    assert len(errors) == 2
    kl = {"x": "a", "terms": [{"element": "a", "polynomial": {"0": 1}},
                              {"element": "b", "polynomial": {"-1": 1}}]}
    assert len(checks.check_kl(json.dumps(kl))) == 1
    assert checks.check_selfcheck("ok  one\nFAIL  two\n") == ["selfcheck line 'FAIL  two'"]


def test_missing_public_name_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "periodic.removed_helper",
                        ("span", "periodic", ("PeriodicModule.no_such_method",)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["periodic.removed_helper"]
        assert set(tracer.metrics()) == set(tracing.TRACED_METRICS)
    finally:
        tracer.uninstall()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selfcheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
