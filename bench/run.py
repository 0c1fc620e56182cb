#!/usr/bin/env python3
"""End-to-end benchmark of the periodic-kl command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of tables_cold, tables_warm, selfcheck, orders_hecke, or ``all``.
Each pass runs the workload's invocations through ``periodic_kl.cli.main``
in one fresh single-threaded process (see ``worker.py``), one client with
invocations back to back.  Passes repeat until S seconds of passes have run.
Every stdout is checked (``checks.py``); a failure makes the run exit 1.

With ``--trace 0`` the run reports the end-to-end metrics (medians over the
run's passes).  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of ``tracing.py``, the outside
micro-timings, and the tracing overhead.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record
goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
# Every worker must finish within this many seconds of the run's start.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
MICRO_METRICS = ("rootdata.weight_add_ns", "weyl.multiply_ns", "weyl.translate_left_ns", "laurent.mul_ns")
PER_LAYER = dict(tracing.TRACED_METRICS)
PER_LAYER.update({name: "ns" for name in MICRO_METRICS})
PER_LAYER.update({"cli.output_bytes": "bytes", "trace.overhead_s": "s"})


class WorkerError(RuntimeError):
    pass


class Runner:
    """Runs the passes of one workload and counts attempted and failed invocations."""

    def __init__(self, workload: workloads.Workload, workdir: Path, deadline: float, tiny: bool = False):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.require_digest = workload.seed == workloads.DEFAULT_SEED and not tiny
        self._n = 0
        # Cores of one box can differ in speed (a shared host); timing every
        # worker on the same core keeps one run's passes comparable.
        self.cpu = min(os.sched_getaffinity(0))
        # No inherited cache directory; bytecode is cached as for an installed
        # package; a fixed hash seed keeps set and dict layouts the same per run.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PERIODIC_KL_CACHE", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONHASHSEED"] = "0"

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(message)

    def spawn(self, mode: str, spec: dict) -> dict:
        """Run one worker process to completion and return its result."""
        self._n += 1
        spec_path = self.workdir / f"spec{self._n}.json"
        result_path = self.workdir / f"result{self._n}.json"
        spec = dict(spec, src=str(SRC), cpu=self.cpu)
        spec_path.write_text(json.dumps(spec))
        timeout = max(5.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), mode, str(spec_path), str(result_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from None
        if proc.returncode != 0 or not result_path.exists():
            raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-1500:]}")
        return json.loads(result_path.read_text())

    def setup_sample(self) -> dict | None:
        self.attempted += 1
        try:
            return self.spawn("setup", {"data": self.workload.data})
        except WorkerError as exc:
            self._fail(f"setup: {exc}")
            return None

    def spawn_pass(self, cache_root: Path | None = None, trace: bool = False) -> tuple[dict, Path]:
        """Run one pass in a fresh worker; returns its record and its output directory."""
        outdir = self.workdir / f"out{self._n + 1}"
        outdir.mkdir()
        argvs = [
            list(inv.argv) + (["--cache-dir", str(cache_root / str(i))] if inv.cached and cache_root else [])
            for i, inv in enumerate(self.workload.invocations)
        ]
        spec = {"argvs": argvs, "outdir": str(outdir), "trace": trace,
                "spans_path": str(RESULTS / f"{self.workload.name}-seed{self.workload.seed}-spans.json")}
        return self.spawn("pass", spec), outdir

    def run_pass(self, cache_root: Path | None = None, trace: bool = False,
                 reference: list[str] | None = None) -> dict | None:
        """One checked pass; returns the worker's record plus the stdout digests, or None."""
        try:
            result, outdir = self.spawn_pass(cache_root, trace)
        except WorkerError as exc:
            self.attempted += len(self.workload.invocations)
            for inv in self.workload.invocations:
                self._fail(f"{' '.join(inv.argv)}: {exc}")
            return None
        self.evaluate(result, outdir, reference)
        shutil.rmtree(outdir)
        return result

    def evaluate(self, result: dict, outdir: Path, reference: list[str] | None = None) -> None:
        """Check every invocation of a pass and store the stdout digests in ``result``."""
        shas = []
        for i, (inv, rec) in enumerate(zip(self.workload.invocations, result["invocations"])):
            self.attempted += 1
            data = (outdir / f"{i}.out").read_bytes()
            key = " ".join(inv.argv)
            errors = checks.check_invocation(
                key, inv.check, rec["rc"], data, self.digests, self.require_digest,
                reference[i] if reference else None,
            )
            if errors:
                detail = rec["stderr"].strip().splitlines()[-1:] if rec["rc"] != 0 else []
                self._fail(f"{key}: {'; '.join(errors + detail)}")
            shas.append(checks.sha256(data))
        result["shas"] = shas


# -- statistics -------------------------------------------------------------------


def _spread(values: list[float]) -> dict:
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of sorted values."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "periodic_kl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- one workload ------------------------------------------------------------------


def _measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    """Run the passes of one workload; returns (metrics, details, absent names)."""
    name = runner.workload.name
    cache_base = runner.workdir / "cache"
    reference = None
    warm_cache = None
    if name == "tables_warm":
        # Preparation, not timed: one cold pass fills the caches and records the cold bytes.
        warm_cache = cache_base / "warm"
        prep = runner.run_pass(cache_root=warm_cache)
        reference = prep["shas"] if prep else None

    def one_pass(traced: bool) -> dict | None:
        if name == "tables_cold":
            cache = cache_base / f"cold{runner._n + 1}"
            result = runner.run_pass(cache_root=cache, trace=traced)
            shutil.rmtree(cache, ignore_errors=True)
            return result
        return runner.run_pass(cache_root=warm_cache, trace=traced, reference=reference)

    details: dict = {}
    absent: list[str] = []
    if not trace:
        setups = [s for s in (runner.setup_sample() for _ in range(SETUP_SAMPLES)) if s is not None]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            result = one_pass(False)
            if result is None:
                break
            passes.append(result)
        # Times are scaled to the reference host speed (see worker.py).  A query
        # percentile is taken over the workload's queries, each at its median
        # latency over the run's passes; its q1/q3 are those of the per-pass
        # percentiles.
        per_pass = [
            [1000.0 * rec["scaled_latency_s"]
             for inv, rec in zip(runner.workload.invocations, p["invocations"]) if inv.query]
            for p in passes
        ]
        per_query = sorted(statistics.median(lat) for lat in zip(*per_pass))
        stats = {
            "wall_s": _spread([p["scaled_wall_s"] for p in passes]),
            "cpu_s": _spread([p["scaled_cpu_s"] for p in passes]),
            "setup_s": _spread([s["scaled_setup_s"] for s in setups]),
            "peak_rss_mib": _spread([p["peak_rss_mib"] for p in passes]),
        }
        for metric, q in (("query_p50_ms", 0.5), ("query_p90_ms", 0.9)):
            stats[metric] = dict(_spread([_percentile(sorted(lat), q) for lat in per_pass]),
                                 value=_percentile(per_query, q))
        metrics = {m: stats[m]["value"] for m in END_TO_END}
        details = {
            "spread": stats,
            "raw_passes": [{k: p[k] for k in ("wall_s", "scaled_wall_s", "cpu_s", "peak_rss_mib")}
                           for p in passes],
            "raw_setups": setups,
            "query_medians_ms": per_query,
        }
        return metrics, details, absent

    untraced, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain = one_pass(False)
        spanned = one_pass(True)
        if plain is None or spanned is None:
            break
        untraced.append(plain)
        traced.append(spanned)
    metrics = {m: 0.0 for m in PER_LAYER}
    if traced:
        for m in tracing.TRACED_METRICS:
            metrics[m] = statistics.median(p["layers"][m] for p in traced)
        metrics["cli.output_bytes"] = traced[-1]["output_bytes"]
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in untraced))
        absent += traced[-1]["absent"]
        details["spans_kept"] = traced[-1]["spans_kept"]
        details["spans_dropped"] = traced[-1]["spans_dropped"]
    try:
        micro = runner.spawn("micro", {})
        metrics.update(micro["metrics"])
        absent += micro["absent"]
    except WorkerError as exc:
        runner.attempted += 1
        runner._fail(f"micro: {exc}")
    details["traced_wall_s"] = [p["wall_s"] for p in traced]
    details["untraced_wall_s"] = [p["wall_s"] for p in untraced]
    return metrics, details, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its result record (also written to bench/results/)."""
    workload = workloads.build(name, seed, tiny)
    started = time.monotonic()
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "tiny": tiny,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": min(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "invocations_per_pass": len(workload.invocations),
    }
    runner = Runner(workload, workdir, started + RUN_BUDGET_S, tiny)
    try:
        metrics, details, absent = _measure(runner, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    units = PER_LAYER if trace else END_TO_END
    record.update(
        loadavg_end=list(os.getloadavg()),
        elapsed_s=time.monotonic() - started,
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=runner.failed / runner.attempted if runner.attempted else 1.0,
        failures=runner.failures,
        absent=sorted(set(absent)),
        metrics={m: {"value": metrics[m], "unit": units[m]} for m in units},
        **details,
    )
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed_frac']:.4g}  python {record['python']}  "
          f"nproc {record['nproc']}  load {record['loadavg_start'][0]:.2f}->{record['loadavg_end'][0]:.2f}")
    spread = record.get("spread", {})
    for m, v in record["metrics"].items():
        extra = ""
        if m in spread:
            s = spread[m]
            extra = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        flag = "  [absent]" if m in record["absent"] else ""
        print(f"  {m:42s} {v['value']:>14.6g} {v['unit']}{extra}{flag}")
    for f in record["failures"]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "periodic_kl" / "__init__.py").is_file():
        print(f"error: no periodic_kl sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for record in records:
        _print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    correct = all(r["failed"] == 0 for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
