"""One fresh benchmark process: a pass, a set-up sample, or micro-timings.

Usage: ``python3 worker.py pass|setup|micro SPEC.json RESULT.json``

The spec names the ``src`` directory to import ``periodic_kl`` from.  A pass
runs its invocations back to back through ``periodic_kl.cli.main`` with
stdout captured, writes each invocation's stdout to ``<outdir>/<i>.out``
outside the timed region, and reports wall time, CPU time and peak RSS of
this process.  Nothing survives between passes: each is its own process.
Every worker pins itself to the one CPU the spec names, so that all passes
of a run execute on the same core.

A shared host changes speed by up to 2x, in bursts and in spells of tens of
seconds.  Each worker therefore times a fixed calibration kernel (pure
Python, no periodic_kl code) around its measured work (see HostClock) and
reports every time both raw and scaled to a fixed reference host speed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import timeit
import traceback
from pathlib import Path


def _import_package(src: str):
    sys.path.insert(0, src)
    pkg = importlib.import_module("periodic_kl")
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"periodic_kl imported from {pkg.__file__}, not from {src}")
    return pkg


# Calibration kernel: iterations per run, and seconds per run at the
# reference host speed (fast state of a 2.1 GHz Xeon vCPU).
CAL_ITERATIONS = 6000
CAL_REFERENCE_S = 0.001
# Seconds between calibration samples taken during measured work, and runs
# per calibration burst before and after it.
CAL_PERIOD_S = 0.05
CAL_BURST = 9


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


# The kernel only reads these, so it allocates no container and never
# triggers a garbage collection of the library's heap.
_KEYS = [(i * 7919 % 409, i % 13) for i in range(CAL_ITERATIONS)]
_TABLE = {key: _Cell(key, 0) for key in _KEYS}


def _kernel() -> int:
    """Dict lookups on tuple keys, slot attributes and integer arithmetic, like the library's hot paths."""
    keys = _KEYS
    table = _TABLE
    acc = 0
    for i in range(CAL_ITERATIONS):
        cell = table[keys[i]]
        cell.value = (cell.value + i * i) % 7919
        acc += cell.value & 15
    return acc


class HostClock:
    """Samples host speed throughout measured work and scales intervals by it.

    A burst of calibration kernel runs precedes and follows the work; while
    it runs, a SIGALRM timer runs the kernel once every CAL_PERIOD_S in the
    main thread, so the process stays single-threaded.  An interval's raw
    time excludes the kernel runs inside it, and its scaled time is the raw
    time times CAL_REFERENCE_S over the mean kernel time of the samples in
    (or, for short intervals, next to) the interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per kernel run
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _burst(self) -> None:
        for _ in range(CAL_BURST):
            self._sample()

    def _tick(self, signum, frame) -> None:
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()

    def measure(self, record: dict, start: float, end: float, cpu: float) -> None:
        """Store raw and scaled ``latency_s`` and ``cpu_s`` of [start, end] in ``record``."""
        inside = [d for t, d in self.samples if start <= t < end]
        near = inside or [d for t, d in self.samples if start - 2 * CAL_PERIOD_S <= t < end + 2 * CAL_PERIOD_S]
        paused = sum(inside)
        scale = CAL_REFERENCE_S / statistics.fmean(near or [d for _, d in self.samples])
        record["latency_s"] = end - start - paused
        record["cpu_s"] = cpu - paused
        record["scaled_latency_s"] = record["latency_s"] * scale
        record["scaled_cpu_s"] = record["cpu_s"] * scale


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_pass(spec: dict) -> dict:
    clock = HostClock()
    timed = []
    t_start = time.perf_counter()
    c_start = time.process_time()
    _import_package(spec["src"])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli = importlib.import_module("periodic_kl.cli")
    timed.append((time.perf_counter(), {}, t_start, time.process_time() - c_start))
    outdir = Path(spec["outdir"])
    records = []
    out_bytes = 0
    for i, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.invocation = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            error = traceback.format_exc(limit=3)
        record = {"rc": rc}
        timed.append((time.perf_counter(), record, t0, time.process_time() - c0))
        data = out.getvalue().encode()
        out_bytes += len(data)
        (outdir / f"{i}.out").write_bytes(data)
        record["stderr"] = (error or err.getvalue())[-2000:]
        records.append(record)
    clock.stop()
    for end, record, start, cpu in timed:
        clock.measure(record, start, end, cpu)
    timed = [record for _, record, _, _ in timed]
    result = {
        "wall_s": sum(r["latency_s"] for r in timed),
        "cpu_s": sum(r["cpu_s"] for r in timed),
        "scaled_wall_s": sum(r["scaled_latency_s"] for r in timed),
        "scaled_cpu_s": sum(r["scaled_cpu_s"] for r in timed),
        "peak_rss_mib": _peak_rss_mib(),
        "output_bytes": out_bytes,
        "invocations": records,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.spans_dropped
        with open(spec["spans_path"], "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return result


def run_setup(spec: dict) -> dict:
    """Import plus the public constructors for every datum the workload touches."""
    clock = HostClock()
    t0 = time.perf_counter()
    c0 = time.process_time()
    pkg = _import_package(spec["src"])
    for t, rank, l in spec["data"]:
        rd = pkg.root_datum(t, rank, l)
        group = pkg.AffineWeyl(rd)
        pkg.SemiInfiniteOrder(group)
        pkg.HeckeAlgebra(group)
        pkg.PeriodicModule(group)
    end, cpu = time.perf_counter(), time.process_time() - c0
    clock.stop()
    record = {}
    clock.measure(record, t0, end, cpu)
    return {"setup_s": record["latency_s"], "scaled_setup_s": record["scaled_latency_s"]}


def _ns_per_call(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(repeat=5, number=number)) / number * 1e9


def run_micro(spec: dict) -> dict:
    """Per-call cost of fixed public element operations on fixed inputs.

    A case whose names no longer exist, or whose call fails, is reported absent.
    """
    pkg = _import_package(spec["src"])
    a2_group = functools.cache(lambda: pkg.AffineWeyl(pkg.root_datum("A", 2, 5)))

    def weight_add():
        a, b = pkg.Weight((1, 2)), pkg.Weight((3, -1))
        return lambda: a + b

    def multiply():
        g = a2_group()
        x, y = g.parse_element("t(1,2)*w[1 2]"), g.parse_element("t(-1,3)*w[2 1]")
        return lambda: g.multiply(x, y)

    def translate_left():
        g = a2_group()
        x, nu = g.parse_element("t(1,2)*w[1 2]"), pkg.Weight((2, -1))
        return lambda: g.translate_left(nu, x)

    def laurent_mul():
        p, q = pkg.LaurentPoly({1: 1, 3: 2, 5: 1}), pkg.LaurentPoly({0: 1, 2: -1, 4: 3})
        return lambda: p * q

    metrics, absent = {}, []
    for name, make in (
        ("rootdata.weight_add_ns", weight_add),
        ("weyl.multiply_ns", multiply),
        ("weyl.translate_left_ns", translate_left),
        ("laurent.mul_ns", laurent_mul),
    ):
        try:
            fn = make()
            fn()
        except (AttributeError, TypeError, ValueError):
            absent.append(name)
            metrics[name] = 0.0
            continue
        metrics[name] = _ns_per_call(fn)
    return {"metrics": metrics, "absent": absent}


MODES = {"pass": run_pass, "setup": run_setup, "micro": run_micro}


def main(argv: list[str]) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})
    result = MODES[mode](spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
