"""Benchmark worker: runs one workload and prints its result.

Started by ``run.py`` with the environment already pinned
(``REPRO_BACKEND=fast``, BLAS threads, ``PYTHONPATH=src``).  Prints the
configuration that ran, a human-readable metric table, and as its last
line the JSON result object.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import numpy as np

import tracing
from workloads import SIZES, WORKLOADS, Ledger, Pass

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def metric_specs(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for this mode, read from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


# ----------------------------------------------------------------------
# What actually ran
# ----------------------------------------------------------------------

def git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` file (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        return "unknown"


def blas_threads() -> str:
    """Thread count of the OpenBLAS NumPy loaded, read back from the
    library itself (the launcher only requests a count)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        # Plain OpenBLAS, and the renamed build NumPy wheels bundle.
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return ("unknown (no OpenBLAS found; requested "
            f"{os.environ.get('OPENBLAS_NUM_THREADS')})")


def resolved_backend() -> str:
    """The execution path ``ganns_search`` resolves with no argument."""
    try:
        from repro.perf.backend import resolve_backend
    except ImportError:
        return "single path (no backend switch)"
    return resolve_backend(None)


def run_config(workload, args) -> Dict[str, object]:
    return {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "backend": resolved_backend(),
        "compute_dtype": ",".join(sorted(workload.dtypes)) or "n/a",
        "blas_threads": blas_threads(),
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "blas": blas_info()},
        "sizes": workload.sizes,
    }


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

#: Seconds one calibration loop takes on the reference host (2-core
#: x86-64 Xeon VM, NumPy 2.4, one BLAS thread).  End-to-end times are
#: reported as they would read on that host.
REFERENCE_CALIBRATION_S = 0.2


class HostClock:
    """Tracks how fast the host runs right now.

    On a shared host the same work takes up to ~1.5x longer for tens of
    seconds at a time, and the program's own CPU time slows with it, so
    neither medians nor CPU time remove the drift.  A fixed NumPy loop
    shaped like the search kernel's inner step (row gather, batched dot
    products, lexsort along rows), independent of the package, runs
    before and after every measured step; the step's host seconds are
    multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of the two
    loop times.  The loop has a narrow part (64-row steps that stay in
    cache, like a serving micro-batch) and a wide part (1,024-row steps
    that stream from memory, like an offline batch): the two slow down
    differently when other tenants load the host, and their sum tracks
    every workload's steps about as well as the better part alone.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._narrow = (rng.normal(size=(4000, 64)),
                        rng.normal(size=(64, 64)),
                        rng.integers(0, 4000, size=(300, 64, 24)))
        self._wide = (rng.normal(size=(4096, 128)),
                      rng.normal(size=(1024, 128)),
                      rng.integers(0, 4096, size=(8, 1024, 32)))
        self.scales: List[float] = []
        self._loop()  # warm-up: the first loop pays for page faults
        self._before = self._loop()

    def _loop(self) -> float:
        start = time.perf_counter()
        for points, queries, steps in (self._narrow, self._wide):
            for ids in steps:
                rows = np.take(points, ids, axis=0)
                dots = np.einsum("mtd,md->mt", rows, queries)
                order = np.lexsort((ids, dots), axis=1)
                np.take_along_axis(dots, order, axis=1)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Scale for the step that ended just now."""
        after = self._loop()
        scale = 2.0 * REFERENCE_CALIBRATION_S / (self._before + after)
        self._before = after
        self.scales.append(scale)
        return scale


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------

def timed_setup(workload, clock=None):
    """One set-up; returns the state and its (scaled) seconds."""
    start = time.perf_counter()
    state = workload.setup()
    seconds = time.perf_counter() - start
    scale = clock.scale() if clock else 1.0
    if "build_s" in state:
        workload.build_times.append(state["build_s"] * scale)
    workload.after_setup(state)
    return state, seconds * scale


def guarded_pass(workload, state, passes: List[Pass]) -> None:
    """One pass; a pass that raises counts one failed op and the run
    goes on."""
    try:
        passes.append(workload.run_pass(state))
    except Exception:  # noqa: BLE001 - boundary that must keep running
        traceback.print_exc(file=sys.stderr)
        workload.ledger.ops(1, 1, "pass raised")


def measure(workload, seconds: float) -> Dict[str, float]:
    """Untraced run: several set-ups, then passes for ``seconds``."""
    clock = HostClock()
    workload.clock = clock
    setup_s = []
    for _ in range(workload.n_setups):
        state, took = timed_setup(workload, clock)
        setup_s.append(took)
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        guarded_pass(workload, state, passes)
        if time.perf_counter() - start >= seconds:
            break
    if not passes:
        raise RuntimeError("no measured pass completed")
    workload.info["passes"] = len(passes)
    workload.info["host_speed"] = [round(x, 3) for x in clock.scales]
    return workload.summarize(state, setup_s, passes)


def measure_traced(workload, seed: int) -> Dict[str, float]:
    """Traced run: one traced set-up, a warm-up pass, then one untraced
    and one traced pass; the difference between the last two is the
    tracing overhead."""
    tracer = tracing.Tracer()
    with tracer.active(tracing.PATCHES):
        state, _ = timed_setup(workload)
    passes: List[Pass] = []
    guarded_pass(workload, state, passes)
    start = time.perf_counter()
    guarded_pass(workload, state, passes)
    plain = time.perf_counter() - start
    workload.tracer = tracer
    with tracer.active(tracing.PATCHES):
        tracer.op = 0
        start = time.perf_counter()
        guarded_pass(workload, state, passes)
        traced = time.perf_counter() - start
    workload.tracer = None
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload.name}-{seed}.json")
    metrics = tracing.layer_metrics(tracer)
    tracing.check_layers(tracer, metrics, workload.name, workload.ledger)
    workload.info.update(tracing.op_samples(tracer))
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_share"] = (traced - plain) / plain
    print_spans(tracer)
    return metrics


def print_spans(tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    print(f"{'span':40} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for name in names:
        print(f"{name:40} {tracer.calls(name):8d} "
              f"{tracer.busy(name):10.4f} {tracer.self_time(name):10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


def run(args) -> Dict[str, object]:
    """Run one workload; returns the result object.  The self-test
    passes ``args.scale = "tiny"``; the command line always runs
    ``SIZES["full"]``."""
    specs = metric_specs(bool(args.trace))
    ledger = Ledger()
    scale = getattr(args, "scale", "full")
    workload = WORKLOADS[args.workload](
        args.seed, SIZES[scale][args.workload], ledger)
    if args.trace:
        values = measure_traced(workload, args.seed)
    else:
        values = measure(workload, args.seconds)
    print("config " + json.dumps(run_config(workload, args)))
    for key, value in sorted(workload.info.items()):
        print(f"info {key} = {value}")
    for name, value in sorted(values.items()):
        if name.startswith("extra."):
            print(f"metric {name[6:]} = {value!r}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    missing = sorted(set(specs) - set(values))
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in specs.items()}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
