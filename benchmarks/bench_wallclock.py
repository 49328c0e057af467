#!/usr/bin/env python
"""Wall-clock benchmark: GANNS search against its oracle, builds, serving.

Unlike the ``bench_fig*.py`` suite (which measures *simulated* cycles),
this harness times real host seconds.  Each workload builds its
fixtures once, runs every configured variant best-of-N, and records the
speedups.  The result is written as JSON; the committed
``BENCH_wallclock.json`` at the repo root is the tracked baseline
(regenerate with ``make bench-wallclock``).

    PYTHONPATH=src python benchmarks/bench_wallclock.py              # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick      # CI
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quant-smoke

Workload kinds (the paper's Figure 6 batched-search shapes plus the
Figure 10/11-style construction runs):

- ``ganns_search`` — exact search: the plain-NumPy oracle
  ``ganns_search_reference`` (timed as ``reference_seconds``) vs
  ``ganns_search`` (``fast_seconds``); the two must return
  byte-identical neighbor ids (``ids_match``).
- ``quant_search`` — quantized staged search (compressed traversal +
  exact rerank; see ``docs/quantization.md``).  **Lossy**, so instead
  of ``ids_match`` these rows carry honest accounting: recall@10 of
  the exact and quantized searches against brute-force ground truth
  (``recall_exact`` / ``recall_quant`` / ``recall_delta``), the
  bytes-per-vector footprint of both representations, and a
  ``deterministic`` flag (two runs byte-identical).
- ``construction`` — GGraphCon NSW and CAGRA builds: ``build_seconds``
  plus ``digest_match`` (two builds, one graph digest).
- ``serve_replay`` — thousands of micro-batches through ServeEngine:
  ``replay_seconds`` plus ``ids_match`` (two replays, same ids) and
  the ``compute_dtype`` read back from the served distances.

``--quick`` runs only the ``smoke`` workload, which the CI perf gate
(``scripts/check_perf_smoke.py``) requires to stay >= 1.5x.
``--quant-smoke`` runs only the ``quant_smoke`` workload for the CI
quant gate (``scripts/check_quant_smoke.py``): quantized staged search
>= 1.5x over the exact search with recall@10 within 0.02 — the oracle
is not timed there, so ``reference_seconds`` is null.
The full set's acceptance baseline requires >= 3x on at least one exact
workload and >= 4x oracle-relative on a quantized d=256 workload
with recall@10 within 0.01 of exact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.cagra import build_cagra_gpu
from repro.core.construction import build_nsw_gpu
from repro.core.ganns import ganns_search, ganns_search_reference
from repro.core.params import BuildParams, SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.graphs import graph_digest
from repro.metrics.recall import recall_at_k
from repro.perf.quant import quantize_points
from repro.serve.engine import ServeEngine
from repro.serve.scheduler import BatchPolicy
from repro.serve.trace import synthetic_trace

SCHEMA = "repro.bench_wallclock/v2"

K = 10


def _best_of(fn, repeats):
    """Best-of-``repeats`` wall-clock seconds, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed_twice(fn, repeats):
    """Best-of-``repeats`` seconds, the last timed result, and the
    result of one more run (for a determinism check)."""
    seconds, first = _best_of(fn, repeats)
    return seconds, first, fn()


def _search_fixture(n, dims, n_queries):
    """One graph + query batch, fig06-style (shared across variants)."""
    points = gaussian_mixture(n, dims, seed=0).astype(np.float32)
    queries = gaussian_mixture(n_queries, dims, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    return graph, points, queries


def _search_workload(name, n, dims, n_queries, l_n, dtype, repeats,
                     fixture=None):
    """Batched exact GANNS search: oracle vs ``ganns_search``, ids must
    match."""
    dtype = np.dtype(dtype)
    graph, points, queries = fixture or _search_fixture(n, dims, n_queries)
    params = SearchParams(k=K, l_n=l_n)

    def run(search):
        return _best_of(
            lambda: search(graph, points, queries, params, dtype=dtype),
            repeats)

    ref_seconds, ref = run(ganns_search_reference)
    fast_seconds, fast = run(ganns_search)
    return {
        "name": name,
        "kind": "ganns_search",
        "config": {"n_points": n, "n_dims": dims, "n_queries": n_queries,
                   "l_n": l_n, "dtype": dtype.name},
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / fast_seconds,
        "ids_match": ref.ids.tobytes() == fast.ids.tobytes(),
    }


def _quant_workload(name, fixture, n, dims, n_queries, l_n, quant,
                    rerank_factor, repeats, fast_seconds=None,
                    ref_seconds=None):
    """Quantized staged search with honest recall/footprint accounting.

    ``fast_seconds``/``ref_seconds`` let callers share exact-search and
    oracle timings measured once per fixture; ``ref_seconds=None``
    records the row without an oracle-relative speedup (CI quant-smoke
    mode).
    """
    graph, points, queries = fixture
    gt = exact_knn(points, queries, K, graph.metric_name)

    def run(**extra):
        params = SearchParams(k=K, l_n=l_n, **extra)
        return _best_of(
            lambda: ganns_search(graph, points, queries, params), repeats)

    if fast_seconds is None:
        fast_seconds, exact_rep = run()
    else:
        _, exact_rep = _best_of(
            lambda: ganns_search(
                graph, points, queries,
                SearchParams(k=K, l_n=l_n)), 1)
    quant_seconds, quant_rep = run(quant=quant, rerank_factor=rerank_factor)
    _, again = run(quant=quant, rerank_factor=rerank_factor)
    deterministic = (quant_rep.ids.tobytes() == again.ids.tobytes()
                     and quant_rep.dists.tobytes() == again.dists.tobytes())

    recall_exact = recall_at_k(exact_rep.ids, gt)
    recall_quant = recall_at_k(quant_rep.ids, gt)
    table = quantize_points(points, quant, graph.metric_name)
    exact_bpv = float(points.dtype.itemsize * dims)
    quant_bpv = table.bytes_per_vector()
    return {
        "name": name,
        "kind": "quant_search",
        "config": {"n_points": n, "n_dims": dims, "n_queries": n_queries,
                   "l_n": l_n, "quant": quant,
                   "rerank_factor": rerank_factor,
                   "dtype": points.dtype.name},
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "quant_seconds": quant_seconds,
        "speedup": (None if ref_seconds is None
                    else ref_seconds / quant_seconds),
        "speedup_vs_fast": fast_seconds / quant_seconds,
        "recall_exact": recall_exact,
        "recall_quant": recall_quant,
        "recall_delta": recall_exact - recall_quant,
        "bytes_per_vector_exact": exact_bpv,
        "bytes_per_vector_quant": quant_bpv,
        "footprint_reduction": exact_bpv / quant_bpv,
        "deterministic": deterministic,
    }


def _d256_workloads(repeats):
    """The fig06 d=256 exact row plus quantized variants on one fixture.

    The quantized rows reuse the exact row's oracle/search seconds, so
    every d=256 speedup in the document is measured on the same graph,
    same queries, same machine state.
    """
    n, dims, n_queries, l_n = 8000, 256, 2000, 64
    fixture = _search_fixture(n, dims, n_queries)
    exact_row = _search_workload(
        "fig06_batch_d256", n=n, dims=dims, n_queries=n_queries, l_n=l_n,
        dtype=np.float32, repeats=repeats, fixture=fixture)
    rows = [exact_row]
    for quant, rerank_factor in (("pca", 1), ("pca", 2), ("int8", 1)):
        rows.append(_quant_workload(
            f"quant_d256_{quant}_rf{rerank_factor}", fixture,
            n=n, dims=dims, n_queries=n_queries, l_n=l_n, quant=quant,
            rerank_factor=rerank_factor, repeats=repeats,
            fast_seconds=exact_row["fast_seconds"],
            ref_seconds=exact_row["reference_seconds"]))
    return rows


def _quant_smoke_workload(repeats):
    """The CI quant gate's workload: pca rf=1 vs exact search, d=256.

    Wide query batch (m=4000) so the staged path's advantage is well
    clear of the 1.5x gate; the oracle is skipped to keep the CI job
    short.
    """
    n, dims, n_queries, l_n = 8000, 256, 4000, 64
    fixture = _search_fixture(n, dims, n_queries)
    return _quant_workload(
        "quant_smoke", fixture, n=n, dims=dims, n_queries=n_queries,
        l_n=l_n, quant="pca", rerank_factor=1, repeats=repeats)


def _nsw_construction_workload(repeats):
    """GGraphCon NSW build (Figure 10-style): single-path timing.

    Records best-of-N seconds plus a determinism check: a second build
    must produce the same graph digest.  (The build's agreement with
    the per-vertex GGraphCon loops is pinned by the committed digest
    table ``tests/data/construction_digests.json``.)
    """
    n, dims = 4000, 64
    points = gaussian_mixture(n, dims, seed=0).astype(np.float32)
    params = BuildParams(d_min=8, d_max=16, n_blocks=100)
    seconds, first, again = _timed_twice(
        lambda: build_nsw_gpu(points, params), repeats)
    return {
        "name": "build_nsw_d64",
        "kind": "construction",
        "config": {"n_points": n, "n_dims": dims, "d_min": 8, "d_max": 16,
                   "n_blocks": 100, "dtype": "float32"},
        "build_seconds": seconds,
        "digest_match": graph_digest(first.graph)
                        == graph_digest(again.graph),
    }


def _cagra_construction_workload():
    """CAGRA build (Figure 11-style): single-path timing.

    Records absolute seconds plus a determinism check (two builds must
    produce the same graph digest).
    """
    n, dims = 2000, 64
    points = gaussian_mixture(n, dims, seed=0).astype(np.float32)
    params = BuildParams(d_min=8, d_max=16)
    seconds, first, again = _timed_twice(
        lambda: build_cagra_gpu(points, params, graph_degree=16,
                                knn_iterations=4), 1)
    return {
        "name": "build_cagra_d64",
        "kind": "construction",
        "config": {"n_points": n, "n_dims": dims, "graph_degree": 16,
                   "knn_iterations": 4, "dtype": "float32"},
        "build_seconds": seconds,
        "digest_match": graph_digest(first.graph)
                        == graph_digest(again.graph),
    }


def _serve_workload(name, repeats):
    """Serving replay: thousands of micro-batches through ServeEngine.

    Single-path timing plus a determinism check (a second replay must
    serve the same ids to every request).  The arena cache earns its
    keep here — every dispatch reuses the same buffers, so the steady-
    state allocation rate is near zero.  ``compute_dtype`` is read back
    from the served distances, not assumed from the float32 points.
    """
    points = gaussian_mixture(8000, 64, seed=0).astype(np.float32)
    pool = gaussian_mixture(1500, 64, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    trace = synthetic_trace(pool, 3000, mean_qps=240_000.0,
                            queries_per_request=4, seed=7)
    # Throughput-tier policy: wide micro-batches keep the kernel in its
    # batched regime, which is where the arena + GEMM path pays off.
    policy = BatchPolicy(max_batch=1024, max_wait_seconds=0.004,
                         max_queue=16384)
    engine = ServeEngine(graph, points, params=SearchParams(k=K, l_n=64),
                         policy=policy)
    seconds, first, again = _timed_twice(lambda: engine.replay(trace),
                                         repeats)

    def served_ids(report):
        return {o.request_id: o.ids.tobytes()
                for o in report.outcomes if o.served}

    served = [o for o in first.outcomes if o.served]
    return {
        "name": name,
        "kind": "serve_replay",
        "config": {"n_points": 8000, "n_dims": 64, "n_requests": 3000,
                   "queries_per_request": 4, "l_n": 64,
                   "max_batch": 1024, "points_dtype": "float32"},
        "compute_dtype": (served[0].dists.dtype.name if served
                          else None),
        "replay_seconds": seconds,
        "ids_match": served_ids(first) == served_ids(again),
    }


def run_workloads(quick, repeats, quant_smoke=False):
    """Run the selected workload set; returns the JSON document."""
    if quant_smoke:
        workloads = [_quant_smoke_workload(repeats)]
    else:
        workloads = [
            _search_workload("smoke", n=4000, dims=64, n_queries=1000,
                             l_n=64, dtype=np.float32, repeats=repeats),
        ]
        if not quick:
            workloads.append(_search_workload(
                "fig06_batch_d128", n=8000, dims=128, n_queries=2000,
                l_n=64, dtype=np.float32, repeats=repeats))
            workloads.extend(_d256_workloads(repeats))
            workloads.append(_quant_smoke_workload(repeats))
            workloads.append(_nsw_construction_workload(repeats))
            workloads.append(_cagra_construction_workload())
            workloads.append(_serve_workload("serve_replay",
                                             repeats=repeats))
    speedups = [w["speedup"] for w in workloads
                if w.get("speedup") is not None]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "quant_smoke": quant_smoke,
        "repeats": repeats,
        "workloads": workloads,
        "best_speedup": max(speedups) if speedups else None,
    }


def _fmt_seconds(value):
    return "      -" if value is None else f"{value:>6.2f}s"


def print_table(doc):
    """Human-readable summary of the JSON document."""
    print(f"{'workload':<22} {'reference':>9} {'fast':>7} {'quant':>7}"
          f" {'speedup':>8} {'ok':>3}")
    for w in doc["workloads"]:
        if w["kind"] == "quant_search":
            speed = w["speedup"] if w["speedup"] is not None \
                else w["speedup_vs_fast"]
            ok = w["deterministic"] and abs(w["recall_delta"]) <= 0.02
            print(f"{w['name']:<22} {_fmt_seconds(w['reference_seconds'])}"
                  f" {_fmt_seconds(w['fast_seconds'])}"
                  f" {_fmt_seconds(w['quant_seconds'])}"
                  f" {speed:>7.2f}x {'yes' if ok else 'NO':>3}")
            print(f"{'':<22}   recall {w['recall_quant']:.4f}"
                  f" (exact {w['recall_exact']:.4f},"
                  f" delta {w['recall_delta']:+.4f}),"
                  f" {w['bytes_per_vector_quant']:.0f} B/vec"
                  f" ({w['footprint_reduction']:.1f}x smaller)")
        elif "speedup" in w:
            ok = w.get("ids_match", w.get("digest_match", False))
            print(f"{w['name']:<22} {_fmt_seconds(w['reference_seconds'])}"
                  f" {_fmt_seconds(w['fast_seconds'])} {'':>7}"
                  f" {w['speedup']:>7.2f}x {'yes' if ok else 'NO':>3}")
        else:
            seconds = w.get("build_seconds", w.get("replay_seconds"))
            ok = w.get("digest_match", w.get("ids_match", False))
            print(f"{w['name']:<22} {'':>9} {'':>7} {'':>7}"
                  f" {seconds:>6.2f}s {'yes' if ok else 'NO':>3}")
    if doc["best_speedup"] is not None:
        print(f"\nbest speedup: {doc['best_speedup']:.2f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the CI smoke workload")
    parser.add_argument("--quant-smoke", action="store_true",
                        help="run only the CI quant-smoke workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--output", default="BENCH_wallclock.json",
                        help="where to write the JSON document")
    args = parser.parse_args(argv)

    doc = run_workloads(quick=args.quick, repeats=args.repeats,
                        quant_smoke=args.quant_smoke)
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")

    print_table(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
