#!/usr/bin/env python
"""CI gate for the quantized staged search (``docs/quantization.md``).

Two halves:

1. Gate the ``quant_smoke`` row of a ``bench_wallclock.py`` JSON
   document (produced with ``--quant-smoke``):

   - staged search >= 1.5x over the exact search (the honest baseline
     — not the ``ganns_search_reference`` oracle),
   - recall@10 within 0.02 of the exact search on the same fixture,
   - byte-deterministic across two seeded runs.

2. Replay a small quantized serving trace in-process and reconcile the
   report against the live metric registry
   (:meth:`ServeReport.verify_against_metrics`, zero drift allowed):
   the quantized replay must publish ``quant.batches`` and the
   rerank-pool histogram; an exact replay of the same trace must
   publish **no** ``quant.*`` metrics — a quantized result must never
   masquerade as an exact one.

Exits non-zero with a diagnostic otherwise.

    PYTHONPATH=src python benchmarks/bench_wallclock.py \\
        --quant-smoke --output quant_smoke.json
    PYTHONPATH=src python scripts/check_quant_smoke.py quant_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

EXPECTED_SCHEMA = "repro.bench_wallclock/v2"


def check_report(path, min_speedup, max_recall_delta):
    """Validate the benchmark document; returns an error string or None."""
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != EXPECTED_SCHEMA:
        return f"unexpected schema {doc.get('schema')!r} in {path}"
    workloads = {w["name"]: w for w in doc.get("workloads", [])}
    if "quant_smoke" not in workloads:
        return f"no 'quant_smoke' workload in {path}"
    row = workloads["quant_smoke"]
    if row["kind"] != "quant_search":
        return f"quant_smoke has kind {row['kind']!r}"
    if not row["deterministic"]:
        return "quantized search is not deterministic across runs"
    if row["speedup_vs_fast"] < min_speedup:
        return (f"quant speedup {row['speedup_vs_fast']:.2f}x over the "
                f"exact search is below the {min_speedup:.2f}x "
                f"floor (exact {row['fast_seconds']:.2f}s, quant "
                f"{row['quant_seconds']:.2f}s)")
    if row["recall_delta"] > max_recall_delta:
        return (f"recall@10 delta {row['recall_delta']:+.4f} exceeds "
                f"{max_recall_delta:.2f} (exact {row['recall_exact']:.4f}"
                f", quant {row['recall_quant']:.4f})")
    if row["bytes_per_vector_quant"] >= row["bytes_per_vector_exact"]:
        return (f"quantized footprint "
                f"{row['bytes_per_vector_quant']:.0f} B/vec is not below "
                f"the exact {row['bytes_per_vector_exact']:.0f} B/vec")
    return None


def check_observability():
    """Replay quant + exact serving traces; returns error string or None."""
    import numpy as np

    from repro.baselines.nsw_cpu import build_nsw_cpu
    from repro.core.params import SearchParams
    from repro.datasets.synthetic import gaussian_mixture
    from repro.errors import ObservabilityError
    from repro.serve.engine import ServeEngine
    from repro.serve.scheduler import BatchPolicy
    from repro.serve.trace import synthetic_trace

    points = gaussian_mixture(600, 32, seed=0).astype(np.float32)
    pool = gaussian_mixture(200, 32, seed=1).astype(np.float32)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    trace = synthetic_trace(pool, 120, mean_qps=50_000.0,
                            queries_per_request=4, seed=7)
    policy = BatchPolicy(max_batch=64, max_wait_seconds=0.002,
                         max_queue=4096)

    def replay(quant):
        engine = ServeEngine(
            graph, points,
            params=SearchParams(k=10, l_n=32, quant=quant),
            policy=policy)
        return engine.replay(trace)

    quant_report = replay("pca")
    try:
        quant_report.verify_against_metrics()
    except ObservabilityError as exc:
        return f"quantized replay drifted from its registry: {exc}"
    if quant_report.quant != "pca":
        return (f"quantized replay reports quant="
                f"{quant_report.quant!r}, expected 'pca'")
    registry = quant_report.metrics
    published = registry.value("quant.batches", default=0.0)
    if published != quant_report.n_batches or published <= 0:
        return (f"quantized replay published quant.batches={published}, "
                f"expected {quant_report.n_batches}")

    exact_report = replay("off")
    try:
        exact_report.verify_against_metrics()
    except ObservabilityError as exc:
        return f"exact replay drifted from its registry: {exc}"
    if exact_report.quant is not None:
        return (f"exact replay reports quant={exact_report.quant!r}, "
                f"expected None")
    if "quant.batches" in exact_report.metrics:
        return "exact replay published quant.* metrics"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="bench_wallclock.py --quant-smoke "
                        "JSON output")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="floor on quant speedup over the exact "
                        "search (default 1.5)")
    parser.add_argument("--max-recall-delta", type=float, default=0.02,
                        help="ceiling on recall@10 lost to quantization "
                        "(default 0.02)")
    args = parser.parse_args(argv)

    problem = check_report(args.report, args.min_speedup,
                           args.max_recall_delta)
    if problem is None:
        problem = check_observability()
    if problem:
        print(f"quant smoke FAILED: {problem}", file=sys.stderr)
        return 1
    with open(args.report) as handle:
        doc = json.load(handle)
    row = {w["name"]: w for w in doc["workloads"]}["quant_smoke"]
    print(f"quant smoke ok: {row['speedup_vs_fast']:.2f}x over exact "
          f"search, recall@10 delta {row['recall_delta']:+.4f}, "
          f"{row['bytes_per_vector_quant']:.0f} B/vec "
          f"({row['footprint_reduction']:.1f}x smaller), deterministic; "
          f"serve metrics reconciled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
