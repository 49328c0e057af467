"""Span tracing from the benchmark's side of the package boundary.

The traced run wraps the public entry point of each layer by replacing
the attribute its caller resolves (a module global such as
``repro.serve.engine.stream_batches``, or a class attribute such as
``ResultCache.get``).  Nothing inside ``src/`` changes and nothing is
patched outside a traced run: :meth:`Tracer.active` installs the
wrappers and restores the originals on exit.

A span is ``(name, start, end, parent, op)``: host ``perf_counter``
seconds, the index of the enclosing span (``-1`` at the top) and the
benchmark op it belongs to.  Spans stay in memory until the run writes
them out.  Layers also publish counts (calls, rows, bytes, simulated
cycles) read from the values the entry points return, so ratios are
taken where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The six GANNS phases a search ``CycleTracker`` charges.
GANNS_PHASES = ("candidate_locating", "neighborhood_exploration",
                "bulk_distance", "lazy_check", "sorting",
                "candidate_update")

#: Op kinds of the mutable-index schedule, each traced as its own span.
MUTABLE_OPS = ("insert", "delete", "search", "compact", "checkpoint")

#: Simulated construction phases of GGraphCon (``ConstructionReport``).
CONSTRUCTION_PHASES = ("local_construction", "merge_search",
                       "merge_gather_scatter", "merge_update")


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.op = -1
        self.missing: List[str] = []
        self._stack: List[int] = []

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the enclosed block."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(sid)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``on_result(tracer, result, args, kwargs)`` runs after the span
        closes, so its own cost is not charged to the layer.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def active(self, patches):
        """Install ``patches`` for the enclosed block, then restore.

        Each patch is ``(target, span_name, on_result)`` where target is
        ``"module.path:attr"`` or ``"module.path:Class.attr"``.  A target
        the package no longer has is skipped and listed in
        :attr:`missing`; :func:`check_layers` counts it as a failed op.
        """
        installed = []
        try:
            for target, name, on_result in patches:
                resolved = _resolve(target)
                if resolved is None:
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                owner, attr, original = resolved
                setattr(owner, attr, self.wrap(name, original, on_result))
                installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def busy(self, name: str) -> float:
        """Host seconds inside outermost ``name`` spans (no double count
        when a layer re-enters itself)."""
        total = 0.0
        for sid, (span_name, start, end, parent, _) in enumerate(
                self.spans):
            if span_name == name and not self._inside(parent, name):
                total += end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name: str) -> float:
        """Busy time of ``name`` minus the time its direct children
        cover (children of one span never overlap: one thread)."""
        child_time: Dict[int, float] = defaultdict(float)
        for span_name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return sum(end - start - child_time[sid]
                   for sid, (span_name, start, end, _, _)
                   in enumerate(self.spans) if span_name == name)

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "missing_patches": self.missing},
                      handle)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


# ----------------------------------------------------------------------
# What each layer publishes from the values its entry point returns.
# ----------------------------------------------------------------------

def _on_search(tracer: Tracer, report, args, kwargs) -> None:
    tracer.counts["perf.engine.rows"] += len(report.ids)
    tracer.counts["perf.engine.iterations"] += float(
        report.iterations.sum())
    tracer.counts["perf.engine.dist_evals"] += float(
        report.n_distance_computations)
    for phase, cycles in report.tracker.phase_totals().items():
        tracer.counts[f"gpusim.{phase}_cycles"] += cycles


def _on_distance_engine(tracer: Tracer, engine, args, kwargs) -> None:
    pairs = engine.pairs
    row_bytes = engine.points.shape[1] * engine.points.itemsize

    def counted(query_rows, cand_ids):
        tracer.counts["perf.distance.bytes"] += cand_ids.size * row_bytes
        return pairs(query_rows, cand_ids)

    engine.pairs = tracer.wrap("perf.distance", counted)


def _on_serve_replay(tracer: Tracer, report, args, kwargs) -> None:
    tracer.samples["serve.batch_sizes"].extend(report.batch_sizes)
    tracer.samples["serve.queue_seconds"].extend(
        float(q) for q in report.queue_seconds())
    if report.cache_stats is not None:
        tracer.counts["serve.cache.lookups"] += report.cache_stats.lookups
        tracer.counts["serve.cache.hits"] += report.cache_stats.hits


def _on_cluster_replay(tracer: Tracer, report, args, kwargs) -> None:
    tracer.counts["cluster.router.failovers"] += report.n_failovers
    tracer.counts["cluster.router.shard_misses"] += report.n_shard_misses
    tracer.counts["heal.repairs_healed"] += report.n_repairs_healed
    if report.n_repairs_healed:
        mttr_ms = report.max_mttr_seconds * 1e3
        tracer.counts["heal.max_mttr_ms"] = max(
            tracer.counts["heal.max_mttr_ms"], mttr_ms)


def _on_construction(tracer: Tracer, report, args, kwargs) -> None:
    for phase, seconds in report.phase_seconds.items():
        tracer.counts[f"core.construction.{phase}_sim_ms"] += seconds * 1e3


def _on_compaction(tracer: Tracer, stats, args, kwargs) -> None:
    tracer.counts["mutable.compaction.reclaimed"] += stats.n_dead


def _on_wal_append(tracer: Tracer, record, args, kwargs) -> None:
    tracer.counts["mutable.wal.records"] += 1
    tracer.counts["mutable.wal.bytes"] += len(record.to_json())
    for payload in (record.points, record.ids):
        if payload is not None:
            tracer.counts["mutable.wal.user_bytes"] += payload.nbytes


#: ``(target, span name, on_result)`` for every traced entry point.
PATCHES = (
    ("repro.perf.engine:ganns_search_fast", "perf.engine", _on_search),
    ("repro.perf.engine:make_distance_engine", "perf.distance.make",
     _on_distance_engine),
    ("repro.serve.engine:stream_batches", "core.pipeline", None),
    ("repro.cluster.engine:stream_batches", "core.pipeline", None),
    ("repro.serve.cache:ResultCache.get", "serve.cache", None),
    ("repro.serve.cache:ResultCache.put", "serve.cache", None),
    ("repro.serve.engine:ServeEngine.replay", "serve.engine",
     _on_serve_replay),
    ("repro.cluster.engine:ClusterEngine.replay", "cluster.engine",
     _on_cluster_replay),
    ("repro.cluster.engine:merge_topk", "cluster.merge", None),
    ("repro.heal.controller:RepairController.plan_repairs",
     "heal.controller", None),
    ("repro.core.backend:build_nsw_gpu", "core.construction",
     _on_construction),
    ("repro.mutable.index:build_nsw_gpu", "core.construction",
     _on_construction),
    ("repro.mutable.index:insert_batch_nsw", "core.construction",
     _on_construction),
    ("repro.baselines.nsw_cpu:build_nsw_cpu", "baselines.nsw_cpu", None),
    ("repro.core.construction:insert_bidirectional_batch",
     "perf.construction", None),
    ("repro.core.construction:merge_forward_batch", "perf.construction",
     None),
    ("repro.core.construction:merge_segments_batch", "perf.construction",
     None),
    ("repro.core.backend:build_cagra_gpu", "core.cagra", None),
    ("repro.core.cagra:build_knn_graph_gpu", "core.knng", None),
    ("repro.core.cagra:rank_prune", "core.cagra.prune", None),
    ("repro.core.cagra:reverse_merge", "core.cagra.reverse_merge", None),
    ("repro.graphs.adjacency:ProximityGraph.merge_row",
     "graphs.adjacency.merge_row", None),
    ("repro.mutable.index:compact_graph", "mutable.compaction",
     _on_compaction),
    ("repro.mutable.wal:DurableStore.append", "mutable.wal.append",
     _on_wal_append),
)


def _percentile_ms(seconds: List[float], q: float) -> float:
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0
                                                  * (len(ordered) - 1)))))
    return ordered[rank] * 1e3


def tail_percentile(n_samples: int) -> float:
    """Highest percentile with at least ten samples beyond it, and never
    below the median (so it is the median up to 20 samples)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / max(n_samples, 1)))


def op_samples(tracer: Tracer) -> Dict[str, str]:
    """Sample count and tail percentile behind each mutable op's
    ``_p50_ms`` / ``_tail_ms``."""
    notes = {}
    for op in MUTABLE_OPS:
        n = tracer.calls(f"mutable.index.{op}")
        notes[f"mutable.index.{op}_samples"] = (
            f"{n} (tail = p{tail_percentile(n):.1f})")
    return notes


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the traced run reports (0 when idle)."""
    c = tracer.counts
    m: Dict[str, float] = {}
    engine_calls = tracer.calls("perf.engine")
    m["perf.engine.busy_s"] = tracer.busy("perf.engine")
    m["perf.engine.calls"] = engine_calls
    m["perf.engine.rows_per_call"] = (c["perf.engine.rows"] / engine_calls
                                      if engine_calls else 0.0)
    m["perf.engine.iters_mean"] = (c["perf.engine.iterations"]
                                   / c["perf.engine.rows"]
                                   if c["perf.engine.rows"] else 0.0)
    m["perf.engine.dist_evals"] = c["perf.engine.dist_evals"]
    for phase in GANNS_PHASES:
        m[f"gpusim.{phase}_cycles"] = c[f"gpusim.{phase}_cycles"]
    m["perf.distance.busy_s"] = tracer.busy("perf.distance")
    m["perf.distance.calls"] = tracer.calls("perf.distance")
    m["perf.distance.bytes"] = c["perf.distance.bytes"]
    m["core.pipeline.busy_s"] = tracer.busy("core.pipeline")
    m["core.pipeline.calls"] = tracer.calls("core.pipeline")
    batches = tracer.samples["serve.batch_sizes"]
    m["serve.scheduler.batches"] = len(batches)
    m["serve.scheduler.batch_size_mean"] = (sum(batches) / len(batches)
                                            if batches else 0.0)
    m["serve.scheduler.queue_p99_ms"] = _percentile_ms(
        tracer.samples["serve.queue_seconds"], 99.0)
    m["serve.cache.lookups"] = c["serve.cache.lookups"]
    m["serve.cache.hit_ratio"] = (c["serve.cache.hits"]
                                  / c["serve.cache.lookups"]
                                  if c["serve.cache.lookups"] else 0.0)
    m["serve.cache.busy_s"] = tracer.busy("serve.cache")
    m["serve.engine.self_s"] = tracer.self_time("serve.engine")
    m["cluster.engine.self_s"] = tracer.self_time("cluster.engine")
    m["cluster.merge.busy_s"] = tracer.busy("cluster.merge")
    m["cluster.merge.calls"] = tracer.calls("cluster.merge")
    m["cluster.router.failovers"] = c["cluster.router.failovers"]
    m["cluster.router.shard_misses"] = c["cluster.router.shard_misses"]
    m["heal.controller.busy_s"] = tracer.busy("heal.controller")
    m["heal.repairs_healed"] = c["heal.repairs_healed"]
    m["heal.max_mttr_ms"] = c["heal.max_mttr_ms"]
    m["baselines.nsw_cpu.busy_s"] = tracer.busy("baselines.nsw_cpu")
    m["core.construction.busy_s"] = tracer.busy("core.construction")
    for phase in CONSTRUCTION_PHASES:
        key = f"core.construction.{phase}_sim_ms"
        m[key] = c[key]
    m["perf.construction.busy_s"] = tracer.busy("perf.construction")
    m["perf.construction.calls"] = tracer.calls("perf.construction")
    m["core.knng.busy_s"] = tracer.busy("core.knng")
    m["core.cagra.busy_s"] = tracer.busy("core.cagra")
    m["core.cagra.prune_s"] = tracer.busy("core.cagra.prune")
    m["core.cagra.reverse_merge_s"] = tracer.busy("core.cagra.reverse_merge")
    m["graphs.adjacency.merge_row_calls"] = tracer.calls(
        "graphs.adjacency.merge_row")
    m["graphs.adjacency.merge_row_s"] = tracer.busy(
        "graphs.adjacency.merge_row")
    for op in MUTABLE_OPS:
        name = f"mutable.index.{op}"
        durations = [end - start for span_name, start, end, _, _
                     in tracer.spans if span_name == name]
        m[f"{name}_s"] = sum(durations)
        m[f"{name}_p50_ms"] = _percentile_ms(durations, 50.0)
        m[f"{name}_tail_ms"] = _percentile_ms(
            durations, tail_percentile(len(durations)))
    m["mutable.compaction.busy_s"] = tracer.busy("mutable.compaction")
    m["mutable.compaction.reclaimed"] = c["mutable.compaction.reclaimed"]
    m["mutable.wal.records"] = c["mutable.wal.records"]
    m["mutable.wal.bytes_per_user_byte"] = (
        c["mutable.wal.bytes"] / c["mutable.wal.user_bytes"]
        if c["mutable.wal.user_bytes"] else 0.0)
    m["mutable.wal.checkpoint_bytes"] = c["mutable.wal.checkpoint_bytes"]
    m["mutable.recovery.replayed"] = c["mutable.recovery.replayed"]
    m["mutable.recovery.busy_s"] = tracer.busy("mutable.recovery")
    return m


#: Per workload, one metric of every layer NOTES.md lists as running
#: there.  Most per-layer metrics are "lower is better", so a trace
#: point that stopped firing would read as a gain; a traced run in which
#: one of these reads 0 counts a failed op instead.
ACTIVE_LAYERS = {
    "search-batch": ("perf.engine.calls", "gpusim.bulk_distance_cycles",
                     "perf.distance.calls", "core.construction.busy_s",
                     "perf.construction.calls"),
    "serve-cluster": ("perf.engine.calls", "gpusim.bulk_distance_cycles",
                      "core.pipeline.calls", "serve.scheduler.batches",
                      "serve.cache.lookups", "serve.engine.self_s",
                      "cluster.engine.self_s", "cluster.merge.calls",
                      "heal.controller.busy_s", "baselines.nsw_cpu.busy_s"),
    "build": ("perf.engine.calls", "gpusim.bulk_distance_cycles",
              "core.construction.busy_s", "perf.construction.calls",
              "core.knng.busy_s", "core.cagra.busy_s", "core.cagra.prune_s",
              "core.cagra.reverse_merge_s",
              "graphs.adjacency.merge_row_calls"),
    "mutate-mixed": ("perf.engine.calls", "gpusim.bulk_distance_cycles",
                     "core.construction.busy_s", "perf.construction.calls",
                     "graphs.adjacency.merge_row_calls",
                     *(f"mutable.index.{op}_s" for op in MUTABLE_OPS),
                     "mutable.compaction.busy_s", "mutable.wal.records",
                     "mutable.recovery.busy_s"),
}


def check_layers(tracer: Tracer, metrics: Dict[str, float], workload: str,
                 ledger) -> None:
    """Count a failed op for every trace point the package no longer
    has and every layer of ``workload`` that reads 0."""
    for target in tracer.missing:
        ledger.check(False, f"trace point {target} not found")
    for name in ACTIVE_LAYERS[workload]:
        ledger.check(metrics[name] > 0, f"layer metric {name} reads 0")
