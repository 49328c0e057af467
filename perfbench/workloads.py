"""The four benchmark workloads, their inputs, oracle and checks.

Every workload draws its whole input (corpus, held-out queries, insert
stream) from one seeded Gaussian-mixture draw that is then split, so
queries come from the same distribution as the corpus.  The package
only ever receives the generated arrays.

A workload has three steps the runner drives:

- ``setup()`` — data generation and index construction up to the
  first measured op (timed as ``setup_s``; run several times);
- ``after_setup(state)`` — the brute-force oracle and the set-up
  checks, untimed;
- ``run_pass(state)`` — one fixed unit of measured work.  Passes repeat
  until the run's seconds are used; every pass does identical work, so
  answer and report digests must agree across passes.

Each op attempted and each check made goes through a :class:`Ledger`;
an op that raises, returns a non-served outcome or fails a check counts
as failed.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import (BatchPolicy, BuildParams, ClusterEngine, GannsIndex,
                   MutableIndex, SearchParams, ganns_search, merge_topk,
                   named_fault_plan, recall_at_k, recover, synthetic_trace,
                   validate_graph)
from repro.graphs.stats import graph_digest, reachable_fraction
from repro.heal.policy import HealPolicy

K = 10
L_N = 64
#: Seed of the serve-cluster arrival and fault schedules and of the
#: mutate-mixed op mix.  Fixed: the workload seed draws the data, so the
#: amount of work a pass does stays the same from seed to seed.
SCHEDULE_SEED = 1
#: mutate-mixed ops timed between two host-clock calibrations.
CALIBRATE_EVERY = 20


# ----------------------------------------------------------------------
# Inputs, oracle and answer checks
# ----------------------------------------------------------------------

def mixture(rng: np.random.Generator, n: int, d: int,
            n_clusters: int = 512, cluster_std: float = 0.1,
            intrinsic: int = 16, noise: float = 0.01) -> np.ndarray:
    """``n`` float32 points of a Gaussian mixture on a 16-d manifold
    embedded in ``d`` dimensions (the shape of SIFT-like descriptors).

    The default of 512 small clusters keeps search work and recall
    nearly the same from seed to seed.  With 32 well-separated clusters
    (the package's own ``gaussian_mixture`` default) a 2,000-point NSW
    graph reaches some clusters poorly from its single entry vertex, and
    recall@10 moves between 0.83 and 0.99 with the seed.
    """
    intrinsic = min(intrinsic, d)
    centres = rng.uniform(-1.0, 1.0, size=(n_clusters, intrinsic))
    labels = rng.integers(0, n_clusters, size=n)
    latent = centres[labels] + rng.normal(scale=cluster_std,
                                          size=(n, intrinsic))
    basis = rng.normal(size=(intrinsic, d)) / np.sqrt(intrinsic)
    points = latent @ basis + rng.normal(scale=noise, size=(n, d))
    return points.astype(np.float32)


def exact_topk(points: np.ndarray, queries: np.ndarray,
               k: int = K) -> np.ndarray:
    """Brute-force ``(m, k)`` nearest ids by squared L2, ties by id."""
    p = points.astype(np.float64)
    q = queries.astype(np.float64)
    d2 = ((q * q).sum(1)[:, None] - 2.0 * (q @ p.T)
          + (p * p).sum(1)[None, :])
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    part_d = np.take_along_axis(d2, part, axis=1)
    order = np.lexsort((part, part_d), axis=1)
    return np.take_along_axis(part, order, axis=1)


def bad_rows(ids: np.ndarray, dists: np.ndarray, points: np.ndarray,
             queries: np.ndarray,
             dead: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows whose answer is not a valid top-k list for its query.

    A row is bad when it holds padding or an out-of-range, repeated or
    (with ``dead``) tombstoned id, when its distances are not sorted,
    or when a reported distance is not the distance to the reported
    point.  No recall floor is involved.
    """
    ids = np.asarray(ids)
    dists = np.asarray(dists, dtype=np.float64)
    bad = ((ids < 0) | (ids >= len(points))).any(axis=1)
    safe = np.where(bad[:, None], 0, ids)
    if dead is not None:
        bad |= dead[safe].any(axis=1)
    ordered = np.sort(safe, axis=1)
    bad |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    bad |= (np.diff(dists, axis=1) < 0).any(axis=1)
    p = points[safe].astype(np.float64)
    q = queries.astype(np.float64)[:, None, :]
    true_d = ((p - q) ** 2).sum(axis=2)
    scale = (p * p).sum(axis=2) + (q * q).sum(axis=2)
    bad |= ~(np.abs(dists - true_d) <= 1e-4 * scale + 1e-9).all(axis=1)
    return bad


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Ledger:
    """Ops attempted and failed, with a line per failure kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ops(self, n: int, n_bad: int = 0, what: str = "") -> None:
        self.attempted += int(n)
        self.failed += int(n_bad)
        if n_bad:
            self.problems.append(f"{what}: {n_bad} of {n} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def check_call(self, fn, what: str) -> None:
        """Count ``fn()``, a check that raises when it fails."""
        try:
            fn()
        except Exception as err:  # noqa: BLE001 - a failed check
            self.check(False, f"{what} ({err})")
        else:
            self.check(True, what)


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Pass:
    """What one measured pass reports back to the runner.

    ``times`` holds the host seconds of its timed parts, scaled by the
    host clock (see :meth:`Workload.timed`), and ``counts`` the work
    they did.
    """

    times: Dict[str, float]
    counts: Dict[str, float]

    def rate(self, count: str, seconds: str) -> float:
        return self.counts[count] / self.times[seconds]


class Workload:
    """Shared plumbing: seed, sizes, ledger, optional tracer."""

    name = ""
    n_setups = 3

    def __init__(self, seed: int, sizes: dict, ledger: Ledger):
        self.seed = seed
        self.sizes = sizes
        self.ledger = ledger
        self.tracer = None
        #: ``worker.HostClock`` of an untraced run, else ``None``.
        self.clock = None
        self.dtypes: set = set()
        self.info: Dict[str, object] = {}
        #: Host seconds of the index build inside each set-up, already
        #: scaled by the runner's calibration.
        self.build_times: List[float] = []
        #: Brute-force answers, computed once after the first set-up.
        self.truth: Optional[np.ndarray] = None
        #: Quality figures read from the first pass (all passes agree).
        self.first: Dict[str, float] = {}
        self._setup_digest: Optional[str] = None
        self._pass_digest: Optional[str] = None

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and its host seconds, scaled by the
        calibration loop the clock runs right after it."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        if self.clock is not None:
            seconds *= self.clock.scale()
        return result, seconds

    def rate(self, passes: List[Pass], count: str, seconds: str) -> float:
        """Median over passes of ``count`` per scaled second."""
        return median(p.rate(count, seconds) for p in passes)

    def setup_build_rate(self, n_points: int) -> float:
        """Median over the set-ups' index builds of points per scaled
        second."""
        return median(n_points / seconds for seconds in self.build_times)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def same_setup(self, value: str) -> None:
        if self._setup_digest is None:
            self._setup_digest = value
        self.ledger.check(value == self._setup_digest,
                          "set-up is not deterministic")

    def same_pass(self, value: str) -> bool:
        first = self._pass_digest is None
        if first:
            self._pass_digest = value
        self.ledger.check(value == self._pass_digest,
                          "answer digest differs between passes")
        return first


# ----------------------------------------------------------------------
# search-batch
# ----------------------------------------------------------------------

class SearchBatch(Workload):
    """Offline exact search in the wide-batch regime."""

    name = "search-batch"

    def setup(self):
        n, m, d = (self.sizes[key] for key in ("points", "queries", "dims"))
        draw = mixture(self.rng(), n + m, d)
        start = time.perf_counter()
        index = GannsIndex.build(draw[:n])
        return {"index": index, "queries": draw[n:],
                "build_s": time.perf_counter() - start}

    def after_setup(self, state) -> None:
        index = state["index"]
        validate_graph(index.graph)
        self.same_setup(graph_digest(index.graph))
        if self.truth is None:
            self.truth = exact_topk(index.points, state["queries"])

    def run_pass(self, state) -> Pass:
        index, queries = state["index"], state["queries"]
        report, search_s = self.timed(index.search_report, queries, k=K,
                                      l_n=L_N)
        self.dtypes.add(str(report.dists.dtype))
        n_bad = int(bad_rows(report.ids, report.dists, index.points,
                             queries).sum())
        self.ledger.ops(len(queries), n_bad, "search answers")
        if self.same_pass(digest(report.ids, report.dists)):
            self.first["recall"] = recall_at_k(report.ids, self.truth)
        return Pass({"search": search_s},
                    {"queries": len(queries)})

    def summarize(self, state, setup_s: List[float],
                  passes: List[Pass]) -> Dict[str, float]:
        qps = self.rate(passes, "queries", "search")
        build = self.setup_build_rate(len(state["index"].points))
        return {"setup_s": median(setup_s),
                "recall_at_10": self.first["recall"],
                "search_qps": qps, "build_pts_s": build,
                "extra.search_qps": qps}


# ----------------------------------------------------------------------
# serve-cluster
# ----------------------------------------------------------------------

class ServeCluster(Workload):
    """Open-loop Poisson arrivals through a 2x2 cluster under
    replica-loss chaos, replayed on the simulated clock."""

    name = "serve-cluster"

    def setup(self):
        s = self.sizes
        n, pool, d = s["points"], s["pool"], s["dims"]
        draw = mixture(self.rng(), n + pool, d)
        # Arrival times, hot-set picks and the fault schedule are part of
        # the workload, not of the seed: every seed replays the same
        # batching and chaos over its own corpus and queries, so the
        # number of kernel calls (which sets the replay's cost) does not
        # move with the seed.
        trace = synthetic_trace(draw[n:], s["requests"],
                                mean_qps=s["rate"], repeat_fraction=0.3,
                                seed=SCHEDULE_SEED)
        plan = named_fault_plan(
            "replica-loss", horizon_seconds=2.0 * s["requests"] / s["rate"],
            seed=SCHEDULE_SEED, n_workers=s["shards"] * s["replicas"])
        start = time.perf_counter()
        engine = ClusterEngine(
            draw[:n], n_shards=s["shards"], n_replicas=s["replicas"],
            params=SearchParams(k=K, l_n=L_N), d_min=16, d_max=32,
            policy=BatchPolicy(max_batch=64, max_wait_seconds=0.5e-3,
                               max_queue=4096),
            cache_capacity=2048, faults=plan, heal=HealPolicy())
        return {"engine": engine, "trace": trace,
                "build_s": time.perf_counter() - start}

    def after_setup(self, state) -> None:
        engine = state["engine"]
        for graph in engine.shard_graphs:
            validate_graph(graph)
        self.same_setup("".join(graph_digest(g)
                                for g in engine.shard_graphs))
        if self.truth is None:
            queries = np.concatenate([r.queries for r in state["trace"]])
            self.truth = exact_topk(engine.points, queries)

    def run_pass(self, state) -> Pass:
        engine, trace = state["engine"], state["trace"]
        report, replay_s = self.timed(engine.replay, trace)
        self.ledger.check_call(report.verify_against_metrics,
                               "report does not reconcile with its metrics")
        served = [o for o in report.outcomes if o.complete]
        n_bad = len(report.outcomes) - len(served)
        if served:
            self.dtypes.add(str(served[0].dists.dtype))
            rows = [o.request_id for o in served]
            n_bad += int(bad_rows(
                np.concatenate([o.ids for o in served]),
                np.concatenate([o.dists for o in served]), engine.points,
                np.concatenate([trace[r].queries for r in rows])).sum())
        self.ledger.ops(len(trace), n_bad, "cluster requests")
        if self.same_pass(report.digest()):
            self._first_pass(state, report, served)
        return Pass({"replay": replay_s},
                    {"requests": len(trace)})

    def _first_pass(self, state, report, served) -> None:
        engine, trace = state["engine"], state["trace"]
        answered = np.concatenate([o.ids for o in served])
        truth = self.truth[[o.request_id for o in served]]
        self.first.update(recall=recall_at_k(answered, truth),
                          sim_p50_ms=report.p50_latency * 1e3,
                          sim_p99_ms=report.p99_latency * 1e3)
        self.info.update(failovers=report.n_failovers,
                         repairs=f"{report.n_repairs_healed}/"
                                 f"{report.n_repairs} healed",
                         partial=report.n_partial, failed=report.n_failed)
        # Complete answers must equal a direct per-shard search merged
        # by merge_topk.
        sample = served[:self.sizes["direct_sample"]]
        queries = np.concatenate([trace[o.request_id].queries
                                  for o in sample])
        shard_ids, shard_dists = [], []
        for shard, (graph, points) in enumerate(
                zip(engine.shard_graphs, engine.shard_points)):
            direct = ganns_search(graph, points, queries, engine.params)
            shard_ids.append(engine.shard_map.to_global(shard, direct.ids))
            shard_dists.append(direct.dists)
        ids, dists = merge_topk(K, shard_ids, shard_dists)
        for row, outcome in enumerate(sample):
            self.ledger.check(
                np.array_equal(ids[row], outcome.ids[0])
                and np.array_equal(dists[row], outcome.dists[0]),
                "cluster answer differs from direct shard search + merge")

    def summarize(self, state, setup_s, passes) -> Dict[str, float]:
        rps = self.rate(passes, "requests", "replay")
        build = self.setup_build_rate(len(state["engine"].points))
        return {"setup_s": median(setup_s),
                "recall_at_10": self.first["recall"],
                "search_qps": rps, "build_pts_s": build,
                "extra.replay_rps": rps,
                "extra.sim_p50_ms": self.first["sim_p50_ms"],
                "extra.sim_p99_ms": self.first["sim_p99_ms"]}


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

class Build(Workload):
    """Construction only: GGraphCon NSW, then CAGRA."""

    name = "build"
    #: Set-up is data generation only (milliseconds), so more set-ups
    #: steady the ``setup_s`` median at no real cost.
    n_setups = 9

    def setup(self):
        n, n_cagra, m, d = (self.sizes[key] for key in
                            ("points", "cagra_points", "queries", "dims"))
        draw = mixture(self.rng(), n + m, d)
        # CAGRA gets its own draw in the package's 32-cluster shape: on
        # it the reachability defect shows (see NOTES.md), so it is
        # measured, not hidden.
        clustered = mixture(self.rng(1), n_cagra + m, d, n_clusters=32,
                            cluster_std=0.15)
        return {"points": draw[:n], "queries": draw[n:],
                "cagra_points": clustered[:n_cagra],
                "cagra_queries": clustered[n_cagra:]}

    def after_setup(self, state) -> None:
        self.same_setup(digest(state["points"], state["cagra_points"]))
        if self.truth is None:
            self.truth = exact_topk(state["points"], state["queries"])
            self.cagra_truth = exact_topk(state["cagra_points"],
                                          state["cagra_queries"])

    def run_pass(self, state) -> Pass:
        points, queries = state["points"], state["queries"]
        n_cagra = len(state["cagra_points"])
        nsw, nsw_s = self.timed(GannsIndex.build, points)
        cagra, cagra_s = self.timed(GannsIndex.build, state["cagra_points"],
                                    graph_type="cagra", graph_degree=16,
                                    knn_iterations=4)
        self.ledger.ops(2)
        for index in (nsw, cagra):
            self.ledger.check_call(lambda: validate_graph(index.graph),
                                   "graph fails validate_graph")
        degree = min(16, n_cagra - 1)
        self.ledger.check(bool((cagra.graph.degrees == degree).all()),
                          "CAGRA out-degree is not regular")

        # The search is short, so it runs five times and the median
        # counts; every repeat must give the same answer.
        searches = [self.timed(nsw.search_report, queries, k=K, l_n=L_N)
                    for _ in range(5)]
        nsw_report = searches[0][0]
        search_s = median(seconds for _, seconds in searches)
        self.ledger.check(
            all(np.array_equal(r.ids, nsw_report.ids) for r, _ in searches),
            "repeated NSW searches disagree")
        # Untimed: how far a CAGRA search gets depends on the graph's
        # reachability defect, which varies with the seed.
        cagra_queries = state["cagra_queries"]
        cagra_report = cagra.search_report(cagra_queries, k=K, l_n=L_N)
        self.dtypes.add(str(nsw_report.dists.dtype))
        n_bad = int(bad_rows(nsw_report.ids, nsw_report.dists, nsw.points,
                             queries).sum())
        n_bad += int(bad_rows(cagra_report.ids, cagra_report.dists,
                              cagra.points, cagra_queries).sum())
        self.ledger.ops(2 * len(queries), n_bad, "recall-search answers")
        if self.same_pass(graph_digest(nsw.graph)
                          + graph_digest(cagra.graph)):
            self.first["recall"] = recall_at_k(nsw_report.ids, self.truth)
            self.first["cagra_recall"] = recall_at_k(cagra_report.ids,
                                                self.cagra_truth)
            reached = reachable_fraction(cagra.graph, 0) * n_cagra
            self.info["cagra_reachable_from_0"] = (
                f"{round(reached)}/{n_cagra}")
        return Pass({"nsw": nsw_s, "cagra": cagra_s, "build": nsw_s + cagra_s,
                     "search": search_s},
                    {"nsw": len(points), "cagra": n_cagra,
                     "built": len(points) + n_cagra,
                     "queries": len(queries)})

    def summarize(self, state, setup_s, passes) -> Dict[str, float]:
        return {"setup_s": median(setup_s),
                "recall_at_10": self.first["recall"],
                "search_qps": self.rate(passes, "queries", "search"),
                "build_pts_s": self.rate(passes, "built", "build"),
                "extra.nsw_build_pts_s": self.rate(passes, "nsw", "nsw"),
                "extra.cagra_build_pts_s": self.rate(passes, "cagra",
                                                     "cagra"),
                "extra.cagra_recall_at_10": self.first["cagra_recall"]}


# ----------------------------------------------------------------------
# mutate-mixed
# ----------------------------------------------------------------------

class MutateMixed(Workload):
    """Inserts, deletes, searches, compactions and checkpoints on one
    mutable index, ending with a WAL tail and a recovery."""

    name = "mutate-mixed"

    def setup(self):
        s = self.sizes
        n, d = s["points"], s["dims"]
        n_stream = s["ops"] * s["insert_batch"]
        draw = mixture(self.rng(), n + n_stream + s["pool"] + s["eval"], d)
        start = time.perf_counter()
        index = MutableIndex.build(draw[:n], BuildParams(d_min=8, d_max=16))
        build_s = time.perf_counter() - start
        rest = draw[n:].astype(index.points.dtype)
        return {"index": index, "build_s": build_s,
                "stream": rest[:n_stream],
                "pool": rest[n_stream:n_stream + s["pool"]],
                "eval": rest[n_stream + s["pool"]:]}

    def after_setup(self, state) -> None:
        self.same_setup(state["index"].digest())

    def schedule(self) -> List[str]:
        """The op kinds of a pass.  Fixed: with a seed-drawn mix the
        share of cheap deletes, and with it ``write_pts_s``, moved by
        ~20% between seeds."""
        s = self.sizes
        rng = np.random.default_rng(SCHEDULE_SEED)
        kinds = []
        for op in range(1, s["ops"] + 1):
            if op % s["checkpoint_every"] == 0:
                kinds.append("checkpoint")
            elif op % s["compact_every"] == 0:
                kinds.append("compact")
            else:
                draw = rng.random()
                kinds.append("insert" if draw < 0.25
                             else "delete" if draw < 0.35 else "search")
        return kinds

    def run_pass(self, state) -> Pass:
        s = self.sizes
        index = copy.deepcopy(state["index"])
        rng = self.rng(2)
        params = SearchParams(k=K, l_n=L_N)
        kinds = ("insert", "delete", "search", "compact", "checkpoint")
        busy = dict.fromkeys(kinds, 0.0)
        chunk = dict.fromkeys(kinds, 0.0)
        written = searched = inserted = 0
        for op, kind in enumerate(self.schedule(), start=1):
            if self.tracer:
                self.tracer.op += 1
            ok = True
            start = time.perf_counter()
            try:
                with self.span(f"mutable.index.{kind}"):
                    if kind == "insert":
                        batch = state["stream"][
                            inserted:inserted + s["insert_batch"]]
                        index.insert(batch)
                        inserted += len(batch)
                        written += len(batch)
                    elif kind == "delete":
                        victims = rng.choice(index.live_ids(),
                                             s["delete_batch"],
                                             replace=False)
                        written += index.delete(victims)
                    elif kind == "search":
                        queries = state["pool"][rng.integers(
                            0, len(state["pool"]), s["search_batch"])]
                        ids, dists = index.search(queries, params)
                        searched += len(queries)
                    elif kind == "compact":
                        index.compact()
                    else:
                        index.checkpoint()
            except Exception as err:  # noqa: BLE001 - a failed op
                ok = False
                self.ledger.problems.append(f"{kind}: {err!r}")
            chunk[kind] += time.perf_counter() - start
            # Ops are too short to calibrate one by one; every
            # CALIBRATE_EVERY ops share the loop run after them.
            if op % CALIBRATE_EVERY == 0 or op == s["ops"]:
                scale = self.clock.scale() if self.clock else 1.0
                for name in kinds:
                    busy[name] += chunk[name] * scale
                    chunk[name] = 0.0
            if ok and kind == "search":
                self.dtypes.add(str(dists.dtype))
                ok = not bad_rows(ids, dists, index.points, queries,
                                  dead=index.tombstones).any()
            self.ledger.ops(1, 0 if ok else 1, f"mutate {kind}")

        with self.span("mutable.recovery"):
            recovered, recover_s = self.timed(recover, index.store)
        self.ledger.check(recovered.digest() == index.digest(),
                          "recover(store) digest differs from the index")
        self.ledger.check_call(index.validate,
                               "mutable index fails validation")
        if self.tracer:
            self.tracer.counts["mutable.recovery.replayed"] += (
                recovered.last_recovery["n_replayed"])
            self.tracer.counts["mutable.wal.checkpoint_bytes"] = len(
                index.store.checkpoint or b"")
        if self.same_pass(index.digest()):
            live = index.live_ids()
            ids, _ = index.search(state["eval"], params)
            truth = live[exact_topk(index.points[live], state["eval"])]
            self.first["recall"] = recall_at_k(ids, truth)
            self.info["wal_tail_records"] = len(
                index.store.surviving_records())
        busy["write"] = (busy["insert"] + busy["delete"] + busy["compact"]
                         + busy["checkpoint"])
        busy["recover"] = recover_s
        return Pass(busy, {"written": written, "queries": searched})

    def summarize(self, state, setup_s, passes) -> Dict[str, float]:
        write = self.rate(passes, "written", "write")
        read = self.rate(passes, "queries", "search")
        return {"setup_s": median(setup_s),
                "recall_at_10": self.first["recall"],
                "search_qps": read, "build_pts_s": write,
                "extra.write_pts_s": write, "extra.read_qps": read,
                "extra.recover_s": median(p.times["recover"]
                                          for p in passes)}


WORKLOADS = {cls.name: cls for cls in (SearchBatch, ServeCluster, Build,
                                       MutateMixed)}

#: Sizes for the measured runs (picked so a run, with its set-ups, ends
#: in about 20 s on a 2-core host) and for the self-test.
SIZES = {
    "full": {
        "search-batch": {"points": 2000, "queries": 1000, "dims": 128},
        "serve-cluster": {"points": 2000, "pool": 2000, "dims": 128,
                          "requests": 400, "rate": 20_000.0, "shards": 2,
                          "replicas": 2, "direct_sample": 32},
        "build": {"points": 2000, "cagra_points": 1000, "queries": 600,
                  "dims": 64},
        "mutate-mixed": {"points": 2000, "dims": 64, "ops": 110,
                         "insert_batch": 32, "delete_batch": 16,
                         "search_batch": 16, "checkpoint_every": 50,
                         "compact_every": 25, "pool": 500, "eval": 1000},
    },
    "tiny": {
        "search-batch": {"points": 300, "queries": 64, "dims": 16},
        "serve-cluster": {"points": 400, "pool": 200, "dims": 16,
                          "requests": 60, "rate": 20_000.0, "shards": 2,
                          "replicas": 2, "direct_sample": 8},
        "build": {"points": 300, "cagra_points": 100, "queries": 32,
                  "dims": 16},
        "mutate-mixed": {"points": 200, "dims": 16, "ops": 26,
                         "insert_batch": 8, "delete_batch": 4,
                         "search_batch": 4, "checkpoint_every": 12,
                         "compact_every": 5, "pool": 50, "eval": 32},
    },
}
