"""Fast self-test of the benchmark itself, at tiny sizes.

Run with ``python3 perfbench/run.py --self-test`` (the launcher sets the
environment).  Checks that:

- every workload prints every metric of ``BENCHMARK.json`` with its
  unit, untraced and traced, and passes its own checks;
- in a traced run, every layer listed as running on a workload reads
  more than 0 there, and a trace point the package no longer has is
  counted as a failed op;
- a corrupted answer (a tombstoned id injected into a mutable-index
  search) is counted as a failed op;
- repeated cluster replays in one run report the same cache hit ratio,
  so no replay is inflated by a cache warmed by the one before.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import tracing
import worker
from workloads import SIZES, WORKLOADS, Ledger, MutateMixed, ServeCluster

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metrics() -> None:
    for trace in (0, 1):
        specs = worker.metric_specs(bool(trace))
        for name in WORKLOADS:
            args = argparse.Namespace(workload=name, seed=3, seconds=0.5,
                                      trace=trace, scale="tiny")
            result = worker.run(args)
            printed = {key: entry["unit"]
                       for key, entry in result["metrics"].items()}
            expect(printed == specs,
                   f"{name} trace={trace}: every metric with its unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{name} trace={trace}: all ops pass their checks")
            if trace:
                idle = [metric for metric in tracing.ACTIVE_LAYERS[name]
                        if not result["metrics"][metric]["value"] > 0]
                expect(not idle,
                       f"{name}: every layer it runs reads > 0 {idle}")


def check_missing_trace_point_counted() -> None:
    tracer = tracing.Tracer()
    gone = (("repro.perf.engine:no_such_entry_point", "gone", None),)
    with tracer.active(tracing.PATCHES + gone):
        pass  # nothing runs, so every layer reads 0 as well
    ledger = Ledger()
    tracing.check_layers(tracer, tracing.layer_metrics(tracer),
                         "search-batch", ledger)
    expected = 1 + len(tracing.ACTIVE_LAYERS["search-batch"])
    expect(ledger.failed == expected,
           f"a missing trace point and {expected - 1} idle layers counted "
           f"as {ledger.failed} failed ops")


def check_corruption_counted() -> None:
    from repro.mutable.index import MutableIndex

    original = MutableIndex.search
    injected = []

    def corrupt(self, queries, params):
        ids, dists = original(self, queries, params)
        dead = np.flatnonzero(self.tombstones)
        if len(dead):
            # A tombstoned id with its true distance, in sorted place:
            # only the tombstone check can catch it.
            ids, dists = ids.copy(), dists.copy()
            ids[0, -1] = dead[0]
            dists[0, -1] = ((self.points[dead[0]] - queries[0]) ** 2).sum()
            order = np.argsort(dists[0], kind="stable")
            ids[0], dists[0] = ids[0, order], dists[0, order]
            injected.append(int(dead[0]))
        return ids, dists

    ledger = Ledger()
    workload = MutateMixed(5, SIZES["tiny"]["mutate-mixed"], ledger)
    state = workload.setup()
    workload.after_setup(state)
    MutableIndex.search = corrupt
    try:
        workload.run_pass(state)
    finally:
        MutableIndex.search = original
    # The last injection lands in the end-of-pass recall search, which
    # is not a scheduled op; every other one must count as failed.
    expect(ledger.failed == len(injected) - 1 > 0,
           f"{len(injected) - 1} injected tombstoned ids counted as "
           f"{ledger.failed} failed ops")


def check_cache_ratio_repeats() -> None:
    workload = ServeCluster(7, SIZES["tiny"]["serve-cluster"], Ledger())
    state = workload.setup()
    workload.after_setup(state)
    ratios = []
    for _ in range(3):
        tracer = tracing.Tracer()
        with tracer.active(tracing.PATCHES):
            workload.run_pass(state)
        ratios.append(tracing.layer_metrics(tracer)["serve.cache.hit_ratio"])
    expect(ratios[0] > 0 and len(set(ratios)) == 1,
           f"cluster replays report one cache hit ratio {ratios}")


def main() -> int:
    check_corruption_counted()
    check_missing_trace_point_counted()
    check_cache_ratio_repeats()
    check_metrics()
    if FAILURES:
        print(f"selftest: {len(FAILURES)} failed")
        return 1
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
