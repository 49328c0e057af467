#!/usr/bin/env python
"""CI gate over a ``bench_wallclock.py`` JSON document.

Asserts that (a) every exact workload agreed — search rows returned
the neighbor ids of their oracle ``ganns_search_reference`` (the serve
replay row: of a second replay), construction rows built one graph
digest twice — and (b) the smoke workload's speedup of
``ganns_search`` over its oracle clears the floor (default 1.5x, per
the perf-regression contract in ``docs/performance.md``).  Quantized
workloads are lossy by design and have their own gate
(``scripts/check_quant_smoke.py``); here they only need their
``deterministic`` flag set.  Exits non-zero with a diagnostic
otherwise.

    python benchmarks/bench_wallclock.py --quick --output wallclock.json
    python scripts/check_perf_smoke.py wallclock.json
"""

from __future__ import annotations

import argparse
import json
import sys

EXPECTED_SCHEMA = "repro.bench_wallclock/v2"


def _agreement(workload):
    """The workload's exactness flag, or None when not applicable."""
    if workload["kind"] == "quant_search":
        return workload["deterministic"]
    if "ids_match" in workload:
        return workload["ids_match"]
    if "digest_match" in workload:
        return workload["digest_match"]
    return None


def check(path, min_speedup):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != EXPECTED_SCHEMA:
        return f"unexpected schema {doc.get('schema')!r} in {path}"
    workloads = {w["name"]: w for w in doc.get("workloads", [])}
    if "smoke" not in workloads:
        return f"no 'smoke' workload in {path}"
    drifted = [name for name, w in workloads.items()
               if _agreement(w) is False]
    if drifted:
        return ("workloads failed their agreement check: "
                + ", ".join(drifted))
    smoke = workloads["smoke"]
    if smoke["speedup"] < min_speedup:
        return (f"smoke speedup {smoke['speedup']:.2f}x is below the "
                f"{min_speedup:.2f}x floor (reference "
                f"{smoke['reference_seconds']:.2f}s, fast "
                f"{smoke['fast_seconds']:.2f}s)")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="bench_wallclock.py JSON output")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="smoke-workload speedup floor (default 1.5)")
    args = parser.parse_args(argv)

    problem = check(args.report, args.min_speedup)
    if problem:
        print(f"perf smoke FAILED: {problem}", file=sys.stderr)
        return 1
    with open(args.report) as handle:
        doc = json.load(handle)
    for w in doc["workloads"]:
        speedup = w.get("speedup")
        shown = "-" if speedup is None else f"{speedup:.2f}x"
        print(f"perf smoke ok: {w['name']} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
