"""One pass over a workload, in a fresh interpreter started by run.py.

Builds the seeded calls, runs them back to back with one worker, then
checks every answer outside the timed region and prints one JSON object.
With --setup-only it stops after the set-up, which is what setup_s times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

REDUCTION = "pm_ramsey.exact_pm_ramsey"


def _cpu_s() -> float:
    """CPU seconds of this process plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak_kb / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before the spawn")
    ap.add_argument("--src", required=True, help="the src directory the library must come from")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_FILE", help="trace the pass, write spans here")
    ap.add_argument("--quick", action="store_true", help="the tiny self-check batch")
    ap.add_argument("--corrupt", action="store_true", help="shift one pinned value by one")
    args = ap.parse_args()

    import ramsey_pm
    from ramsey_pm.pm_ramsey import clear_core_cache
    import workloads

    if Path(ramsey_pm.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"ramsey_pm imported from {ramsey_pm.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    calls = workloads.build(args.workload, args.seed, args.quick, args.corrupt)
    funcs = []
    for call in calls:
        mod_name, attr = call.func.split(".")
        funcs.append(getattr(importlib.import_module(f"ramsey_pm.{mod_name}"), attr))
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        funcs = [tracer.top(fn) for fn in funcs]

    answers, call_ms = [], []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for call, fn in zip(calls, funcs):
        if call.fresh_core:
            clear_core_cache()
        start = time.perf_counter()
        try:
            answers.append(fn(*call.args))
        except Exception as err:  # a failed call is counted, never retried
            answers.append(err)
        call_ms.append(1000 * (time.perf_counter() - start))
    solve_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    # the gate: outside the timed region
    failures = []
    stats_nodes = 0  # cover nodes that exact_pm_ramsey reports in its stats
    for call, answer in zip(calls, answers):
        if isinstance(answer, Exception):
            failures.append(f"{call.label}: raised {type(answer).__name__}: {answer}")
            continue
        try:
            call.check(answer, call.expect, call.args)
        except Exception as err:  # a GateError, or an answer too malformed to check
            failures.append(f"{call.label}: {type(err).__name__}: {err} "
                            f"(expected value from {call.source})")
        if call.func == REDUCTION:
            stats_nodes += getattr(getattr(answer, "stats", None), "nodes", 0)

    out = {"setup_s": setup_s, "solve_s": solve_s, "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb, "call_ms": call_ms, "calls": [c.label for c in calls],
           "attempted": len(calls), "failed": len(failures), "failures": failures,
           "stats_nodes": stats_nodes}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        # instance i is the i-th top-level call, counted from 1
        out["traced_reduction_nodes"] = tracer.cover_nodes(
            {i for i, call in enumerate(calls, 1) if call.func == REDUCTION})
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
