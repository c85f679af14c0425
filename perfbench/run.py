"""Benchmark of the ramsey_pm library: seeded workloads, end-to-end and
per-layer metrics, and a correctness gate on every answer.

    python3 perfbench/run.py --workload reduction --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the library is imported from its src/.
Every pass runs in a fresh interpreter (perfbench/child.py).  Passes repeat
until the next one would end after --seconds; there are always at least
two untraced passes, or with --trace 1 one untraced and one traced pass.
The last line of standard output is the JSON result; the line before it
is the run record, which is also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).with_name("child.py")

MIN_PASSES = 2      # untraced passes in a run with --trace 0
SETUP_PROBES = 3    # set-up-only interpreters per run, on top of the passes
RUN_LIMIT_S = 170   # children still running this long after the start are killed
WORKLOADS = ("reduction", "paths")


class ChildError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run child.py once and return its JSON; ChildError if it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--src", str(SRC), *extra, "--spawned-at"]
    try:
        proc = subprocess.run(cmd + [repr(time.perf_counter())], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"pass of {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise ChildError(f"pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_id() -> dict:
    """The commit when the checkout is a git work tree, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """All passes of one run; (result line, run record)."""
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              **source_id(), "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_before": os.getloadavg()}
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    spawn(workload, seed, limit, "--setup-only")  # fills the bytecode cache; not timed
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        plain.append(spawn(workload, seed, limit))
        if trace:
            spans = OUT / f"spans-{workload}-s{seed}-{len(traced)}.json"
            traced.append(spawn(workload, seed, limit, "--trace", str(spans)))
        now = time.monotonic()
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and now + (now - round_start) > started + seconds:
            break
    setups = [p["setup_s"] for p in plain + traced]
    setups += [spawn(workload, seed, limit, "--setup-only")["setup_s"]
               for _ in range(SETUP_PROBES)]
    record["loadavg_after"] = os.getloadavg()

    passes = plain + traced
    failures = sorted({f for p in passes for f in p["failures"]})
    result = {"correct": not failures,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes)}
    med = statistics.median
    if trace:
        # counts repeat exactly from pass to pass; times are medians
        metrics = {name: (traced[0]["layers"][name] if unit == "count" else
                          med(p["layers"][name] for p in traced), unit)
                   for name, unit in LAYER_UNITS.items()}
        overhead = med(p["solve_s"] for p in traced) - med(p["solve_s"] for p in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "solve_s": (med(p["solve_s"] for p in plain), "s"),
            "cpu_s": (med(p["cpu_s"] for p in plain), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    call_ms = [ms for p in plain for ms in p["call_ms"]]
    record.update({
        "elapsed_s": time.monotonic() - started,
        "passes": len(plain), "traced_passes": len(traced),
        "calls": plain[0]["calls"],
        "call_ms_p50": percentile(call_ms, 50),
        "call_ms_p90": percentile(call_ms, 90),
        "pass_solve_s": [p["solve_s"] for p in plain],
        "pass_call_ms": [p["call_ms"] for p in plain],
        "traced_solve_s": [p["solve_s"] for p in traced],
        "setup_samples_s": setups,
        "failed_frac": result["failed"] / result["attempted"],
        "failures": failures,
    })
    return result, record


def self_check() -> int:
    """Tiny seeded batches that check the benchmark itself."""
    limit = time.monotonic() + 600
    OUT.mkdir(exist_ok=True)
    problems = []
    for workload in WORKLOADS:
        runs = [spawn(workload, 7, limit, "--quick", "--trace",
                      str(OUT / f"selfcheck-{workload}-{i}.json")) for i in range(2)]
        for p in runs:
            if p["failed"]:
                problems.append(f"{workload}: quick batch failed: {p['failures']}")
        counts = [{k: v for k, v in p["layers"].items() if LAYER_UNITS[k] == "count"}
                  for p in runs]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: per-layer counts differ between two traced runs "
                            f"of one seed: {counts}")
        if not spawn(workload, 7, limit, "--quick", "--corrupt")["failed"]:
            problems.append(f"{workload}: the gate accepted a wrong pinned value")
        if workload == "reduction":
            traced, stats = runs[0]["traced_reduction_nodes"], runs[0]["stats_nodes"]
            if not traced or traced != stats:
                problems.append(f"reduction: traced cover nodes under exact_pm_ramsey "
                                f"{traced} != RamseyResult.stats.nodes sum {stats}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    # a terminated run still kills and waits for its current pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ramsey_pm" / "__init__.py").is_file():
        print(f"no ramsey_pm package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1
    name = f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
