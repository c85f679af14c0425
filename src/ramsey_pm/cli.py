"""Command-line front end.

Exit codes: 0 success (also after --help, and when the reader of the
output closes it early, as `| head` does), 1 usage error, 2 budget
exhaustion, 3 internal inconsistency (two routes disagreeing, or a witness
that does not re-validate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import files
from .bounds import core_bounds_report, pm_bounds_report, sorted_targets
from .coloring import EdgeColoring, mono_pm_profile
from .core_ramsey import BlockCover, exact_core_ramsey
from .path_matching import deficiency
from .pm_ramsey import _witness_valid, closed_form_value, exact_pm_ramsey
from .reproduce import render_report, run_report
from .results import (DEFAULT_NODE_BUDGET, BudgetExceededError, RamseyResult,
                      RouteDisagreementError)
from .graphs import bits

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3


def parse_targets(text: str) -> list[int]:
    """Comma-separated thresholds with p*r shorthand: "5,5,5" or "6*10"."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            base, times = (int(part) for part in chunk.split("*", 1))
            if times < 1:
                raise ValueError(f"repeat count must be at least 1 in {chunk!r}")
            out.extend([base] * times)
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError("no targets given")
    return out


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def _budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-budget", type=_positive(int), default=DEFAULT_NODE_BUDGET,
                   help="maximum nodes of each search before giving up")
    p.add_argument("--time-budget", type=_positive(float), default=None,
                   help="wall-clock budget of each search, in seconds")


def _print_progress(snapshot: dict) -> None:
    rate = snapshot["nodes"] / max(snapshot["elapsed"], 1e-9)
    hist = snapshot["depth_histogram"]
    deepest = max((d for d, c in enumerate(hist) if c), default=0)
    print(f"progress: {snapshot['nodes']} nodes ({rate:,.0f}/s), "
          f"{snapshot['leaves']} leaves, max depth {deepest}",
          file=sys.stderr)


def _describe(witness) -> str:
    if isinstance(witness, EdgeColoring):
        return f"coloring of K_{witness.n} with profile {mono_pm_profile(witness)}"
    return f"cover of K_{witness.n} with block sizes {witness.block_sizes()}"


def _result_text(res: RamseyResult) -> str:
    return "\n".join([f"targets: {','.join(str(t) for t in res.targets)}",
                      f"value: {res.value}",
                      f"method: {res.method}",
                      f"witness: {_describe(res.lower_witness)}",
                      f"stats: {res.stats.nodes} nodes, {res.stats.millis} ms"])


def _cached_result(entry, kind: str, targets: tuple[int, ...]) -> Optional[RamseyResult]:
    """The cache entry as a result, or None unless it parses, its value is
    a proven closed form or else lies within the proven bounds, and its
    witness, a coloring for `pm` and a cover for `core`, passes
    _witness_valid on value - 1 vertices."""
    try:
        value, method = int(entry["value"]), str(entry["method"])
        report = (pm_bounds_report if kind == "pm" else core_bounds_report)(targets)
        proven = closed_form_value(targets) if kind == "pm" else None
        low, high = (proven[0],) * 2 if proven else (report.best_lower(), report.best_upper())
        if not (low or value) <= value <= (high or value):  # None: no such bound
            return None
        witness = files.witness_from_json(entry["witness"])
        ok = (isinstance(witness, EdgeColoring if kind == "pm" else BlockCover)
              and _witness_valid(witness, value - 1, targets))
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return RamseyResult(targets, value, method, witness) if ok else None


def cmd_exact(args) -> int:
    if args.kind == "core" and args.strategy != "auto":
        raise ValueError("--strategy applies to `exact pm` only; "
                         "`exact core` has one route, the cover search")
    targets = sorted_targets(parse_targets(args.targets))
    cache = files.ResultCache(args.cache) if args.cache != "none" else None
    key = files.cache_key("PM" if args.kind == "pm" else "1C", targets)
    # a cached value may come from any route, so it answers only `auto`
    use_cache = cache is not None and not args.no_cache and args.strategy == "auto"
    res = _cached_result(cache.get(key), args.kind, targets) if use_cache else None
    cached = res is not None
    if not cached:
        kw = dict(node_budget=args.node_budget, time_budget=args.time_budget)
        if args.verbose:
            kw["progress"] = _print_progress
        if args.kind == "pm":
            res = exact_pm_ramsey(targets, strategy=args.strategy, **kw)
        else:
            res = exact_core_ramsey(targets, **kw)
        if cache is not None:
            cache.put(key, res.value, res.method, res.lower_witness)
    if args.json:
        print(json.dumps(dict(files.result_to_json(res), **({"cached": True} if cached else {}))))
    else:
        print(_result_text(res) + ("\ncached: true" if cached else ""))
    return EXIT_OK


def cmd_bounds(args) -> int:
    targets = sorted_targets(parse_targets(args.targets))
    pm = pm_bounds_report(targets)
    core = core_bounds_report(targets)
    if args.json:
        def dump(rep):
            return [{"name": e.name, "kind": e.kind, "value": e.value,
                     "condition_holds": e.condition_holds} for e in rep.entries]
        print(json.dumps({"targets": list(targets),
                          "PM": dump(pm), "1C": dump(core)}))
        return EXIT_OK
    for rep in (pm, core):
        print(f"{rep.quantity} bounds for {rep.targets}:")
        for e in rep.entries:
            cond = ""
            if e.condition_holds is not None:
                cond = "  (exact)" if e.condition_holds else "  (condition fails)"
            print(f"  {e.name:<22} {e.kind:<18} {e.value}{cond}")
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.n < 1:
        raise ValueError(f"need n >= 1, got {args.n}")
    pm = args.kind == "pm"
    res = (exact_pm_ramsey if pm else exact_core_ramsey)(
        parse_targets(args.targets), node_budget=args.node_budget, time_budget=args.time_budget)
    if args.n >= res.value:
        print(f"no {'bad coloring' if pm else 'cover'} of K_{args.n} exists: "
              f"the value is {res.value}", file=sys.stderr)
        return EXIT_USAGE
    # the value's witness on K_{value-1}, cut to its first n vertices
    cut = res.lower_witness.restrict(args.n)
    if not _witness_valid(cut, args.n, res.targets):
        raise RouteDisagreementError(
            f"the witness of value {res.value} does not re-validate on its first {args.n} vertices",
            {"targets": res.targets, "value": res.value, "n": args.n})
    payload = (files.coloring_to_text(cut) if pm
               else json.dumps(files.cover_to_json(cut), indent=1) + "\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"{_describe(cut)} -> {args.output}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_deficiency(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        g = files.graph_from_text(fh.read())
    pd, cert = deficiency(g)
    if args.json:
        print(json.dumps({
            "n": g.n,
            "deficiency": pd,
            "max_path_matching_order": g.n - pd,
            "lv_set": [v + 1 for v in bits(cert.lv_set)],
            "isolated_witness": [v + 1 for v in bits(cert.isolated_witness)],
        }))
    else:
        print(f"deficiency: {pd}")
        print(f"max path-matching order: {g.n - pd}")
        print(f"LV set (1-indexed): {[v + 1 for v in bits(cert.lv_set)]}")
        print(f"isolated after removal: {[v + 1 for v in bits(cert.isolated_witness)]}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows = run_report(only=args.only)
    if args.json:
        print(json.dumps([{
            "name": r.name, "expected": r.expected, "computed": r.computed,
            "passed": r.passed, "millis": r.millis,
        } for r in rows]))
    else:
        print(render_report(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ramsey-pm",
                                description="Exact Ramsey numbers of path-matchings and 1-cores")
    sub = p.add_subparsers(dest="command", required=True)

    px = sub.add_parser("exact", help="compute an exact Ramsey value")
    px.add_argument("kind", choices=["pm", "core"])
    px.add_argument("--targets", required=True,
                    help="thresholds, e.g. 5,5,5 or 6*10")
    px.add_argument("--strategy", default="auto",
                    choices=["auto", "search", "reduction", "formula"],
                    help="route of `exact pm`; `exact core` takes only auto")
    px.add_argument("--cache", default=files.default_cache_path(),
                    help="cache file path, or 'none'")
    px.add_argument("--no-cache", action="store_true",
                    help="ignore cached values but still record the result")
    px.add_argument("--json", action="store_true")
    px.add_argument("--verbose", action="store_true",
                    help="report search progress (nodes/sec, depth histogram)")
    _budget_args(px)
    px.set_defaults(fn=cmd_exact)

    pb = sub.add_parser("bounds", help="closed-form bounds for a target vector")
    pb.add_argument("--targets", required=True)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(fn=cmd_bounds)

    pw = sub.add_parser("witness", help="produce a lower-bound witness")
    pw.add_argument("kind", choices=["pm", "core"])
    pw.add_argument("--targets", required=True)
    pw.add_argument("-n", type=int, required=True,
                    help="vertex count of the witness, below the value")
    pw.add_argument("-o", "--output", default=None)
    _budget_args(pw)
    pw.set_defaults(fn=cmd_witness)

    pd = sub.add_parser("deficiency", help="path-matching deficiency of a graph file")
    pd.add_argument("graph")
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(fn=cmd_deficiency)

    pr = sub.add_parser("reproduce", help="recompute and check the published values")
    pr.add_argument("--json", action="store_true")
    pr.add_argument("--only", default=None, help="regex filter on row names")
    pr.set_defaults(fn=cmd_reproduce)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed output pipe shows here, not at exit
        return code
    except SystemExit as done:  # argparse: 0 after --help, 2 after a usage error
        return EXIT_OK if done.code == 0 else EXIT_USAGE
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        return EXIT_OK
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except RouteDisagreementError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        print(json.dumps(err.details, default=str), file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
