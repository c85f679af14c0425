"""Spans around the module attributes through which the layers call each other.

`Tracer.install` replaces each boundary attribute (a public function as a
caller module sees it) by a wrapper that records a span: name, start, end,
parent span and the instance id of the workload call it belongs to.  The
hot `pm_order_of_rows` boundary is only counted and timed per parent span.
Spans stay in memory until `dump`.  Nothing inside `ramsey_pm` changes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# (caller module, attribute) pairs replaced while tracing
BOUNDARIES = (
    ("core_ramsey", "cover_feasible_with_stats"),
    ("pm_ramsey", "core_value"),
    ("pm_ramsey", "exact_core_ramsey"),
    ("pm_ramsey", "find_lower_witness"),
    ("pm_ramsey", "enumerate_colorings"),
    ("pm_ramsey", "mono_pm_profile"),
)
HOT_BOUNDARIES = (("search", "pm_order_of_rows"), ("coloring", "pm_order_of_rows"))

COVER = "core_ramsey.cover_feasible_with_stats"
EXACT_CORE = "core_ramsey.exact_core_ramsey"
CORE_VALUE = "pm_ramsey.core_value"
ENUMERATE = "search.enumerate_colorings"

# every per-layer metric with its unit, in report order
LAYER_UNITS = {
    "core_ramsey.cover_calls": "count",
    "core_ramsey.cover_bound_settled": "count",
    "core_ramsey.nodes_feasible": "count",
    "core_ramsey.nodes_infeasible": "count",
    "core_ramsey.cover_s": "s",
    "core_ramsey.us_per_node": "us",
    "core_ramsey.exact_core_calls": "count",
    "core_ramsey.exact_core_s": "s",
    "pm_ramsey.core_value_calls": "count",
    "pm_ramsey.core_memo_hits": "count",
    "pm_ramsey.core_solves": "count",
    "pm_ramsey.witness_s": "s",
    "pm_ramsey.self_s": "s",
    "search.calls": "count",
    "search.nodes": "count",
    "search.leaves": "count",
    "search.s": "s",
    "search.self_s": "s",
    "search.us_per_node": "us",
    "path_matching.pm_order_calls": "count",
    "path_matching.pm_order_distinct_frac": "frac",
    "path_matching.pm_order_s": "s",
    "path_matching.deficiency_calls": "count",
    "path_matching.deficiency_s": "s",
    "path_matching.deficiency_ms.p50": "ms",
    "path_matching.deficiency_ms.p90": "ms",
    "path_matching.max_pm_order_s": "s",
    "coloring.profile_calls": "count",
    "coloring.profile_s": "s",
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) by linear interpolation."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _result_attrs(name: str, out) -> dict:
    if name == COVER:
        cover, nodes = out
        return {"nodes": nodes, "feasible": cover is not None}
    if name == ENUMERATE:
        return {"nodes": out.nodes, "leaves": out.leaves}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []       # ids of the open spans
        self.instance = 0                # index of the current workload call
        self.hot: dict[int, list] = defaultdict(lambda: [0, 0.0])  # parent id -> [calls, s]
        self.hot_inputs: set = set()
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording
    def _span(self, name: str, fn, top: bool = False):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if top:
                self.instance += 1
            span = {"id": len(self.spans) + 1, "name": name, "instance": self.instance,
                    "parent": self.stack[-1] if self.stack else 0}
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                self.stack.pop()
            span.update(_result_attrs(name, out))
            return out
        return wrapper

    def _hot(self, fn):
        clock = time.perf_counter
        hot, seen, stack = self.hot, self.hot_inputs, self.stack

        def wrapper(rows, n):
            seen.add((tuple(rows), n))
            start = clock()
            try:
                return fn(rows, n)
            finally:
                agg = hot[stack[-1] if stack else 0]
                agg[0] += 1
                agg[1] += clock() - start
        return wrapper

    @staticmethod
    def span_name(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def top(self, fn):
        """Wrap one of the workload's own top-level library calls."""
        return self._span(self.span_name(fn), fn, top=True)

    def install(self) -> None:
        for boundaries, hot in ((BOUNDARIES, False), (HOT_BOUNDARIES, True)):
            for mod_name, attr in boundaries:
                mod = importlib.import_module(f"ramsey_pm.{mod_name}")
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._hot(fn) if hot else self._span(self.span_name(fn), fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # ------------------------------------------------------------- analysis
    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus what child spans and hot calls cover."""
        own = {s["id"]: s["end"] - s["start"] - self.hot.get(s["id"], (0, 0.0))[1]
               for s in self.spans}
        for s in self.spans:
            if s["parent"]:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        by_name: dict[str, list[dict]] = defaultdict(list)
        for s in self.spans:
            by_name[s["name"]].append(s)
        own = self.self_times()

        def busy(name):
            return sum(s["end"] - s["start"] for s in by_name[name])

        def per_us(seconds, count):
            return seconds / count * 1e6 if count else 0.0

        cover = by_name[COVER]
        # a span whose call raised has no result attributes
        nodes_feasible = sum(s.get("nodes", 0) for s in cover if s.get("feasible"))
        nodes_infeasible = sum(s.get("nodes", 0) for s in cover if not s.get("feasible"))
        solved = {s["parent"] for s in by_name[EXACT_CORE]}
        enum = by_name[ENUMERATE]
        search_nodes = sum(s.get("nodes", 0) for s in enum)
        hot_calls = sum(calls for calls, _ in self.hot.values())
        deficiency_ms = [1000 * (s["end"] - s["start"])
                         for s in by_name["path_matching.deficiency"]]
        m = {
            "core_ramsey.cover_calls": len(cover),
            "core_ramsey.cover_bound_settled": sum(s.get("nodes") == 0 for s in cover),
            "core_ramsey.nodes_feasible": nodes_feasible,
            "core_ramsey.nodes_infeasible": nodes_infeasible,
            "core_ramsey.cover_s": busy(COVER),
            "core_ramsey.us_per_node": per_us(busy(COVER), nodes_feasible + nodes_infeasible),
            "core_ramsey.exact_core_calls": len(by_name[EXACT_CORE]),
            "core_ramsey.exact_core_s": busy(EXACT_CORE),
            "pm_ramsey.core_value_calls": len(by_name[CORE_VALUE]),
            "pm_ramsey.core_memo_hits": sum(s["id"] not in solved for s in by_name[CORE_VALUE]),
            "pm_ramsey.core_solves": sum(s["id"] in solved for s in by_name[CORE_VALUE]),
            "pm_ramsey.witness_s": busy("pm_ramsey.find_lower_witness"),
            "pm_ramsey.self_s": sum(own[s["id"]] for s in self.spans
                                    if s["name"].startswith("pm_ramsey.")),
            "search.calls": len(enum),
            "search.nodes": search_nodes,
            "search.leaves": sum(s.get("leaves", 0) for s in enum),
            "search.s": busy(ENUMERATE),
            "search.self_s": sum(own[s["id"]] for s in enum),
            "search.us_per_node": per_us(busy(ENUMERATE), search_nodes),
            "path_matching.pm_order_calls": hot_calls,
            "path_matching.pm_order_distinct_frac":
                len(self.hot_inputs) / hot_calls if hot_calls else 0.0,
            "path_matching.pm_order_s": sum(s for _, s in self.hot.values()),
            "path_matching.deficiency_calls": len(deficiency_ms),
            "path_matching.deficiency_s": busy("path_matching.deficiency"),
            "path_matching.deficiency_ms.p50": percentile(deficiency_ms, 50),
            "path_matching.deficiency_ms.p90": percentile(deficiency_ms, 90),
            "path_matching.max_pm_order_s": busy("path_matching.max_pm_order"),
            "coloring.profile_calls": len(by_name["coloring.mono_pm_profile"]),
            "coloring.profile_s": busy("coloring.mono_pm_profile"),
        }
        assert list(m) == list(LAYER_UNITS)
        return m

    def cover_nodes(self, instances: set[int]) -> int:
        """Cover-search nodes under the given top-level calls."""
        return sum(s.get("nodes", 0) for s in self.spans
                   if s["name"] == COVER and s["instance"] in instances)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "hot_pm_order_of_rows": {str(k): v for k, v in self.hot.items()}}, fh)
