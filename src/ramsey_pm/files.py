"""Text and JSON formats, plus the on-disk result cache.

All file formats are 1-indexed (vertices and colors); the library is
0-indexed internally.

Coloring text: line 1 is "n r"; line i+1 (1 <= i <= n-1) holds the colors
of edges (i, i+1), ..., (i, n), space separated.

Graph text: line 1 is "n"; each further line is one edge "u v".

Cover JSON: {"n": ..., "capacities": [...], "blocks": [[v, ...], ...]}.

Result JSON: {"targets": [...], "value": ..., "method": ...,
              "witness": {...} | null, "stats": {"nodes": ..., "millis": ...}}.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import tempfile
import time
from itertools import islice
from typing import Optional

from .bounds import sorted_targets
from .coloring import EdgeColoring
from .core_ramsey import BlockCover
from .graphs import SimpleGraph, bits, mask_of
from .results import RamseyResult


def _coloring_rows(c: EdgeColoring) -> list[list[int]]:
    """Row u lists the colors of the edges (u, u+1), ..., (u, n-1)."""
    colors = iter(c.colors)
    return [list(islice(colors, c.n - u - 1)) for u in range(c.n - 1)]


def _coloring_from_rows(n: int, r: int, rows) -> EdgeColoring:
    """The coloring of K_n from n - 1 rows laid out as by _coloring_rows."""
    if len(rows) != max(n - 1, 0):
        raise ValueError(f"expected {n - 1} rows of edge colors, got {len(rows)}")
    for u, row in enumerate(rows):
        if len(row) != n - u - 1:
            raise ValueError(f"row of vertex {u + 1}: expected {n - u - 1} colors")
    return EdgeColoring(n, r, tuple(int(x) for row in rows for x in row))


def coloring_to_text(c: EdgeColoring) -> str:
    lines = [f"{c.n} {c.r}"] + [" ".join(map(str, row)) for row in _coloring_rows(c)]
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> EdgeColoring:
    lines = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty coloring file")
    if len(lines[0]) != 2:
        raise ValueError("line 1: expected the header 'n r'")
    return _coloring_from_rows(int(lines[0][0]), int(lines[0][1]), lines[1:])


def graph_to_text(g: SimpleGraph) -> str:
    lines = [str(g.n)]
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> SimpleGraph:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty graph file")
    if len(rows[0]) != 1:
        raise ValueError("line 1: expected the header 'n'")
    n = int(rows[0][0])
    edges = []
    for i, line in enumerate(rows[1:], 2):
        if len(line) != 2:
            raise ValueError(f"line {i}: expected an edge 'u v'")
        edges.append((int(line[0]) - 1, int(line[1]) - 1))
    return SimpleGraph.from_edges(n, edges)


def cover_to_json(cover: BlockCover) -> dict:
    return {
        "n": cover.n,
        "capacities": list(cover.capacities),
        "blocks": [[v + 1 for v in bits(b)] for b in cover.blocks],
    }


def cover_from_json(obj: dict) -> BlockCover:
    blocks = tuple(mask_of(v - 1 for v in blk) for blk in obj["blocks"])
    return BlockCover(int(obj["n"]), tuple(int(c) for c in obj["capacities"]), blocks)


def coloring_to_json(c: EdgeColoring) -> dict:
    return {"type": "coloring", "n": c.n, "r": c.r, "rows": _coloring_rows(c)}


def coloring_from_json(obj: dict) -> EdgeColoring:
    return _coloring_from_rows(int(obj["n"]), int(obj["r"]), obj["rows"])


def witness_to_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    if isinstance(witness, BlockCover):
        out = cover_to_json(witness)
        out["type"] = "cover"
        return out
    if isinstance(witness, EdgeColoring):
        return coloring_to_json(witness)
    raise TypeError(f"unknown witness type {type(witness)!r}")


def witness_from_json(obj: Optional[dict]):
    if obj is None:
        return None
    if obj.get("type") == "cover":
        return cover_from_json(obj)
    if obj.get("type") == "coloring":
        return coloring_from_json(obj)
    raise ValueError("unknown witness type in JSON")


def result_to_json(res: RamseyResult) -> dict:
    return {
        "targets": list(res.targets),
        "value": res.value,
        "method": res.method,
        "witness": witness_to_json(res.lower_witness),
        "stats": {"nodes": res.stats.nodes, "millis": res.stats.millis},
    }


def cache_key(kind: str, targets) -> str:
    """Canonical cache keys: "PM:5,5,5", "1C:5,5,5"."""
    if kind in ("PM", "1C"):
        return f"{kind}:{','.join(str(t) for t in sorted_targets(targets))}"
    raise ValueError(f"unknown cache kind {kind!r}")


class ResultCache:
    """A single JSON document of computed values on one line, replaced atomically.

    Entries map the canonical key to {"value", "method", "witness",
    "created"}, the witness in the form of witness_to_json.
    A file that is not a JSON object is never overwritten: the cache warns
    on stderr, then neither answers nor records anything.  Each `put`
    holds an exclusive lock on the sidecar file `<path>.lock` while it
    re-reads the file, adds its entry and replaces the file, so entries
    that another process recorded since `load` are kept.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, dict] = {}
        self.load()

    def load(self) -> None:
        self.entries, self.writable = {}, True
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            try:
                entries = json.load(fh)
            except ValueError:  # malformed JSON or undecodable bytes
                entries = None
        if isinstance(entries, dict):
            self.entries = entries
        else:
            self.writable = False
            print(f"warning: cache file {self.path} is not a JSON object; "
                  "running uncached and leaving it untouched", file=sys.stderr)

    def get(self, key: str) -> Optional[dict]:
        return self.entries.get(key)

    def put(self, key: str, value: int, method: str, witness=None) -> None:
        if not self.writable:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            self.load()
            if not self.writable:
                return
            self.entries[key] = {
                "value": value,
                "method": method,
                "witness": witness_to_json(witness),
                "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ramsey-cache-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(self.entries, fh, separators=(",", ":"), sort_keys=True)
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise


def default_cache_path() -> str:
    env = os.environ.get("RAMSEY_PM_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "ramsey-pm", "results.json")
