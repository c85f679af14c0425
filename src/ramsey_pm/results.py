"""Shared result records, error types and search meter of the exact solvers."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

PROOF_SEARCH = "exhaustive-search"
PROOF_F3 = "f3-reduction"
PROOF_CLOSED = "closed-form"
PROOF_TABLE = "table"

# nodes each search may visit unless told otherwise
DEFAULT_NODE_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or wall-clock budget.

    Always raised instead of returning a possibly wrong verdict.
    """

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


def check_budgets(node_budget: int, time_budget: Optional[float]) -> None:
    """Raise ValueError unless the node budget is positive and the time
    budget is None or positive."""
    if node_budget <= 0:
        raise ValueError("positive node budget required")
    if time_budget is not None and not time_budget > 0:
        raise ValueError("positive time budget required")


class SearchMeter:
    """The budget-and-progress policy of both complete searches.

    A search subclasses the meter, calls _tick(depth) once per node and
    counts its leaves in self.leaves.  Every node counts against the node
    budget.  While there is a time budget or a progress hook, the clock is
    read on every node, and the hook gets {nodes, leaves, elapsed,
    depth_histogram} at most once a second.  Running out of either budget
    raises BudgetExceededError; time runs from the meter's creation.

    Both searches recurse once per level, so the meter raises the
    interpreter's recursion limit, never lowering it, to fit its depths
    levels above the caller's frames plus 1000 frames for the calls a
    level makes (the minimality test and the augmenting paths, at most n
    deep; the cover search's candidate builder, one frame per class of
    blocks).  A sub-search's meter makes its own room above its parent's.
    """

    def __init__(self, what: str, depths: int, node_budget: int,
                 time_budget: Optional[float],
                 progress: Optional[Callable[[dict], None]]):
        self.what = what
        self.node_budget = node_budget
        self.progress = progress
        self.nodes = 0
        self.leaves = 0
        self.depth_hist = [0] * depths
        self.clocked = time_budget is not None or progress is not None
        self.started = time.monotonic()
        self.deadline = self.started + time_budget if time_budget is not None else None
        self.next_report = self.started + 1.0
        frame, below = sys._getframe(), 0
        while frame is not None:
            frame, below = frame.f_back, below + 1
        if sys.getrecursionlimit() < below + depths + 1000:
            sys.setrecursionlimit(below + depths + 1000)

    def _tick(self, depth: int) -> None:
        self.nodes += 1
        self.depth_hist[depth] += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(
                f"{self.what} exceeded {self.node_budget} nodes", self.nodes)
        if not self.clocked:
            return
        now = time.monotonic()
        if self.deadline is not None and now > self.deadline:
            raise BudgetExceededError(f"{self.what} hit its time budget", self.nodes)
        if self.progress is not None and now >= self.next_report:
            self.next_report = now + 1.0
            self.progress({
                "nodes": self.nodes,
                "leaves": self.leaves,
                "elapsed": now - self.started,
                "depth_histogram": list(self.depth_hist),
            })


class RouteDisagreementError(RuntimeError):
    """Two completed computation routes returned different values.

    By the reduction identity this can only happen on a bug, so both
    sides are carried along for diagnosis.
    """

    def __init__(self, message: str, details: Optional[dict] = None):
        super().__init__(message)
        self.details = details or {}


class FormulaUnavailableError(ValueError):
    """No proven closed form covers the requested targets."""


@dataclass
class SearchStats:
    nodes: int = 0
    millis: int = 0


@dataclass
class RamseyResult:
    """A computed Ramsey value with its lower witness and upper provenance.

    lower_witness is an EdgeColoring or BlockCover on value-1 vertices
    showing the value cannot be smaller; method tags how the upper side
    was established.
    """

    targets: tuple[int, ...]
    value: int
    method: str
    lower_witness: Any = None
    stats: SearchStats = field(default_factory=SearchStats)
