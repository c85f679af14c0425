"""Shared result records and error types for the exact solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

PROOF_SEARCH = "exhaustive-search"
PROOF_F3 = "f3-reduction"
PROOF_CLOSED = "closed-form"
PROOF_TABLE = "table"


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or wall-clock budget.

    Always raised instead of returning a possibly wrong verdict.
    """

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


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
