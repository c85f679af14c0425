"""The reproduction report: every published value recomputed and checked.

Each row recomputes one exact value, bound, or witness validation and
compares it against the stated expectation.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .bounds import pm_all3, pm_lowers, pm_upper
from .coloring import layered_coloring, mono_pm_profile
from .core_ramsey import covering_number, exact_core_ramsey
from .pm_ramsey import _witness_valid, exact_pm_ramsey, find_lower_witness, verify_upper
from .results import BudgetExceededError


@dataclass
class ReportRow:
    name: str
    expected: str
    computed: str
    passed: bool
    millis: int


def _pm_value(targets, strategy="auto"):
    return exact_pm_ramsey(targets, strategy=strategy).value


def _check_rows() -> list[tuple[str, str, Callable[[], tuple[str, bool]]]]:
    def value_row(name, expect, fn):
        def run():
            got = fn()
            return str(got), got == expect
        return name, str(expect), run

    rows: list[tuple[str, str, Callable[[], tuple[str, bool]]]] = []

    # exact path-matching values
    rows.append(value_row("R_PM(3,3,3)", 4, lambda: _pm_value((3, 3, 3), "search")))
    rows.append(value_row("R_PM(3,3,3,3)", 4, lambda: _pm_value((3, 3, 3, 3), "search")))
    rows.append(value_row("R_PM(4,3,3,3)", 5, lambda: _pm_value((4, 3, 3, 3), "search")))
    rows.append(value_row("R_PM(4,4,4)", 6, lambda: _pm_value((4, 4, 4), "search")))
    rows.append(value_row("R_PM(5,5,5)", 7, lambda: _pm_value((5, 5, 5), "search")))
    for p1 in range(2, 7):
        for p2 in range(2, p1 + 1):
            want = p1 + (p2 + 2) // 3 - 1
            rows.append(value_row(f"R_PM({p1},{p2})", want,
                                  lambda a=p1, b=p2: _pm_value((a, b), "search")))

    # exact 1-core values
    rows.append(value_row("R_1C(4,4,4)", 5, lambda: exact_core_ramsey((4, 4, 4)).value))
    rows.append(value_row("R_1C(5,5,5)", 7, lambda: exact_core_ramsey((5, 5, 5)).value))
    rows.append(value_row("R_1C(4,3,3,3)", 5, lambda: exact_core_ramsey((4, 3, 3, 3)).value))
    for p1 in range(2, 9):
        for p2 in range(2, p1 + 1):
            rows.append(value_row(f"R_1C({p1},{p2})", max(p1, p2),
                                  lambda a=p1, b=p2: exact_core_ramsey((a, b)).value))
    for r in range(2, 13):
        rows.append(value_row(f"R_1C(3x{r})", pm_all3(r),
                              lambda rr=r: exact_core_ramsey((3,) * rr).value))
    rows.append(value_row("C(9,5)", 5, lambda: covering_number(9, 5)))
    rows.append(value_row("C(13,5)", 10, lambda: covering_number(13, 5)))
    # Fort-Hedlund: C(v,3) = ceil(v/3 * ceil((v-1)/2)) = ceil(50/3) at v = 10
    rows.append(value_row("C(10,3)", 17, lambda: covering_number(10, 3)))

    # uniform families
    for r in range(2, 6):
        rows.append(value_row(f"R_PM(4x{r})", r + 3,
                              lambda rr=r: _pm_value((4,) * rr, "reduction")))
        rows.append(value_row(f"R_PM(5x{r})", r + 4,
                              lambda rr=r: _pm_value((5,) * rr, "reduction")))
    # p1 < 2r - 2: the value exceeds the standard 15
    rows.append(value_row("R_PM(6x10) (reduction)", 16,
                          lambda: _pm_value((6,) * 10, "reduction")))

    # headline bounds for ten colors with target 6
    def ten_six():
        lo = pm_lowers((6,) * 10)
        hi = pm_upper((6,) * 10)
        return f"{lo[0]}/{lo[1]}/{hi}", lo == (15, 16) and hi == 21
    rows.append(("bounds (6x10) standard/design/upper", "15/16/21", ten_six))

    # witness validations: each witness must pass the check every returned
    # witness passes, on the named K_n for the named targets
    def witness_row(name, expect, n, ts, find, describe):
        def run():
            witness = find()
            if witness is None:
                return "missing", False
            return describe(witness), _witness_valid(witness, n, ts)
        return name, expect, run

    rows.append(witness_row("witness for R_PM(5,5,5) on K_6", "profile <= (4,4,4)",
                            6, (5, 5, 5), lambda: find_lower_witness(6, (5, 5, 5)),
                            lambda col: f"profile {mono_pm_profile(col)}"))
    rows.append(witness_row("witness for R_PM(6x10) > 15 on K_15", "profile <= 5",
                            15, (6,) * 10, lambda: find_lower_witness(15, (6,) * 10),
                            lambda col: f"max profile {max(mono_pm_profile(col))}"))
    rows.append(witness_row("cover witness for R_1C(5,5,5) on K_6", "valid cover",
                            6, (5, 5, 5), lambda: exact_core_ramsey((5, 5, 5)).lower_witness,
                            lambda cover: f"block sizes {sorted(cover.block_sizes())}"))

    def diagonal_rows():
        ok = True
        detail = []
        for r in (2, 3, 4):
            n = (8 // (r + 2)) * (r + 2)  # largest multiple of r+2 up to 8
            target = 3 * n // (r + 2)
            col = layered_coloring([3 * n // (r + 2)] + [n // (r + 2)] * (r - 1))
            prof = mono_pm_profile(col)
            ok = ok and max(prof) == target
            detail.append(f"r={r},n={n}:{max(prof)}")
        return " ".join(detail), ok
    rows.append(("diagonal tightness [3n/(r+2), n/(r+2), ...]", "max profile = 3n/(r+2)",
                 diagonal_rows))

    def search_555_at_7():
        cex = verify_upper(7, (5, 5, 5))
        return "all-succeed" if cex is None else "counterexample", cex is None
    rows.append(("exhaustive search (5,5,5) at n=7", "all-succeed", search_555_at_7))

    return rows


def run_report(only: Optional[str] = None) -> list[ReportRow]:
    """The checked rows whose names match the regex only, if given; an
    invalid pattern, or one that matches no row, raises ValueError."""
    try:
        pattern = re.compile(only) if only else None
    except re.error as err:
        raise ValueError(f"invalid --only pattern {only!r}: {err}") from None
    checks = [row for row in _check_rows() if not pattern or pattern.search(row[0])]
    if not checks:
        raise ValueError(f"--only pattern {only!r} matches no row")
    out = []
    for name, expected, fn in checks:
        started = time.monotonic()
        try:
            computed, passed = fn()
        except BudgetExceededError:  # no verdict: the caller exits 2, not 3
            raise
        except Exception as err:  # a failure to compute is a failing row
            computed, passed = f"error: {err}", False
        millis = int((time.monotonic() - started) * 1000)
        out.append(ReportRow(name, expected, computed, passed, millis))
    return out


def render_report(rows: list[ReportRow]) -> str:
    width = max((len(r.name) for r in rows), default=10)
    lines = []
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  expected {r.expected}"
                     f"  got {r.computed}  [{r.millis} ms]")
    good = sum(1 for r in rows if r.passed)
    lines.append(f"{good}/{len(rows)} checks passed")
    return "\n".join(lines)
