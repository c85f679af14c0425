"""Closed-form values and bounds, all in exact integer arithmetic.

Ceiling divisions go through ceil_div, square roots through math.isqrt;
no floats anywhere, since these values feed equality assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import isqrt
from typing import Optional, Sequence

LOWER = "lower"
UPPER = "upper"
EXACT_IF = "exact-if-condition"


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, b > 0."""
    if b <= 0:
        raise ValueError("positive divisor required")
    return -((-a) // b)


def ceil_third(p: int) -> int:
    return ceil_div(p, 3)


def sorted_targets(p: Sequence[int]) -> tuple[int, ...]:
    """The targets sorted nonincreasingly, p1 >= ... >= pr, as every result
    states them.  Raises ValueError for an empty vector or an entry below 1;
    entries equal to 1 stay, since the f^3 reduction shifts targets down."""
    t = tuple(sorted(p, reverse=True))
    if not t:
        raise ValueError("empty target vector")
    if t[-1] < 1:
        raise ValueError("targets must be positive")
    return t


def nontrivial_targets(p: Sequence[int]) -> tuple[int, ...]:
    """The entries of 3 or more, sorted nonincreasingly.  The others never
    change a 1-core or path-matching value: their blocks hold at most one
    vertex, and an order-2 path-matching is a single edge."""
    return tuple(sorted((pi for pi in p if pi >= 3), reverse=True))


def standard_formula(t: Sequence[int]) -> int:
    """p1 - (r-1) + sum_{i>=2} ceil(pi/3) for t sorted nonincreasingly."""
    return t[0] - (len(t) - 1) + sum(ceil_third(pi) for pi in t[1:])


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # LOWER, UPPER or EXACT_IF
    value: int
    condition_holds: Optional[bool] = None


@dataclass(frozen=True)
class BoundsReport:
    """Named bounds for one quantity; lowers never exceed uppers."""

    quantity: str
    targets: tuple[int, ...]
    entries: tuple[BoundEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        lowers = [e.value for e in self.entries if e.kind == LOWER]
        uppers = [e.value for e in self.entries if e.kind == UPPER]
        if lowers and uppers and max(lowers) > min(uppers):
            raise ValueError(
                f"inconsistent report for {self.quantity}{self.targets}: "
                f"lower {max(lowers)} exceeds upper {min(uppers)}"
            )

    def best_lower(self) -> Optional[int]:
        vals = [e.value for e in self.entries if e.kind == LOWER]
        return max(vals) if vals else None

    def best_upper(self) -> Optional[int]:
        vals = [e.value for e in self.entries if e.kind == UPPER]
        return min(vals) if vals else None


def cockayne_lorimer(p: Sequence[int]) -> int:
    """Exact r-color Ramsey number of a matching of order p_i.

    A matching of order >= p has ceil(p/2) edges, so this is the classical
    stripe Ramsey number with n_i = ceil(p_i/2):
    2*ceil(p1/2) - (r-1) + sum_{i>=2} ceil(pi/2).
    For even p1 this equals p1 - (r-1) + sum_{i>=2} ceil(pi/2); for odd p1
    it is one larger, since a monochromatic K_{p1} still has no matching
    of odd order p1.
    """
    t = sorted_targets(p)
    if len(t) < 2:
        raise ValueError("need at least two colors")
    if t[-1] < 2:
        raise ValueError("targets must be >= 2")
    return 2 * ceil_div(t[0], 2) - (len(t) - 1) + sum(ceil_div(pi, 2) for pi in t[1:])


def pm_standard_value(p: Sequence[int]) -> tuple[int, bool]:
    """The standard path-matching value p1 - (r-1) + sum_{i>=2} ceil(pi/3),
    plus a flag telling whether it is proven exact.

    Exactness: always for r <= 2 (for r = 1 the value is trivially p1),
    and for r >= 3 when p1 >= 4 and p1 >= 2r - 3 - sum_{i>=2} 3(ceil(pi/3) - pi/3).
    Cases below that threshold are left to the small-case tables; the flag
    never guesses.
    """
    t = sorted_targets(p)
    r = len(t)
    value = standard_formula(t)
    if r <= 2:
        return value, True
    # threshold p1 >= 2r - 3 - sum 3(ceil(pi/3) - pi/3), scaled by 3 to stay integral
    lhs = 3 * t[0]
    rhs = 3 * (2 * r - 3) - sum(3 * (3 * ceil_third(pi)) - 3 * pi for pi in t[1:])
    condition = t[0] >= 4 and lhs >= rhs
    return value, condition


def pm_upper(p: Sequence[int]) -> int:
    """Upper bound ceil(p1 - r/3 + sum_{i>=2} pi/3), valid for r >= 2."""
    t = sorted_targets(p)
    r = len(t)
    if r < 2:
        raise ValueError("need at least two colors")
    return ceil_div(3 * t[0] - r + sum(t[1:]), 3)


def pm_all3(r: int) -> int:
    """Smallest n with C(n,2) > r, i.e. floor((sqrt(8r+1)+1)/2) + 1.

    This is the exact uniform value for threshold 3 in r colors: below it
    some coloring uses every color at most once.
    """
    if r < 2:
        raise ValueError("need at least two colors")
    n = (isqrt(8 * r + 1) + 1) // 2 + 1
    assert (n - 1) * (n - 2) // 2 <= r < n * (n - 1) // 2
    return n


def pm_lowers(p: Sequence[int]) -> tuple[int, int]:
    """(standard, design) lower bounds.

    standard: p1 - (r-1) + sum_{i>=2} ceil(pi/3).
    design:   floor((sqrt(8s+1)+1)/2) + 1 + sum_i (ceil(pi/3) - 1), where s
              counts the targets divisible by 3.  The design bound can beat
              the standard one when every target is divisible by 3 and p1
              is small relative to r.
    """
    t = sorted_targets(p)
    if len(t) < 2:
        raise ValueError("need at least two colors")
    s = sum(1 for pi in t if pi % 3 == 0)
    design = (isqrt(8 * s + 1) + 1) // 2 + 1 + sum(ceil_third(pi) - 1 for pi in t)
    return standard_formula(t), design


def diagonal_guarantee(n: int, r: int) -> int:
    """Order of monochromatic path-matching forced in every r-coloring of
    K_n: 3*floor(n/(r+2))."""
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    return 3 * (n // (r + 2))


def core_upper_edgecount(p: Sequence[int]) -> int:
    """Smallest n with sum_i C(pi-1, 2) < C(n, 2).

    At that size the color classes cannot even supply enough edges to
    cover K_n, so the 1-core value is at most n.
    """
    t = sorted_targets(p)
    budget = sum((pi - 1) * (pi - 2) // 2 for pi in t)
    return (isqrt(8 * budget + 1) + 3) // 2


def core_upper_degree(p: Sequence[int]) -> int:
    """Smallest n for which some t in [1, r-1] has
    p1 <= ceil((n+t-1)/t) and sum_i (pi-1) < (t+1) n.

    A vertex seeing at most t colors sits in a 1-core of order at least
    ceil((n+t-1)/t), which is what the first condition exploits.  At t = 1
    the conditions read p1 <= n and sum_i (pi-1) < 2n, so the scan stops
    by n = max(p1, floor(sum_i (pi-1) / 2) + 1).
    """
    ts = sorted_targets(p)
    r = len(ts)
    if r < 2:
        raise ValueError("need at least two colors")
    deficit = sum(pi - 1 for pi in ts)
    for n in count(2):
        for t in range(1, r):
            if ts[0] <= ceil_div(n + t - 1, t) and deficit < (t + 1) * n:
                return n


def core_upper_main(p: Sequence[int]) -> int:
    """Three-term 1-core upper bound
    max{p1, ceil((p1+p2+p3)/2) - 1, ceil(p1/3 - r/3 + sum pi/3)}.

    For r = 2 the exact value max{p1, p2} is returned instead (a graph or
    its complement is connected, so one color always has a spanning
    1-core at that size).
    """
    t = sorted_targets(p)
    r = len(t)
    if r < 2:
        raise ValueError("need at least two colors")
    if r == 2:
        return t[0]
    a = t[0]
    b = ceil_div(t[0] + t[1] + t[2], 2) - 1
    c = ceil_div(t[0] - r + sum(t), 3)
    return max(a, b, c)


def core_upper(p: Sequence[int]) -> int:
    """The proven 1-core upper bound that the exact solvers trust: the
    smaller of the edge-count and three-term bounds, over the
    nontrivial_targets, so exact when at most one entry is 3 or more."""
    t = nontrivial_targets(p)
    if len(t) <= 1:
        return t[0] if t else 2
    return min(core_upper_edgecount(t), core_upper_main(t))


def covering_lower_eh(v: int, k: int) -> int:
    """Counting lower bound for C(v, k): ceil(v(v-1) / (k(k-1)))."""
    if k < 2 or v < k:
        raise ValueError("need v >= k >= 2")
    return ceil_div(v * (v - 1), k * (k - 1))


def covering_lower_schonheim(v: int, k: int) -> int:
    """Iterated-ceiling lower bound ceil((v/k) * ceil((v-1)/(k-1)))."""
    if k < 3 or v < k:
        raise ValueError("need v >= k >= 3")
    inner = ceil_div(v - 1, k - 1)
    return ceil_div(v * inner, k)


def pm_bounds_report(p: Sequence[int]) -> BoundsReport:
    """All path-matching bounds for one target vector.  The bounds assume
    entries of at least 2, so each 1, which forbids every edge of its color
    as a 2 does, is evaluated as a 2: the value is the same."""
    t = tuple(max(pi, 2) for pi in sorted_targets(p))
    entries = []
    if len(t) >= 2:
        standard, design = pm_lowers(t)
        entries.append(BoundEntry("standard-lower", LOWER, standard))
        entries.append(BoundEntry("design-lower", LOWER, design))
        entries.append(BoundEntry("upper", UPPER, pm_upper(t)))
    value, exact = pm_standard_value(t)
    entries.append(BoundEntry("standard-value", EXACT_IF, value, exact))
    return BoundsReport("PM", sorted_targets(p), tuple(entries))


def core_bounds_report(p: Sequence[int]) -> BoundsReport:
    """All 1-core bounds for one target vector, each 1 evaluated as a 2
    (see pm_bounds_report)."""
    t = tuple(max(pi, 2) for pi in sorted_targets(p))
    entries = [BoundEntry("largest-target-lower", LOWER, t[0])]
    if len(t) >= 2:
        entries.append(BoundEntry("edgecount-upper", UPPER, core_upper_edgecount(t)))
        entries.append(BoundEntry("degree-upper", UPPER, core_upper_degree(t)))
        entries.append(BoundEntry("main-upper", UPPER, core_upper_main(t)))
    return BoundsReport("1C", sorted_targets(p), tuple(entries))
