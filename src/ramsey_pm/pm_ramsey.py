"""Exact path-matching Ramsey values.

Two independent routes compute the same number:

* reduction: the value equals the maximum over integer shifts
  0 <= x_i < p_i/3 of (1-core value of the shifted targets) + sum x_i,
  with the 1-core values obtained exactly from the covering search.  The
  grid is walked once per value, under the search budgets, keeping the
  points whose proven 1-core upper bound plus shift reaches the proven
  lower bound; they are solved in descending order of that bound while it
  can still beat the best value so far (the tests keep the full scan, f_d);
* search: direct exhaustive enumeration of colorings, scanning n upward
  until no counterexample coloring survives.

Closed forms are trusted only where proven (closed_form_value).  Anything
else goes through the reduction.  Each route runs at most once per value,
and one that disagrees with the first is a fatal error.  The lower witness
of every value is built, never searched for (_witness): the layered
extremal coloring, or else the lift at the reduction's first maximiser.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .bounds import (ceil_third, core_upper, nontrivial_targets, pm_all3, pm_lowers,
                     pm_standard_value, sorted_targets)
from .coloring import EdgeColoring, core_lift_coloring, mono_pm_profile, pm_extremal_coloring
from .core_ramsey import BlockCover, cover_to_coloring, exact_core_ramsey
from .results import (DEFAULT_NODE_BUDGET, PROOF_CLOSED, PROOF_F3, PROOF_SEARCH, PROOF_TABLE,
                      FormulaUnavailableError, RamseyResult, RouteDisagreementError, SearchMeter,
                      SearchStats)
from .search import enumerate_colorings

# memoized 1-core results keyed by nontrivial_targets; the grid walks of
# later values, and of other vectors, ask for the same keys again
_CORE_MEMO: dict[tuple[int, ...], RamseyResult] = {}

# `auto` cross-checks a value by the other routes when it is at most this
_CROSS_CHECK_CAP = 4


def clear_core_cache() -> None:
    _CORE_MEMO.clear()


def core_value(targets: Sequence[int], *, node_budget: int = DEFAULT_NODE_BUDGET,
               time_budget: Optional[float] = None,
               stats: Optional[SearchStats] = None, progress=None) -> RamseyResult:
    """Memoized exact 1-core result of the nontrivial_targets, its cover of
    K_{value-1} included; an all-small vector is 2, covered on K_1 by no
    block, with no search.  The progress hook reaches the cover searches of
    a fresh solve, whose nodes are added to stats."""
    key = nontrivial_targets(targets)
    if not key:
        return RamseyResult(key, 2, PROOF_TABLE, BlockCover(1, (), ()))
    hit = _CORE_MEMO.get(key)
    if hit is None:
        hit = _CORE_MEMO[key] = exact_core_ramsey(key, node_budget=node_budget,
                                                  time_budget=time_budget, progress=progress)
        if stats is not None:
            stats.nodes += hit.stats.nodes
    return hit


def _f3_maximise(ts: tuple[int, ...], **kw) -> tuple[int, tuple[int, ...], RamseyResult]:
    """max over 0 <= x_i < p_i/3 of core_value(ts - 3x, re-sorted, **kw).value
    + sum(x), the first xs (aligned with ts) that attains it, and the 1-core
    result there, whose cover lifts by xs to a bad coloring of K_{max-1}.

    A depth-first walk, metered as a search, fixes the shifts of ts one
    entry at a time, nondecreasing within a run of equal targets, keeping
    each shifted multiset's first xs.  core_upper never falls as an entry
    grows, so a subtree is skipped when core_upper with the run's open
    entries at the last shift and later ones unshifted, plus each open
    shift at its largest, is below the proven lower bound low.  Kept points
    are solved by bound (1-core bound + sum x) descending, larger shift
    first, until no bound can beat the best; a maximum below low raises."""
    low = max(2, *pm_lowers(ts)) if len(ts) > 1 else max(2, ts[0])
    meter = SearchMeter("f3 walk", len(ts) + 1, kw.get("node_budget", DEFAULT_NODE_BUDGET),
                        kw.get("time_budget"), kw.get("progress"))
    tops = [ceil_third(p) - 1 for p in ts]
    points = {}  # shifted multiset -> (bound, its first xs)

    def walk(xs: tuple[int, ...]) -> None:  # at the root last = 0, so ts[-1] does no harm
        i, last = len(xs), xs[-1] if xs else 0
        meter._tick(i)
        shifted = [p - 3 * x for p, x in zip(ts, xs)]
        shifted += [p - 3 * last if p == ts[i - 1] else p for p in ts[i:]]
        bound = core_upper(shifted) + sum(xs) + sum(tops[i:])
        if bound < low:
            return
        if i == len(ts):
            meter.leaves += 1
            points.setdefault(tuple(sorted(shifted, reverse=True)), (bound, xs))
            return
        for x in range(last if ts[i] == ts[i - 1] else 0, tops[i] + 1):
            walk(xs + (x,))

    walk(())
    best = (0, (), None)  # below every value
    for shifted, (bound, xs) in sorted(points.items(), key=lambda kv: (-kv[1][0], -sum(kv[1][1]))):
        if bound <= best[0]:
            break
        core = core_value(shifted, **kw)
        if core.value + sum(xs) > best[0]:
            best = core.value + sum(xs), xs, core
    if best[0] < low:
        raise RouteDisagreementError(f"reduction {best[0]} is below the lower bound {low} on {ts}",
                                     {"targets": ts, "lower bound": low, "reduction": best[0]})
    return best


def closed_form_value(ts: tuple[int, ...]) -> Optional[tuple[int, str]]:
    """(value, provenance) where a proven closed form exists, else None.

    The standard formula where pm_standard_value proves it exact: every
    vector with r <= 2, every triple and quadruple but (3,3,3), (3,3,3,3)
    and (4,3,3,3), and all uniform 4s.  Else uniform 3s and 5s, and the
    table value (4,3,3,3) = 5.  Entries at most 2 never change the value.
    """
    t = nontrivial_targets(ts)
    r = len(t)
    if r == 0:
        return 2, PROOF_TABLE  # K_2 already contains an order-2 path
    standard, exact = pm_standard_value(t)
    if exact:
        return standard, PROOF_CLOSED
    if t == (3,) * r:
        return pm_all3(r), PROOF_CLOSED
    if t == (5,) * r:
        return r + 4, PROOF_CLOSED
    if t == (4, 3, 3, 3):
        return 5, PROOF_TABLE
    return None


def verify_upper(n: int, targets: Sequence[int], *,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 time_budget: Optional[float] = None,
                 progress=None) -> Optional[EdgeColoring]:
    """A coloring of K_n whose color-i path-matchings all stay below p_i,
    or None when every coloring meets some threshold."""
    return enumerate_colorings(n, targets, node_budget=node_budget, time_budget=time_budget,
                               progress=progress).counterexample


def _witness_valid(witness, n: int, ts: tuple[int, ...]) -> bool:
    """Whether the witness, an EdgeColoring or a BlockCover, shows that K_n
    does not force the targets ts: a coloring of K_n in len(ts) colors with
    every color-i path-matching below p_i, or a valid cover of K_n by
    blocks of capacities p_i - 1."""
    if isinstance(witness, EdgeColoring):
        return (witness.n == n and witness.r == len(ts)
                and all(q < p for q, p in zip(mono_pm_profile(witness), ts)))
    try:
        witness.validate()
    except ValueError:
        return False
    return witness.n == n and witness.capacities == tuple(p - 1 for p in ts)


def _cover_as_coloring_for(ts_shifted: Sequence[int], cover: BlockCover) -> EdgeColoring:
    """Color the cover's blocks back in the order of the unsorted shifted
    targets (stable descending match), so block i certifies color i.

    A memoized 1-core cover carries only the targets of 3 or more; the
    remaining colors have capacity at most 1 and get empty blocks.
    """
    order = sorted(range(len(ts_shifted)), key=lambda i: (-ts_shifted[i], i))
    sorted_caps = tuple(ts_shifted[i] - 1 for i in order)
    k = len(cover.capacities)
    if sorted_caps[:k] != cover.capacities or any(c > 1 for c in sorted_caps[k:]):
        raise ValueError("cover does not match the shifted targets")
    blocks = [0] * len(ts_shifted)
    for slot, orig in enumerate(order[:k]):
        blocks[orig] = cover.blocks[slot]
    return cover_to_coloring(BlockCover(cover.n, tuple(p - 1 for p in ts_shifted),
                                        tuple(blocks)))


def _witness(ts: tuple[int, ...], value: int, lift_point) -> Optional[EdgeColoring]:
    """A bad coloring of K_{value-1} from the value's own construction, or
    None when it does not re-validate.

    Value 2 is K_1.  Otherwise the layered extremal coloring, else the lift
    (core_lift_coloring) of the 1-core cover at the point (xs, 1-core
    result) where the f^3 walk first attains the value, blocks X_i of size
    x_i.  lift_point() gives that point; it is asked only when the
    extremal coloring fails.  There is no search of colorings.
    """
    n = value - 1
    if n == 1:
        return EdgeColoring(1, len(ts), ())
    ext = pm_extremal_coloring(ts)
    if _witness_valid(ext, n, ts):
        return ext
    xs, core = lift_point()
    shifted = tuple(p - 3 * x for p, x in zip(ts, xs))
    lifted = core_lift_coloring(_cover_as_coloring_for(shifted, core.lower_witness), xs)
    return lifted if _witness_valid(lifted, n, ts) else None


def find_lower_witness(n: int, targets: Sequence[int], *,
                       node_budget: int = DEFAULT_NODE_BUDGET,
                       time_budget: Optional[float] = None,
                       progress=None) -> Optional[EdgeColoring]:
    """A coloring of K_n with every color-i path-matching below p_i, or
    None when there is none.

    exact_pm_ramsey (auto) gives the value v with its witness on K_{v-1}.
    For n >= v the route that fixed v proves that every coloring of K_n
    succeeds; below v the answer is the witness on its first n vertices,
    which is bad because a subgraph has no larger path-matching.  The
    budgets and the progress hook reach the searches of that computation.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    res = exact_pm_ramsey(targets, node_budget=node_budget, time_budget=time_budget,
                          progress=progress)
    if n >= res.value:
        return None
    return res.lower_witness.restrict(n)


def exact_pm_ramsey(targets: Sequence[int], strategy: str = "auto", *,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    time_budget: Optional[float] = None,
                    progress=None) -> RamseyResult:
    """Exact path-matching Ramsey value of the targets.

    strategy:
      formula   closed form only (raises if none is proven);
      reduction the grid maximum over exact 1-core values;
      search    exhaustive coloring searches alone (_search_scan);
      auto      the closed form if one is proven, else the reduction; a
                value of at most _CROSS_CHECK_CAP (4) is recomputed by
                every other route.

    Each route runs at most once, and one that disagrees with the first
    raises RouteDisagreementError with both values: by the reduction
    identity that can only mean a bug.  Every result carries _witness's bad
    coloring of K_{value-1}, so C(value-1, 2) colors, one per sorted target
    (a target 1 or 2 keeps a color it never uses).  Where the extremal
    coloring fails it lifts the reduction's maximiser, so the reduction
    runs, and is checked, beside any route.  No witness that re-validates
    raises RouteDisagreementError too.
    """
    if strategy not in ("auto", "formula", "reduction", "search"):
        raise ValueError(f"unknown strategy {strategy!r}")

    started = time.monotonic()
    ts = sorted_targets(targets)
    stats = SearchStats()
    kw = dict(node_budget=node_budget, time_budget=time_budget, progress=progress)
    cf = closed_form_value(ts) if strategy in ("auto", "formula") else None

    def formula() -> tuple[int, str, None]:
        if cf is None:
            raise FormulaUnavailableError(f"no proven closed form for targets {ts}")
        return *cf, None

    def reduction() -> tuple[int, str, tuple]:  # with its lift point
        value, xs, core = _f3_maximise(ts, stats=stats, **kw)
        return value, PROOF_F3, (xs, core)

    routes = {"formula": formula, "reduction": reduction,
              "search": lambda: (*_search_scan(ts, stats, kw), None)}
    ran: dict[str, tuple] = {}  # route -> (value, method, lift point), in run order

    def run(name: str) -> tuple:  # each route at most once, checked against the first
        if name not in ran:
            ran[name] = routes[name]()
            value, method, _ = next(iter(ran.values()))  # the first route's
            if (other := ran[name][0]) != value:
                raise RouteDisagreementError(
                    f"{name} {other} disagrees with {method} {value} on {ts}",
                    {"targets": ts, method: value, name: other})
        return ran[name]

    own = strategy if strategy != "auto" else "reduction" if cf is None else "formula"
    value, method, _ = run(own)
    if strategy == "auto" and value <= _CROSS_CHECK_CAP:
        for name in ("reduction", "search"):
            run(name)

    witness = _witness(ts, value, lambda: run("reduction")[2])
    if witness is None:
        raise RouteDisagreementError(
            f"no witness coloring found on {value - 1} vertices for {ts}; "
            "the lower bound certificate is missing",
            {"targets": ts, "value": value})
    stats.millis = int((time.monotonic() - started) * 1000)
    return RamseyResult(ts, value, method, witness, stats)


def _search_scan(ts: tuple[int, ...], stats: SearchStats, kw: dict) -> tuple[int, str]:
    """(value, provenance) by exhaustive coloring searches alone.

    n runs up from max(2, p1) for one color and from max(2, pm_lowers)
    otherwise while the coloring search finds a counterexample on K_n, and
    the nodes of each search are added to stats.  There is no size cap: a
    search that runs out of its budgets in kw raises BudgetExceededError,
    and for vectors too big to search the reduction is the route.
    """
    n = max(2, *pm_lowers(ts)) if len(ts) > 1 else max(2, ts[0])
    while True:
        outcome = enumerate_colorings(n, ts, **kw)
        stats.nodes += outcome.nodes
        if outcome.counterexample is None:
            return n, PROOF_SEARCH
        n += 1
