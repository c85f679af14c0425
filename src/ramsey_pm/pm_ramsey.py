"""Exact path-matching Ramsey values.

Two independent routes compute the same number:

* reduction: the value equals the maximum over integer shifts
  0 <= x_i < p_i/3 of (1-core value of the shifted targets) + sum x_i,
  with the 1-core values obtained exactly from the covering search.  The
  grid is walked once per value, one point per distinct shifted multiset,
  in descending order of the proven 1-core upper bound plus shift, and a
  point is solved only while that bound can still beat the best value so
  far (the tests keep the full scan, f_d, as its reference);
* search: direct exhaustive enumeration of colorings, scanning n upward
  until no counterexample coloring survives.

Closed forms are trusted only where proven (closed_form_value).  Anything
else goes through the reduction.  Disagreement between completed routes is
a fatal error.  The lower witness of every value is built, never searched
for (_witness): the layered extremal coloring, or else the lift at the
walk's first maximiser, which the reduction route hands over from its own
walk.
"""

from __future__ import annotations

import time
from itertools import chain, combinations_with_replacement, groupby, product
from typing import Optional, Sequence

from .bounds import (ceil_third, core_upper, nontrivial_targets, pm_all3, pm_lowers,
                     pm_standard_value, sorted_targets)
from .coloring import EdgeColoring, core_lift_coloring, mono_pm_profile, pm_extremal_coloring
from .core_ramsey import BlockCover, cover_to_coloring, exact_core_ramsey
from .results import (DEFAULT_NODE_BUDGET, PROOF_CLOSED, PROOF_F3, PROOF_SEARCH, PROOF_TABLE,
                      FormulaUnavailableError, RamseyResult, RouteDisagreementError, SearchStats)
from .search import enumerate_colorings

# memoized 1-core results keyed by nontrivial_targets; the reduction,
# its cross-checks and the witness lifts ask for the same keys again
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


def _f3_points(ts: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each distinct sorted shifted multiset of the f^3 grid, mapped to the
    first shift vector xs (aligned with ts) that produces it.

    ts must be sorted, so equal targets form runs; within a run only the
    multiset of shifts matters.  Sum(xs) = (sum(ts) - sum(shifted)) / 3 is
    fixed by the multiset, so one representative per multiset suffices.
    """
    per_run = []
    for p, run in groupby(ts):
        k = len(list(run))
        per_run.append([(tuple(p - 3 * x for x in xs), xs)
                        for xs in combinations_with_replacement(range(ceil_third(p)), k)])
    points: dict[tuple[int, ...], tuple[int, ...]] = {}
    for choice in product(*per_run):
        shifted = tuple(sorted(chain.from_iterable(s for s, _ in choice), reverse=True))
        points.setdefault(shifted, tuple(chain.from_iterable(xs for _, xs in choice)))
    return points


def _f3_maximise(ts: tuple[int, ...], core_oracle) -> tuple[int, tuple[int, ...], RamseyResult]:
    """The f^3 maximum, max over 0 <= x_i < p_i/3 of core_oracle(ts - 3x,
    re-sorted).value + sum(x), with the first shift vector xs (aligned
    with ts) that attains it and the oracle's 1-core result there.  The
    lift of that result's cover by xs is a bad coloring of K_{max-1}.

    Grid points are solved exactly in descending order of their upper
    bound (1-core bound + sum x); once a bound cannot beat the incumbent
    no later point can either, so the rest are never solved.  Among equal
    bounds the larger shift goes first: its 1-core is smaller, so cheaper
    to solve.
    """
    ranked = sorted(((core_upper(shifted) + sum(xs), sum(xs), shifted, xs)
                     for shifted, xs in _f3_points(ts).items()),
                    key=lambda point: (-point[0], -point[1]))
    best = (0, (), None)  # below every value; xs = 0 is always on the grid
    for bound, shift, shifted, xs in ranked:
        if bound <= best[0]:
            break
        core = core_oracle(shifted)
        if core.value + shift > best[0]:
            best = core.value + shift, xs, core
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


def _witness(ts: tuple[int, ...], value: int, kw: dict,
             point: Optional[tuple[tuple[int, ...], RamseyResult]]) -> Optional[EdgeColoring]:
    """A bad coloring of K_{value-1} from the value's own construction, or
    None when it does not re-validate.

    Value 2 is K_1.  Otherwise the layered extremal coloring, else the lift
    (core_lift_coloring) of the 1-core cover at the point (xs, 1-core
    result) where the f^3 walk first attains the value, blocks X_i of size
    x_i.  The reduction route hands over its own point; for a value from a
    closed form or the search (point None) the grid is walked here, once,
    and kw (budgets, stats, progress) reaches its 1-core solves.  There is
    no search of colorings.
    """
    n = value - 1
    if n == 1:
        return EdgeColoring(1, len(ts), ())
    ext = pm_extremal_coloring(ts)
    if _witness_valid(ext, n, ts):
        return ext
    if point is None:
        point = _f3_maximise(ts, lambda shifted: core_value(shifted, **kw))[1:]
    xs, core = point
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

    Disagreement between two completed routes raises
    RouteDisagreementError: by the reduction identity it can only mean a
    bug, and both values are attached for diagnosis.  Every result carries
    _witness's bad coloring of K_{value-1}, whatever the route and the
    value, so C(value-1, 2) colors, with one color per sorted target: a
    target 1 or 2 keeps a color it never uses.  None that re-validates
    raises RouteDisagreementError too.
    """
    if strategy not in ("auto", "formula", "reduction", "search"):
        raise ValueError(f"unknown strategy {strategy!r}")

    started = time.monotonic()
    ts = sorted_targets(targets)
    stats = SearchStats()
    kw = dict(node_budget=node_budget, time_budget=time_budget, progress=progress)

    def formula() -> tuple[int, str, None]:
        cf = closed_form_value(ts)
        if cf is None:
            raise FormulaUnavailableError(f"no proven closed form for targets {ts}")
        return *cf, None

    def reduction() -> tuple[int, str, tuple]:  # with its lift point
        value, xs, core = _f3_maximise(ts, lambda shifted: core_value(shifted, stats=stats, **kw))
        return value, PROOF_F3, (xs, core)

    def search() -> tuple[int, str, None]:
        return *_search_scan(ts, stats, kw), None

    routes = {"formula": formula, "reduction": reduction, "search": search}
    if strategy == "auto":
        own = "formula" if closed_form_value(ts) is not None else "reduction"
        value, method, point = routes[own]()
        if value <= _CROSS_CHECK_CAP:
            for name in ("reduction", "search"):
                if name != own and (other := routes[name]()[0]) != value:
                    raise RouteDisagreementError(
                        f"{name} {other} disagrees with {method} {value} on {ts}",
                        {"targets": ts, method: value, name: other})
    else:
        value, method, point = routes[strategy]()

    witness = _witness(ts, value, dict(kw, stats=stats), point)
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
