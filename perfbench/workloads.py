"""Seeded workloads, their pinned answers and the correctness gate.

Every workload is a list of `Call`s built from a seed.  A call names one
public library function, its arguments, and the answer the gate expects.
Answers come from the pinned tables below (each entry says where its value
comes from) or, for random graphs, from an oracle in this file that shares
no code with the library.

Costs quoted below were measured at commit 6b67eff (fresh interpreter,
one worker, 2-core Xeon at 2.0 GHz).  A seed draws one entry from each slot
of similar-cost entries, next to entries that every run has, and random
graphs are redrawn until their cost class is the usual one for their size.
So every seed does about the same amount of work, and the timings of two
seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ramsey_pm import (BlockCover, DeficiencyCertificate, EdgeColoring,
                       SimpleGraph, packing_oracle)
from ramsey_pm.coloring import mono_pm_profile
from ramsey_pm.graphs import bits

# where a pinned value comes from
CLOSED = "closed form"
TABLE = "table"
ALL3 = "pm_all3"
SEARCH = "exhaustive search at commit 6b67eff"
ORACLE = "matching oracle below"


class GateError(Exception):
    """An answer that the gate refuses."""


@dataclass
class Call:
    func: str                 # "<module>.<function>" inside ramsey_pm
    args: tuple
    expect: Any               # what the gate compares the answer with
    check: Callable[[Any, Any, tuple], None]  # (answer, expect, args); raises GateError
    source: str               # provenance of `expect`
    fresh_core: bool = False  # clear the 1-core memo before the call

    @property
    def label(self) -> str:
        shown = ", ".join(f"G(n={a.n}, m={a.edge_count()})" if isinstance(a, SimpleGraph)
                          else repr(a) for a in self.args)
        return f"{self.func.split('.')[-1]}({shown})"


# ---------------------------------------------------------------- reduction
# exact_pm_ramsey(ts, "reduction") values, all from the f^3 reduction over
# exhaustive 1-core searches at commit 6b67eff.
REDUCTION_ALWAYS = ((6,) * 10, 16)
REDUCTION_SLOTS = (
    # about 0.1 s each
    (((8,) + (6,) * 5, 13), ((7,) * 6, 17), ((6,) * 7, 13)),
    # about 0.9 s each
    (((6,) * 8, 14), ((6,) * 7 + (3, 3), 13)),
)
# Pool entries left out to keep a pass, with the covering batch below, near
# 20 s, so that a run makes at least two passes: (9,6^6)=15 (0.4 s, no
# similar-cost partner), 6*9=15 (2.9 s), (7,6^6)=14 (3.1 s) and 7*7=19 (3.3 s).  (6^6,4,4) and
# (7,7,6^6) are left out because one solve takes more than 40 s; under a
# 40 s time budget they raise RouteDisagreementError, because
# find_lower_witness swallows BudgetExceededError.
REDUCTION_QUICK = (((6,) * 8, 14), ((7,) * 6, 17))


def _check_pm_witness(col, ts: tuple[int, ...], n: int) -> None:
    if not isinstance(col, EdgeColoring):
        raise GateError(f"witness is {type(col).__name__}, not an EdgeColoring")
    if col.n != n or col.r != len(ts):
        raise GateError(f"witness is K_{col.n} in {col.r} colours, want K_{n} in {len(ts)}")
    profile = mono_pm_profile(col)
    if any(q >= p for q, p in zip(profile, ts)):
        raise GateError(f"witness profile {profile} reaches targets {ts}")


def _check_reduction(res, expect: int, args: tuple) -> None:
    ts = tuple(sorted(args[0], reverse=True))
    if res.value != expect:
        raise GateError(f"value {res.value}, pinned {expect}")
    if tuple(res.targets) != ts:
        raise GateError(f"result targets {res.targets}, asked {ts}")
    _check_pm_witness(res.lower_witness, ts, expect - 1)


def _reduction(rng: random.Random, quick: bool) -> list[Call]:
    if quick:
        items = list(REDUCTION_QUICK)
    else:
        items = [REDUCTION_ALWAYS] + [rng.choice(slot) for slot in REDUCTION_SLOTS]
    rng.shuffle(items)
    calls = []
    for ts, value in items:
        shuffled = list(ts)
        rng.shuffle(shuffled)
        calls.append(Call("pm_ramsey.exact_pm_ramsey", (tuple(shuffled), "reduction"),
                          value, _check_reduction, SEARCH, fresh_core=True))
    return calls


# ----------------------------------------------------------------- coloring
# (targets, value) with the value from closed_form_value, which is a proven
# closed form everywhere except (4,3,3,3)=5, a table value.  Every value is
# at most 8, so verify_upper(v) is an exhaustive search and verify_upper(v-1)
# stops at its first counterexample.
COLORING_ALWAYS = (((6, 6, 6), 8), ((5, 5, 5, 5), 8))
# under 0.18 s each for verify_upper(v): always in the run.  With the slots
# below they hold the middle and the 90th percentile of the per-call
# latencies, so both percentiles see the same calls for every seed.
COLORING_FIXED = (
    ((3, 3, 3), 4), ((4, 3, 3), 4), ((3, 3, 3, 3), 4), ((3, 3, 3, 3, 3), 4),
    ((5, 3, 3), 5), ((4, 3, 3, 3), 5), ((4, 4, 3), 5), ((5, 3, 3, 3), 5), ((4, 4, 4), 6),
    ((4, 4, 3, 3), 5), ((6, 3, 3), 6), ((5, 4, 3), 6), ((5, 5, 3), 6), ((4, 4, 4, 3), 6),
    ((6, 3, 3, 3), 6), ((5, 5, 3, 3), 6), ((5, 4, 3, 3), 6), ((5, 4, 4), 7),
    ((6, 4, 3), 7), ((7, 3, 3), 7), ((5, 5, 5), 7), ((4, 4, 4, 3, 3), 6), ((5, 5, 4), 7),
    ((5, 4, 4, 3), 7), ((6, 5, 3), 7), ((5, 4, 3, 3, 3), 6), ((5, 5, 4, 3), 7),
    ((6, 4, 3, 3), 7), ((6, 6, 3), 7), ((4, 4, 4, 4), 7), ((7, 3, 3, 3), 7),
    ((6, 5, 3, 3), 7), ((5, 5, 5, 3), 7), ((7, 4, 3), 8), ((6, 4, 4), 8),
    ((5, 4, 4, 4), 8), ((6, 4, 3, 3, 3), 7), ((6, 5, 4), 8), ((6, 4, 4, 3), 8),
    ((7, 5, 3), 8), ((5, 4, 4, 3, 3), 7), ((4, 4, 4, 4, 3), 7), ((6, 5, 5), 8),
    ((6, 6, 4), 8),
)
# 0.2 to 1.3 s each: the seed draws one vector of each pair.  Twelve more
# vectors of 0.2 to 2.1 s are left out to keep a pass short: (7,6,3), (7,3,3,3,3), (7,4,3,3), (7,5,3,3),
# (5,4,4,4,3), (6,5,5,3), (5,5,5,4), (7,4,3,3,3), (5,5,4,4,3), (7,5,3,3,3),
# (6,5,4,3,3) and (6,6,5,3).
COLORING_SLOTS = (
    (((6, 6, 3, 3), 7), ((5, 5, 4, 3, 3), 7)),
    (((6, 5, 3, 3, 3), 7), ((5, 5, 4, 4), 8)),
    (((6, 5, 4, 3), 8), ((5, 5, 5, 3, 3), 7)),
    (((6, 6, 5), 8), ((6, 4, 4, 3, 3), 8)),
    (((6, 6, 4, 3), 8), ((7, 6, 3, 3), 8)),
)
COLORING_PROVENANCE = {(4, 3, 3, 3): TABLE}  # every other entry: CLOSED
COLORING_QUICK = (((5, 5, 5), 7), ((6, 4, 3), 7), ((4, 4, 4, 4), 7))


def _check_verify(col, expect: int, args: tuple) -> None:
    """Below the pinned value a counterexample must exist; at it, none."""
    n, ts = args
    if n >= expect:
        if col is not None:
            raise GateError(f"counterexample on K_{n}, but pinned value is {expect}")
    elif col is None:
        raise GateError(f"no counterexample on K_{n}, but pinned value is {expect}")
    else:
        _check_pm_witness(col, ts, n)


def _coloring(rng: random.Random, quick: bool) -> list[Call]:
    if quick:
        items = list(COLORING_QUICK)
    else:
        items = list(COLORING_ALWAYS + COLORING_FIXED)
        items += [rng.choice(slot) for slot in COLORING_SLOTS]
    rng.shuffle(items)
    calls = []
    for ts, value in items:
        source = COLORING_PROVENANCE.get(ts, CLOSED)
        for n in (value, value - 1):
            calls.append(Call("pm_ramsey.verify_upper", (n, ts), value, _check_verify, source))
    return calls


# ----------------------------------------------------------------- covering
# ("cover", v, k, C(v,k)) values found by exhaustive search at the seed
# commit; ("core", targets, value) 1-core values, pm_all3(r) for all-3
# targets and exhaustive search at commit 6b67eff for 5*10.
COVERING_ALWAYS = (
    ("core", (3,) * 16, 7, ALL3),       # ~1.6 s on only 22 nodes
    ("cover", (13, 5), 10, SEARCH),     # ~0.8 s, refutes 8 and 9 blocks
    ("core", (3,) * 15, 7, ALL3),       # ~0.8 s
)
COVERING_SLOTS = (
    (("cover", (10, 4), 9, SEARCH), ("core", (3,) * 13, 6, ALL3)),      # ~0.1 s
    (("cover", (12, 4), 12, SEARCH), ("core", (3,) * 14, 6, ALL3)),     # ~0.4 s
    (("cover", (16, 6), 10, SEARCH), ("core", (5,) * 10, 11, SEARCH)),  # ~2.4 s
)
# C(11,4)=11 and C(12,5)=9 (1.0 to 1.2 s) have no partner in a slot, and
# C(10,3)=17 (3.3 to 5 s) would make a reduction pass much longer; all three
# are left out.
COVERING_QUICK = (("cover", (10, 4), 9, SEARCH), ("core", (3,) * 13, 6, ALL3))


def _check_value(got: int, expect: int, args: tuple) -> None:
    if got != expect:
        raise GateError(f"value {got}, pinned {expect}")


def _check_core(res, expect: int, args: tuple) -> None:
    ts = tuple(sorted(args[0], reverse=True))
    if res.value != expect:
        raise GateError(f"value {res.value}, pinned {expect}")
    cover = res.lower_witness
    if not isinstance(cover, BlockCover):
        raise GateError(f"witness is {type(cover).__name__}, not a BlockCover")
    if cover.n != expect - 1 or cover.capacities != tuple(p - 1 for p in ts):
        raise GateError(f"witness covers K_{cover.n} with {cover.capacities}")
    try:
        cover.validate()
    except ValueError as err:
        raise GateError(f"witness cover invalid: {err}") from None


def _covering(rng: random.Random, quick: bool) -> list[Call]:
    items = list(COVERING_QUICK) if quick else \
        list(COVERING_ALWAYS) + [rng.choice(slot) for slot in COVERING_SLOTS]
    rng.shuffle(items)
    calls = []
    for kind, what, value, source in items:
        if kind == "cover":
            calls.append(Call("core_ramsey.covering_number", what, value, _check_value,
                              source, fresh_core=True))
        else:
            shuffled = list(what)
            rng.shuffle(shuffled)
            calls.append(Call("core_ramsey.exact_core_ramsey", (tuple(shuffled),), value,
                              _check_core, source, fresh_core=True))
    return calls


# --------------------------------------------------------------- deficiency
# (pd, isolated vertices) pinned for each cell (n, p), n = 8..20: the most
# common pair of G(n,p) over 3000 samples.  In the sparse cells (p = 0.1,
# and p = 0.2 with n <= 10) only pairs with pd above the isolated count were
# counted, so those graphs need a non-empty LV set: deleting no vertex leaves
# too few isolated ones, and the improving branch of the subset loop runs.
DEFICIENCY_SIZES = range(8, 21)
DEFICIENCY_CELLS = {
    0.1: ((3, 2), (4, 3), (5, 4), (4, 3), (4, 3), (4, 3), (4, 3), (4, 3), (3, 2),
          (4, 3), (4, 3), (3, 2), (3, 2)),
    0.2: ((3, 2), (2, 1), (2, 1)) + ((0, 0),) * 10,
    0.5: ((0, 0),) * 13,
}
DENSE_N = 24  # one dense graph at the library's deficiency cap, with pd 0


def matching_deficiency(n: int, rows: tuple[int, ...]) -> int:
    """pd(G) as n minus a maximum matching from left copies of the vertices
    (capacity 1) to right copies (capacity 2) along the edges of G.

    This is the star-factor form of the Las Vergnas identity (Amahashi and
    Kano, 1982); it shares no code with the library's subset loop.
    """
    owners: list[list[int]] = [[] for _ in range(n)]

    def augment(u: int, seen: set[int]) -> bool:
        for v in bits(rows[u]):
            if v in seen:
                continue
            seen.add(v)
            if len(owners[v]) < 2:
                owners[v].append(u)
                return True
            for i, w in enumerate(owners[v]):
                if augment(w, seen):
                    owners[v][i] = u
                    return True
        return False

    return n - sum(augment(u, set()) for u in range(n))


def _check_deficiency(answer, expect: int, args: tuple) -> None:
    g = args[0]
    d, cert = answer
    if d != expect:
        raise GateError(f"pd {d}, matching oracle {expect}")
    if g.n <= 10 and g.n - packing_oracle(g) != d:
        raise GateError(f"pd {d}, packing oracle {g.n - packing_oracle(g)}")
    if not isinstance(cert, DeficiencyCertificate) or cert.deficiency != d:
        raise GateError("certificate does not state the returned deficiency")
    try:
        cert.check(g)
    except ValueError as err:
        raise GateError(f"certificate invalid: {err}") from None


def _check_max_order(order: int, expect: int, args: tuple) -> None:
    if order != args[0].n - expect:
        raise GateError(f"max order {order}, but n - pd is {args[0].n - expect}")


def _random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _deficiency(rng: random.Random, quick: bool) -> list[Call]:
    """G(n,p) graphs, each redrawn until its pd and its number of isolated
    vertices equal the pair pinned for its (n, p).  The subset loop of
    `deficiency` costs what pd and n fix, and `max_pm_order` what pd and
    the support fix, so every seed gets graphs of the same cost."""
    sizes = (8, 10, 14) if quick else DEFICIENCY_SIZES
    shapes = [(n, p, *pairs[n - 8]) for p, pairs in DEFICIENCY_CELLS.items() for n in sizes]
    if not quick:
        shapes.append((DENSE_N, 0.5, 0, 0))
    rng.shuffle(shapes)
    calls = []
    for n, p, pd, isolated in shapes:
        g = _random_graph(rng, n, p)
        while (matching_deficiency(n, g.rows), g.rows.count(0)) != (pd, isolated):
            g = _random_graph(rng, n, p)
        calls.append(Call("path_matching.deficiency", (g,), pd, _check_deficiency, ORACLE))
        calls.append(Call("path_matching.max_pm_order", (g,), pd, _check_max_order, ORACLE))
    return calls


def _reduction_and_covering(rng: random.Random, quick: bool) -> list[Call]:
    """The reduction batch followed by the covering batch."""
    return _reduction(rng, quick) + _covering(rng, quick)


def _paths(rng: random.Random, quick: bool) -> list[Call]:
    """The coloring batch followed by the deficiency batch."""
    return _coloring(rng, quick) + _deficiency(rng, quick)


BUILDERS = {
    "reduction": _reduction_and_covering,
    "paths": _paths,
}


def build(workload: str, seed: int, quick: bool = False, corrupt: bool = False) -> list[Call]:
    """The calls of one workload; `corrupt` shifts the first expected value
    by one, which the gate must then refuse."""
    if workload not in BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(BUILDERS)}")
    calls = BUILDERS[workload](random.Random(seed), quick)
    if corrupt:
        calls[0].expect += 1
    return calls
