#!/usr/bin/env python3
"""Inside the coloring search: pruning, canonicity, and verdicts.

The engine walks r-colorings of K_n edge by edge in colex order, so after
C(m,2) edges the first m vertices carry a complete coloring.  Seven prunes
keep the tree tiny:

* success: path-matching order only grows with edges, so a color that
  reaches its threshold in a partial coloring reaches it in every
  completion, and that subtree holds no counterexample; a color that any
  further edge would finish (threshold 2, or 3 once it has an edge) is
  not even tried;
* future-clique look-ahead: while row v is being colored, the vertices
  after v have no edge yet, so every completion colors the clique K_f on
  them, and each color's order grows by what that clique gives it; when
  every coloring of K_f finishes some color (a smaller instance of the
  same question, settled by a sub-search), the subtree is cut like a
  success;
* bare-edge look-ahead: call a color near when it is at most 2 below its
  threshold and far otherwise, and an earlier vertex open when no far
  color touches it and an edge from it to a bare vertex would finish
  every near color.  Each edge among the bare vertices or between them
  and an open vertex would finish any near color, so it must take a far
  one, where the orders add up.  A far color 3 below its threshold holds
  one such edge, one 4 below only a star or a triangle; when the edges
  outnumber that room, the subtree is cut like a success;
* color order: among colors with equal thresholds, a new color may only
  appear after all smaller ones (first-use rule);
* vertex canonicity: at each complete-K_m boundary, a prefix beaten by
  some relabelling of the first m vertices is discarded; the test waits
  for the prefix's first child that survives the other prunes, so a
  prefix with no such child is never tested;
* row order: while vertex v agrees with vertex v-1 towards 0..u-1, the
  edge (u,v) may not take a color below that of (u,v-1), since swapping
  v-1 and v would then beat the K_{v+1} prefix at its boundary;
* twin order: when vertices a < b have the same color towards every other
  vertex of K_v, the edge (b,v) may not take a color below that of (a,v),
  since swapping a and b would then beat the K_{v+1} prefix.

A visitor sees every coloring the search keeps.  On K_3 no color can reach
4, so with targets (4,4,4) the visitor sees the first-use rule alone at
work: color 1 leads and color 3 comes only after color 2.  With (5,3) the
two colors are not interchangeable, so color 2 may lead.
"""

import time

from ramsey_pm import BudgetExceededError, enumerate_colorings, mono_pm_profile

out = enumerate_colorings(7, (5, 5, 5))
verdict = "every coloring succeeds" if out.counterexample is None else "counterexample"
print(f"targets (5,5,5) on K_7: {verdict} after only {out.nodes} nodes")
print("  (3^21 colorings exist; the prunes leave almost nothing to visit)")
print()

out6 = enumerate_colorings(6, (5, 5, 5))
print(f"the same targets on K_6: counterexample after {out6.nodes} nodes")
print(f"  witness profile: {mono_pm_profile(out6.counterexample)}")
print()

print("the colorings of K_3 that a visitor sees, as colors of (0,1), (0,2), (1,2):")
for ts, note in (((4, 4, 4), "equal thresholds: first-use order, color 1 leads"),
                 ((5, 3), "unequal thresholds: color 2 may lead")):
    leaves = []
    enumerate_colorings(3, ts, leaves.append)
    print(f"  targets {ts} ({note}):")
    print("    " + "  ".join("".join(map(str, col.colors)) for col in leaves))
print()

print("progress reporting on a long run: no color reaches 8 on K_7, so")
print("nothing is pruned as a success, and the visitor never stops the")
print("search, which runs out of its 1.5 s time budget:")
snapshots, visited = [], []  # the hook fires at most once a second
started = time.monotonic()
try:
    enumerate_colorings(7, (8, 8, 8), visited.append, time_budget=1.5,
                        progress=snapshots.append)
except BudgetExceededError as err:
    elapsed = time.monotonic() - started
    for snap in snapshots:
        rate = snap["nodes"] / max(snap["elapsed"], 1e-9)
        print(f"  {snap['nodes']:>6} nodes, {snap['leaves']:>4} colorings "
              f"visited, {rate:,.0f} nodes/s")
    print(f"  outcome: {err} after {err.nodes} nodes, {len(visited)} colorings "
          f"visited, {err.nodes / elapsed:,.0f} nodes/s")
print(f"  progress reports: {len(snapshots)} (at most one a second)")
