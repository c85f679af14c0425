#!/usr/bin/env python3
"""Covering designs as the engine behind the 1-core values.

An r-coloring whose color-i 1-core stays below p_i is the same thing as a
cover of K_n by blocks of sizes p_i - 1, so feasibility questions become
block-cover searches, all through cover_feasible_with_stats.  This script
pokes at exact covering numbers, at covers well above K_64 (budgets are the
search's only limit), and at the ten-color, target-six computation that the
closed forms cannot settle.
"""

from ramsey_pm import (cover_feasible_with_stats, covering_lower_schonheim, covering_number,
                       exact_core_ramsey, exact_pm_ramsey, pm_lowers, pm_upper)
from ramsey_pm.graphs import bits

print("exact covering numbers C(v,k) (minimum blocks of size <= k covering K_v):")
for v, k in [(5, 3), (7, 3), (9, 5), (10, 5), (12, 5)]:
    exact = covering_number(v, k)
    print(f"  C({v},{k}) = {exact}  (iterated-ceiling bound: "
          f"{covering_lower_schonheim(v, k)})")
print()

cover = cover_feasible_with_stats(6, (4, 4, 4))[0]
print("a cover of K_6 by three 4-blocks (pairing up a tripartition):")
for i, blk in enumerate(cover.blocks, 1):
    print(f"  block {i}: {[v + 1 for v in bits(blk)]}")
print()

print("scan behind R_1C(5,5,5): K_6 is coverable by three 4-blocks, K_7 is not")
print("  ->", exact_core_ramsey((5, 5, 5)).value)
print()

# the cover search has no size cap, only its budgets: vertex sets are ints
big = exact_core_ramsey((100, 100, 100))
print(f"R_1C(100,100,100) = {big.value} in {big.stats.nodes} nodes; the cover of "
      f"K_{big.lower_witness.n} has blocks of sizes {big.lower_witness.block_sizes()}")
print(f"C(100,50) = {covering_number(100, 50)}, C(13,2) = {covering_number(13, 2)}")
print()

# ten colors, target six: the regime where the standard formula stops
# being exact and covering numbers take over
targets = (6,) * 10
lo = pm_lowers(targets)
print(f"targets {targets}:")
print(f"  standard lower {lo[0]}, design lower {lo[1]}, upper {pm_upper(targets)}")
res = exact_pm_ramsey(targets, strategy="reduction")
print(f"  reduction route value: {res.value}")
print(f"  witness: K_{res.lower_witness.n}, a rainbow-core lift")
print()
print("the grid behind that value (shift k targets from 6 down to 3):")
for k in range(0, 11):
    shifted = (6,) * (10 - k) + (3,) * k
    core = exact_core_ramsey(shifted).value
    marker = " <- maximum" if core + k == res.value else ""
    print(f"  k={k:>2}: R_1C{shifted} + {k} = {core + k}{marker}")
