#!/usr/bin/env python3
"""Exact Ramsey values by two independent routes, with witnesses.

The reduction route maximizes (1-core value of shifted targets) + shift
over the integer grid 0 <= x_i < p_i/3; the search route enumerates
colorings directly.  Both land on the same numbers, and every value comes
with a validated bad coloring one vertex below it.
"""

from ramsey_pm import exact_core_ramsey, exact_pm_ramsey, mono_pm_profile

print("small exact path-matching values (reduction route):")
for targets in [(3, 3, 3), (3, 3, 3, 3), (4, 3, 3, 3), (4, 4, 4), (5, 5, 5),
                (6, 6), (6, 5, 4)]:
    res = exact_pm_ramsey(targets, strategy="reduction")
    prof = mono_pm_profile(res.lower_witness)
    print(f"  R_PM{targets} = {res.value}   witness on K_{res.lower_witness.n} "
          f"with profile {prof}")
print()

print("the same values by direct exhaustive search, which runs at every size:")
for targets in [(3, 3, 3), (4, 3, 3, 3), (4, 4, 4), (5, 5), (5, 5, 5), (6, 6, 6)]:
    res = exact_pm_ramsey(targets, strategy="search")
    print(f"  R_PM{targets} = {res.value}   ({res.method}, "
          f"{res.stats.nodes} search nodes)")
print()

print("path-matchings versus 1-cores: the two values can split")
for targets in [(5, 5, 5), (4, 4, 4), (4, 3, 3, 3)]:
    pm = exact_pm_ramsey(targets, strategy="reduction").value
    core = exact_core_ramsey(targets).value
    relation = "=" if pm == core else ">"
    print(f"  R_PM{targets} = {pm} {relation} {core} = R_1C{targets}")
print()

print("uniform families: targets 4 and 5 grow linearly in the color count")
for r in range(2, 6):
    r4 = exact_pm_ramsey((4,) * r, strategy="reduction").value
    r5 = exact_pm_ramsey((5,) * r, strategy="reduction").value
    print(f"  r={r}: R_PM_r(4) = {r4} = r+3,   R_PM_r(5) = {r5} = r+4")
