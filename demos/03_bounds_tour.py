#!/usr/bin/env python3
"""Every closed-form bound in one place, on a few interesting vectors.

The standard value p1 - (r-1) + sum ceil(pi/3) is exact once p1 clears a
threshold in r; below it, covering designs take over and the design-style
lower bound can win.  Ten colors with target six is the showcase: the
standard lower bound gives 15 while the design bound gives 16.
"""

from ramsey_pm import (cockayne_lorimer, core_bounds_report, diagonal_guarantee,
                       covering_lower_eh, covering_lower_schonheim, pm_all3,
                       pm_bounds_report)

for targets in [(5, 5), (5, 5, 5), (6, 6, 6, 6, 6), (6,) * 10, (9, 7, 4, 3)]:
    rep = pm_bounds_report(targets)
    print(f"path-matching bounds for {rep.targets}:")
    for e in rep.entries:
        cond = ""
        if e.condition_holds is not None:
            cond = "  <- proven exact" if e.condition_holds else "  (not proven exact)"
        print(f"  {e.name:<16} {e.kind:<20} {e.value}{cond}")
    print()

print("1-core bounds for (6,6,6,6,6):")
for e in core_bounds_report((6,) * 5).entries:
    print(f"  {e.name:<22} {e.kind:<8} {e.value}")
print()

print("uniform target 3 is a pure counting problem: the value is the")
print("smallest n with C(n,2) > r")
for r in (2, 3, 6, 10, 12):
    print(f"  r={r:>2}: {pm_all3(r)}")
print()

print("covering number lower bounds (v, block size k):")
for v, k in [(9, 4), (9, 5), (13, 5)]:
    print(f"  C({v},{k}) >= {covering_lower_eh(v, k)} (counting), "
          f">= {covering_lower_schonheim(v, k)} (iterated ceiling)")
print()

print("matching Ramsey numbers for comparison (exact, classical):")
for tv in [(4, 4), (4, 3, 2), (6, 6, 6)]:
    print(f"  R_M{tv} = {cockayne_lorimer(tv)}")
print()

print("guaranteed monochromatic path-matching in any r-coloring of K_n:")
for n, r in [(12, 2), (14, 5), (20, 3)]:
    print(f"  n={n}, r={r}: order >= {diagonal_guarantee(n, r)}")
