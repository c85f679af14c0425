from itertools import combinations_with_replacement

import pytest

from ramsey_pm.coloring import (EdgeColoring, core_lift_coloring,
                                layered_coloring, mono_core_profile,
                                mono_pm_profile, pm_extremal_coloring)
from ramsey_pm.core_ramsey import cover_to_coloring, exact_core_ramsey
from ramsey_pm.bounds import ceil_third, sorted_targets


def test_target_vector_validation():
    for bad in ((), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            sorted_targets(bad)
    assert sorted_targets([3, 5, 4]) == (5, 4, 3)


def test_layered_single_edge():
    c = layered_coloring([2, 0])
    assert c.n == 2 and c.r == 2
    assert c.color_of(0, 1) == 1


def test_layered_411():
    c = layered_coloring([4, 1, 1])
    assert c.n == 6
    k4 = c.color_class(1)
    assert k4.edge_count() == 6 and all(k4.degree(v) == 3 for v in range(4))
    star5 = c.color_class(2)
    assert star5.edge_count() == 4 and star5.degree(4) == 4
    star6 = c.color_class(3)
    assert star6.edge_count() == 5 and star6.degree(5) == 5


def test_layered_31():
    c = layered_coloring([3, 1])
    assert c.color_class(2).edge_count() == 3
    assert c.color_class(2).degree(3) == 3


def test_layered_rejects_tiny():
    with pytest.raises(ValueError):
        layered_coloring([1])
    with pytest.raises(ValueError):
        layered_coloring([0, 1])


def test_layered_classes_partition_edges():
    c = layered_coloring([3, 2, 2])
    part = [1, 1, 1, 2, 2, 3, 3]
    for u in range(c.n):
        for v in range(u + 1, c.n):
            assert c.color_of(u, v) == max(part[u], part[v])
    assert sum(c.color_class(i).edge_count() for i in (1, 2, 3)) == 21


def test_pm_extremal_shapes():
    assert pm_extremal_coloring((5, 5, 5)).colors == layered_coloring([4, 1, 1]).colors
    assert pm_extremal_coloring((4, 4, 4)).colors == layered_coloring([3, 1, 1]).colors
    c = pm_extremal_coloring((5, 2))
    assert c.n == 4 and all(c.color_of(u, v) == 1 for u in range(4) for v in range(u + 1, 4))


def test_profiles_on_411():
    c = layered_coloring([4, 1, 1])
    assert mono_pm_profile(c) == (4, 3, 3)
    assert mono_core_profile(c) == (4, 5, 6)


def test_profiles_trivia():
    mono = layered_coloring([4])
    assert mono_pm_profile(mono) == (4,)
    assert mono_core_profile(mono) == (4,)
    rainbow = EdgeColoring(3, 3, (1, 2, 3))
    assert mono_pm_profile(rainbow) == (2, 2, 2)
    assert mono_core_profile(rainbow) == (2, 2, 2)


def test_extremal_validity_exhaustive_r_le_3():
    for r in range(1, 4):
        for tv in combinations_with_replacement(range(9, 1, -1), r):
            tv = tuple(sorted(tv, reverse=True))
            if tv[0] < 3 and sum(x - 1 for x in [tv[0]] + [ceil_third(t) for t in tv[1:]]) < 1:
                continue
            try:
                c = pm_extremal_coloring(tv)
            except ValueError:
                continue  # degenerate: fewer than two vertices
            prof = mono_pm_profile(c)
            assert all(q <= p - 1 for q, p in zip(prof, tv)), (tv, prof)


def test_extremal_validity_sampled_r45(rng):
    for _ in range(60):
        r = rng.randint(4, 5)
        tv = tuple(sorted((rng.randint(2, 9) for _ in range(r)), reverse=True))
        try:
            c = pm_extremal_coloring(tv)
        except ValueError:
            continue
        prof = mono_pm_profile(c)
        assert all(q <= p - 1 for q, p in zip(prof, tv)), (tv, prof)


def test_core_lift_identity():
    c = layered_coloring([2, 2])
    lifted = core_lift_coloring(c, [0, 0])
    assert lifted.colors == c.colors


def test_core_lift_rainbow_k5_gives_k15_witness():
    # ten singleton blocks over a rainbow K_5 keeps every color's
    # path-matching at order 5 on fifteen vertices
    res = exact_core_ramsey((3,) * 10)
    assert res.value == 6
    core = cover_to_coloring(res.lower_witness)
    assert core.n == 5
    lifted = core_lift_coloring(core, [1] * 10)
    assert lifted.n == 15
    prof = mono_pm_profile(lifted)
    assert all(q <= 5 for q in prof), prof


def test_core_lift_validity_random(rng):
    # whenever the core respects p_i - 3x_i - 1 on its 1-cores, the lift
    # respects p_i - 1 on its path-matchings
    for _ in range(25):
        r = rng.randint(2, 4)
        tv = tuple(sorted((rng.randint(3, 7) for _ in range(r)), reverse=True))
        xs = tuple(rng.randint(0, ceil_third(p) - 1) for p in tv)
        shifted = tuple(p - 3 * x for p, x in zip(tv, xs))
        res = exact_core_ramsey(tuple(sorted(shifted, reverse=True)))
        cover = res.lower_witness
        order = sorted(range(r), key=lambda i: (-shifted[i], i))
        blocks = [0] * r
        for slot, orig in enumerate(order):
            blocks[orig] = cover.blocks[slot]
        from ramsey_pm.core_ramsey import BlockCover
        core = cover_to_coloring(BlockCover(cover.n, tuple(p - 1 for p in shifted),
                                            tuple(blocks)))
        core_prof = mono_core_profile(core)
        assert all(q <= p - 3 * x - 1 for q, p, x in zip(core_prof, tv, xs))
        lifted = core_lift_coloring(core, xs)
        prof = mono_pm_profile(lifted)
        assert all(q <= p - 1 for q, p in zip(prof, tv)), (tv, xs, prof)


def test_profile_invariance_under_relabelling(rng):
    c = layered_coloring([3, 2, 1])
    for _ in range(10):
        perm = list(range(c.n))
        rng.shuffle(perm)
        assert mono_pm_profile(c.relabel(perm)) == mono_pm_profile(c)
        assert mono_core_profile(c.relabel(perm)) == mono_core_profile(c)


def test_profile_equivariance_under_color_permutation(rng):
    c = layered_coloring([2, 2, 2])
    base_pm = mono_pm_profile(c)
    base_core = mono_core_profile(c)
    for _ in range(10):
        cmap = [1, 2, 3]
        rng.shuffle(cmap)
        permuted = c.permute_colors(cmap)
        for old in range(3):
            assert mono_pm_profile(permuted)[cmap[old] - 1] == base_pm[old]
            assert mono_core_profile(permuted)[cmap[old] - 1] == base_core[old]


def test_lift_beyond_64_vertices():
    # colorings take any n: a 66-vertex lift paints its blocks as usual
    c = core_lift_coloring(layered_coloring([30, 30]), [3, 3])
    assert c.n == 66
    assert mono_core_profile(c) == (63, 66)
    assert c.color_of(0, 1) == 1 and c.color_of(0, 60) == 1 and c.color_of(0, 63) == 2


def test_layered_coloring_beyond_64_vertices():
    for sizes, profile in (([32, 32], (32, 64)), ([33, 32], (33, 65)), ([60, 60], (60, 120))):
        c = layered_coloring(sizes)
        assert c.n == sum(sizes) and mono_core_profile(c) == profile, sizes
    # any number of colors: color i sees parts 1..i, and the last part,
    # one vertex, centres one path on 3 vertices
    c = layered_coloring([2] * 4 + [1] * 66)
    assert (c.n, c.r) == (74, 70)
    assert mono_core_profile(c) == (2, 4, 6, 8) + tuple(range(9, 75))
    assert mono_pm_profile(c)[-1] == 3
    for n, r in ((0, 1), (2, 0)):
        with pytest.raises(ValueError):
            EdgeColoring(n, r, ())


def test_class_rows_partition_the_edges(rng):
    # one pass fills every color's rows: each edge sits in exactly the
    # class of its color, in both of its endpoints' rows
    for _ in range(40):
        n, r = rng.randint(1, 12), rng.randint(1, 6)
        c = EdgeColoring(n, r, tuple(rng.randint(1, r) for _ in range(n * (n - 1) // 2)))
        rows = c.class_rows()
        assert len(rows) == r and all(len(cls) == n for cls in rows)
        for u in range(n):
            assert all(not cls[u] >> u & 1 for cls in rows)
            for v in range(u + 1, n):
                owners = [col for col in range(1, r + 1)
                          if rows[col - 1][u] >> v & 1 and rows[col - 1][v] >> u & 1]
                assert owners == [c.color_of(u, v)], (n, r, u, v)
        assert sum(row.bit_count() for cls in rows for row in cls) == n * (n - 1)
        for color in range(1, r + 1):
            assert c.color_class(color).rows == tuple(rows[color - 1])


def test_restrict_keeps_the_first_vertices(rng):
    for _ in range(30):
        n, r = rng.randint(1, 10), rng.randint(1, 4)
        c = EdgeColoring(n, r, tuple(rng.randint(1, r) for _ in range(n * (n - 1) // 2)))
        for m in range(1, n + 1):
            cut = c.restrict(m)
            assert (cut.n, cut.r) == (m, r)
            assert all(cut.color_of(u, v) == c.color_of(u, v)
                       for u in range(m) for v in range(u + 1, m))
        assert c.restrict(n) == c
        for bad in (0, n + 1):
            with pytest.raises(ValueError, match=f"need 1 <= n <= {n}, got {bad}"):
                c.restrict(bad)
