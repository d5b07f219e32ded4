"""Poset structure: order, covers, components, tower maps, EL labels."""

import itertools
import random

import pytest

from conftest import TREFOIL5, UNKNOT2
from gridhfk.complexes import build_minus_complex, build_tilde_complex
from gridhfk.errors import EmptyInterval, ResourceLimit
from gridhfk.grid import Grid, random_knot_grid
from gridhfk.homology import homology
from gridhfk.poset import (
    ELLabel,
    alexander_range,
    build_poset,
    components,
    del2_lands_in_boundaries,
    del_tower,
    el_increasing_chain_check,
    el_label,
    interval,
    maximal_chains,
    poset_stats,
    tower_sum,
)
from gridhfk.signs import solve_signs

UNKNOT3 = Grid(3, (0, 1, 2), (1, 2, 0))


def all_posets(g, mode="hat", truncation=None):
    out = []
    for a in alexander_range(g, mode, truncation):
        p = build_poset(g, a, mode, truncation)
        if len(p):
            out.append(p)
    return out


def related_pairs(p, min_diff=1, max_diff=None):
    for xi in range(len(p)):
        for yi in range(len(p)):
            diff = p.maslov[xi] - p.maslov[yi]
            if diff < min_diff or (max_diff is not None and diff > max_diff):
                continue
            if p.leq(p.elements[yi], p.elements[xi]):
                yield p.elements[yi], p.elements[xi], diff


def test_unknot_singleton_poset():
    p = build_poset(UNKNOT2, 0)
    assert len(p) == 1 and not p.covers
    assert p.leq(p.elements[0], p.elements[0])


def test_trefoil_component_census():
    sa = solve_signs(TREFOIL5)
    sizes = []
    big = []
    for p in all_posets(TREFOIL5):
        for size, ranks in components(p, "Z", sa):
            sizes.append(size)
            if size > 1:
                big.append((size, dict(ranks.blocks)))
    assert len(sizes) == 25
    assert sizes.count(1) == 22
    big.sort(key=lambda item: (item[0], sorted(item[1])))
    assert big == [
        (26, {(-2, -3): (6, ())}),
        (26, {(0, -1): (6, ())}),
        (46, {(-1, -2): (14, ())}),
    ]


def test_component_ranks_sum_to_tilde_homology():
    total = homology(build_tilde_complex(TREFOIL5))
    acc = {}
    for p in all_posets(TREFOIL5):
        for _, ranks in components(p):
            for key, (free, torsion) in ranks.blocks.items():
                assert not torsion
                acc[key] = acc.get(key, 0) + free
    assert acc == {key: free for key, (free, _) in total.blocks.items()}


def test_singleton_components_have_rank_one():
    for p in all_posets(TREFOIL5):
        for size, ranks in components(p):
            if size == 1:
                assert ranks.total_rank == 1


def test_hat_covers_equal_tilde_boundary_entries():
    cc = build_tilde_complex(TREFOIL5)
    complex_edges = {(cc.labels[i], cc.labels[j])
                     for i, row in enumerate(cc.diff) for j, _ in row}
    poset_edges = set()
    for p in all_posets(TREFOIL5):
        for u, l, _ in p.covers:
            poset_edges.add((p.elements[u], p.elements[l]))
    assert poset_edges == complex_edges


def test_minus_covers_equal_complex_entries():
    cc = build_minus_complex(UNKNOT3, 2)
    complex_edges = {(cc.labels[i], cc.labels[j])
                     for i, row in enumerate(cc.diff) for j, _ in row}
    poset_edges = set()
    for p in all_posets(UNKNOT3, "minus", truncation=2):
        for u, l, _ in p.covers:
            poset_edges.add((p.elements[u], p.elements[l]))
    assert poset_edges == complex_edges


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hat_posets_are_minus_posets_at_d1(n):
    g = random_knot_grid(n, random.Random(43 + n))
    assert alexander_range(g) == alexander_range(g, "minus", 1)
    for a in alexander_range(g):
        hat, minus = build_poset(g, a), build_poset(g, a, "minus", 1)
        assert list(minus.elements) == [(x, (0,) * n) for x in hat.elements]
        assert minus.maslov == hat.maslov
        assert minus.covers == hat.covers


def test_covers_raise_grading_by_one():
    for p in all_posets(TREFOIL5) + all_posets(UNKNOT3, "minus", truncation=2):
        for u, l, _ in p.covers:
            assert p.maslov[u] == p.maslov[l] + 1


def test_order_axioms_small_grid():
    g = Grid(4, (1, 2, 3, 0), (2, 3, 0, 1))
    for p in all_posets(g):
        elems = p.elements
        for x in elems:
            assert p.leq(x, x)
        for x, y in itertools.permutations(elems, 2):
            if p.leq(x, y) and p.leq(y, x):
                pytest.fail(f"antisymmetry broken on {x}, {y}")
        for x, y, z in itertools.permutations(elems, 3):
            if p.leq(x, y) and p.leq(y, z):
                assert p.leq(x, z)


def test_order_is_transitive_closure_of_covers():
    """Every related pair of grading gap <= 3 is reached by cover steps."""
    g = Grid(4, (1, 2, 3, 0), (2, 3, 0, 1))
    for p in all_posets(g):
        up = {i: set() for i in range(len(p))}
        for u, l, _ in p.covers:
            up[l].add(u)
        reach = {i: {i} for i in range(len(p))}
        for _ in range(3):
            for i in range(len(p)):
                reach[i] |= {w for v in reach[i] for w in up[v]}
        for y, x, diff in related_pairs(p, max_diff=3):
            assert p.index[x] in reach[p.index[y]]


def test_interval_shapes():
    p = next(p for p in all_posets(TREFOIL5) if len(p) == 46)
    y, x, _ = max(related_pairs(p), key=lambda t: t[2])
    closed = interval(p, y, x, "closed")
    open_ = interval(p, y, x, "open")
    half = interval(p, y, x, "half")
    assert len(closed) == len(open_) + 2
    assert len(half) == len(open_) + 1
    assert y in closed.elements and x in closed.elements
    assert y not in open_.elements and x not in open_.elements
    assert y not in half.elements and x in half.elements
    singleton = interval(p, x, x, "closed")
    assert len(singleton) == 1


def test_interval_empty_raises():
    p = next(p for p in all_posets(TREFOIL5) if len(p) == 46)
    y, x, _ = next(related_pairs(p, min_diff=2))
    with pytest.raises(EmptyInterval):
        interval(p, x, y)  # reversed: x is not below y


def test_length_two_open_intervals_even():
    for p in all_posets(TREFOIL5):
        for y, x, _ in related_pairs(p, min_diff=2, max_diff=2):
            inner = interval(p, y, x, "open")
            assert len(inner) % 2 == 0 and len(inner) >= 2


def test_open_interval_parity_exhaustive_small():
    rng = random.Random(7)
    grids = [TREFOIL5, UNKNOT3, random_knot_grid(4, rng), random_knot_grid(5, rng)]
    for g in grids:
        for p in all_posets(g):
            for y, x, _ in related_pairs(p, min_diff=2):
                assert len(interval(p, y, x, "open")) % 2 == 0


def test_maximal_chain_lengths_match_grading_gap():
    for p in all_posets(TREFOIL5):
        for y, x, diff in related_pairs(p, min_diff=1, max_diff=4):
            chains = maximal_chains(p, y, x)
            assert chains
            assert all(len(path) == diff + 1 for path, _ in chains)


def test_closed_intervals_are_acyclic():
    """Restricting the boundary to a closed interval of length >= 1 kills
    all homology, checked by F2 rank counting on sampled intervals."""
    from gridhfk.linalg import f2_rank

    p = next(p for p in all_posets(TREFOIL5) if len(p) == 46)
    rng = random.Random(5)
    pairs = list(related_pairs(p, min_diff=1))
    rng.shuffle(pairs)
    for y, x, _ in pairs[:25]:
        sub = interval(p, y, x, "closed")
        rows = del_tower(sub, 1)
        rank = f2_rank(rows)
        assert len(sub) == 2 * rank  # full rank in both degrees: acyclic


def test_tower_identities():
    for p in all_posets(TREFOIL5):
        for k in range(2, 5):
            assert not any(tower_sum(p, k)), (p.alexander, k)


def test_tower_identity_is_parity_statement():
    # k = 2 is literally d_1 squared = 0
    for p in all_posets(TREFOIL5):
        d1 = del_tower(p, 1)
        for xi, row in enumerate(d1):
            acc = 0
            bits = row
            while bits:
                low = bits & -bits
                acc ^= d1[low.bit_length() - 1]
                bits ^= low
            assert acc == 0


def test_del2_lands_in_boundaries():
    for p in all_posets(TREFOIL5):
        assert del2_lands_in_boundaries(p)
    for p in all_posets(UNKNOT3, "minus", truncation=2):
        assert del2_lands_in_boundaries(p)


def test_del_tower_one_equals_covers():
    for p in all_posets(TREFOIL5):
        rows = del_tower(p, 1)
        edges = set()
        for xi, row in enumerate(rows):
            bits = row
            while bits:
                low = bits & -bits
                edges.add((xi, low.bit_length() - 1))
                bits ^= low
        assert edges == {(u, l) for u, l, _ in p.covers}


def test_del_tower_validates_index():
    p = build_poset(TREFOIL5, 1)
    with pytest.raises(ValueError):
        del_tower(p, 0)


# --------------------------------------------------------------- EL labels

def test_el_label_crossing_reference():
    ref = TREFOIL5.x_cols[0]
    n = TREFOIL5.n
    seen_s0 = seen_s1 = False
    for p in all_posets(TREFOIL5):
        for _, _, rect in p.covers:
            lab = el_label(p, rect)
            crosses = (ref - rect.col) % n < rect.width
            assert (lab.s == 0) == crosses
            assert lab.t == rect.width
            if lab.s == 0:
                assert lab.i == (ref - rect.col) % n + 1
                seen_s0 = True
            else:
                assert lab.i == (rect.col - ref) % n
                seen_s1 = True
    assert seen_s0 and seen_s1


def test_el_label_right_neighbor_column():
    # left edge one column right of the reference, not crossing it
    p = build_poset(TREFOIL5, -1)
    ref = TREFOIL5.x_cols[0]
    n = TREFOIL5.n
    hits = [rect for _, _, rect in p.covers
            if rect.col == (ref + 1) % n and (ref - rect.col) % n >= rect.width]
    assert hits
    for rect in hits:
        lab = el_label(p, rect)
        assert (lab.s, lab.i) == (1, 1)
        assert lab.t == rect.width


def test_el_labels_identify_cover_from_below():
    """A lower endpoint and a label determine the covering rectangle."""
    for p in all_posets(TREFOIL5):
        seen = {}
        for u, l, rect in p.covers:
            key = (l, el_label(p, rect))
            assert key not in seen or seen[key] == u
            seen[key] = u


def test_el_labels_lexicographic_order():
    assert ELLabel(0, 2, 1) < ELLabel(1, 0, 1)
    assert ELLabel(1, 1, 2) < ELLabel(1, 2, 1)
    assert ELLabel(1, 1, 1) < ELLabel(1, 1, 2)


def test_el_unique_increasing_chain_trefoil():
    count = 0
    for p in all_posets(TREFOIL5):
        for y, x, _ in related_pairs(p, min_diff=2, max_diff=5):
            assert el_increasing_chain_check(p, y, x)
            count += 1
    assert count == 75


def test_el_height_thickness_fails():
    """The alternative thickness reading breaks the shelling property,
    which is what pins the width convention."""
    failures = 0
    for p in all_posets(TREFOIL5):
        for y, x, _ in related_pairs(p, min_diff=2, max_diff=5):
            if not el_increasing_chain_check(p, y, x, thickness="height"):
                failures += 1
    assert failures == 12


def test_el_check_on_random_grids():
    rng = random.Random(123)
    for n in (4, 5):
        g = random_knot_grid(n, rng)
        for p in all_posets(g):
            for y, x, _ in related_pairs(p, min_diff=2, max_diff=5):
                assert el_increasing_chain_check(p, y, x)


def test_el_on_minus_posets():
    for p in all_posets(UNKNOT3, "minus", truncation=2):
        for y, x, _ in related_pairs(p, min_diff=2, max_diff=5):
            assert el_increasing_chain_check(p, y, x)


# ------------------------------------------------------------------- misc

def test_build_poset_validation():
    with pytest.raises(ValueError):
        build_poset(UNKNOT2, 0, "weird")
    with pytest.raises(ValueError):
        build_poset(UNKNOT2, 0, "minus")
    with pytest.raises(ResourceLimit):
        build_poset(TREFOIL5, 0, "minus", truncation=2, max_elements=100)


def test_leq_rejects_foreign_elements():
    p = build_poset(TREFOIL5, 1)
    with pytest.raises(KeyError):
        p.leq((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))


def test_poset_stats_summary():
    stats = poset_stats(TREFOIL5, seed=3)
    assert stats["components_total"] == 25
    assert stats["singletons"] == 22
    assert stats["parity"]["all_even"]
    assert stats["tower"]["ok"] and stats["tower"]["del2_in_boundaries"]
    assert stats["el"]["ok"] and stats["el"]["intervals_checked"] == 75
    sizes = sorted(c["size"] for g_ in stats["gradings"]
                   for c in g_["components"])
    assert sizes[-3:] == [26, 26, 46]
