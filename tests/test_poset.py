"""Poset structure: order, covers, components, tower maps, EL labels."""

import itertools
import random
from types import SimpleNamespace

import pytest

from conftest import FIG8, GRANNY9, TORUS34, TREFOIL5, UNKNOT2
from gridhfk.complexes import (
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_GRID,
    build_minus_complex,
    build_tilde_complex,
    move_table,
    rect_key,
)
from gridhfk.errors import EmptyInterval, InvalidDifferential, ResourceLimit
from gridhfk.gradings import alexander
from gridhfk.grid import Grid, link_components
from gridhfk.homology import homology
from gridhfk.moves import random_knot_grid
from gridhfk import poset
from gridhfk.poset import (
    ELLabel,
    _bits,
    _make_poset,
    _parities,
    _posets,
    alexander_range,
    build_poset,
    components,
    connecting_domain,
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
from oracles import staircase_coeffs, verify_boundary

UNKNOT3 = Grid(3, (0, 1, 2), (1, 2, 0))



def test_components_refuse_an_unknown_ring():
    """A bad ring name is a ValueError, not a broken differential."""
    p = build_poset(TREFOIL5, 0)
    for call in (lambda: components(p, "z"),
                 lambda: poset_stats(TREFOIL5, coefficients="z")):
        with pytest.raises(ValueError, match="coefficients must be") as info:
            call()
        assert not isinstance(info.value, InvalidDifferential)


def one_pass_posets(g, mode="hat", truncation=None):
    """The poset of every Alexander grading, from one builder pass."""
    return _posets(g, mode, truncation, alexander_range(g, mode, truncation),
                   DEFAULT_MAX_GRID, DEFAULT_MAX_ELEMENTS)


def all_posets(g, mode="hat", truncation=None):
    return [p for p in one_pass_posets(g, mode, truncation) if len(p)]


@pytest.mark.parametrize("g", [TREFOIL5, TORUS34], ids=["trefoil5", "torus34"])
def test_build_poset_matches_the_one_pass_posets(g):
    fields = ("alexander", "elements", "maslov", "covers", "below", "index")
    for p in one_pass_posets(g):
        q = build_poset(g, p.alexander)
        assert [getattr(q, f) for f in fields] == \
            [getattr(p, f) for f in fields]


def flat_covers(p):
    """(upper, lower, rect_id) triples of the poset's cover rows."""
    return [(u, l, rid) for u, row in enumerate(p.covers) for l, rid in row]


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
    assert len(p) == 1 and not flat_covers(p)
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
                     for i, row in enumerate(cc.diff) for j in row}
    poset_edges = set()
    for p in all_posets(TREFOIL5):
        for u, l, _ in flat_covers(p):
            poset_edges.add((p.elements[u], p.elements[l]))
    assert poset_edges == complex_edges


def test_minus_covers_equal_complex_entries():
    cc = build_minus_complex(UNKNOT3, 2)
    complex_edges = {(cc.labels[i], cc.labels[j])
                     for i, row in enumerate(cc.diff) for j in row}
    poset_edges = set()
    for p in all_posets(UNKNOT3, "minus", truncation=2):
        for u, l, _ in flat_covers(p):
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
        for u, l, _ in flat_covers(p):
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


def domain_leq(p, y, x):
    """The order from its definition, for checking the closure of covers.

    y <= x when x has the higher grading, the O multiplicities are the
    non-negative exponent gains, and the unique domain from x to y with
    those multiplicities (and none at the X's) is positive.
    """
    yi, xi = p.index[y], p.index[x]
    if yi == xi:
        return True
    if p.maslov[xi] <= p.maslov[yi]:
        return False
    (gx, fx), (gy, fy) = p._split(x), p._split(y)
    o_counts = tuple(b - a for a, b in zip(fx, fy))
    if min(o_counts) < 0:
        return False
    dom = connecting_domain(p.grid, gx, gy, o_counts)
    return dom is not None and dom.is_positive()


def planar_base(n, x, y):
    """Row r, column c: the points of y minus the points of x in rows
    0..r right of column c, counted one row at a time."""
    return [[sum((y[i] > c) - (x[i] > c) for i in range(r + 1))
             for c in range(n)] for r in range(n)]


def reference_zero_xo(g, x, y, o_counts=None, base=None):
    """Coefficients of the zero-XO domain from x to y, or None.

    The row and column shifts are found by a search over the marking
    incidence graph, rows and columns as its two kinds of node, with
    each marking an edge that prescribes the sum of its two shifts.
    They correct ``base``, the planar base by default.
    """
    n = g.n
    base = planar_base(n, x, y) if base is None else base
    o_counts = (0,) * n if o_counts is None else o_counts
    edges = [[(g.x_cols[r], -base[r][g.x_cols[r]]),
              (g.o_cols[r], o_counts[r] - base[r][g.o_cols[r]])]
             for r in range(n)]
    col_edges = [[] for _ in range(n)]
    for r in range(n):
        for c, s in edges[r]:
            col_edges[c].append((r, s))
    shift = {"row": [None] * n, "col": [None] * n}
    for seed in range(n):
        if shift["row"][seed] is not None:
            continue
        shift["row"][seed] = 0
        stack = [("row", seed)]
        while stack:
            kind, i = stack.pop()
            other = "col" if kind == "row" else "row"
            for j, s in (edges if kind == "row" else col_edges)[i]:
                val = s - shift[kind][i]
                if shift[other][j] is None:
                    shift[other][j] = val
                    stack.append((other, j))
                elif shift[other][j] != val:
                    return None
    return tuple(tuple(base[r][c] + shift["row"][r] + shift["col"][c]
                       for c in range(n)) for r in range(n))


def random_grid(rng, n):
    """A grid with random X and O columns: a knot or a link."""
    x_cols = rng.sample(range(n), n)
    while True:
        o_cols = rng.sample(range(n), n)
        if all(a != b for a, b in zip(x_cols, o_cols)):
            return Grid(n, tuple(x_cols), tuple(o_cols))


def planted_o_counts(g, base, rng):
    """O multiplicities of ``base`` shifted by random row annuli and the
    column annuli that clear every X: a domain with them exists."""
    n = g.n
    rows = [rng.randint(-2, 2) for _ in range(n)]
    cols = [0] * n
    for r in range(n):
        cols[g.x_cols[r]] = -base[r][g.x_cols[r]] - rows[r]
    return tuple(base[r][g.o_cols[r]] + rows[r] + cols[g.o_cols[r]]
                 for r in range(n))


def test_connecting_domain_matches_graph_search_reference():
    """Random grids, links among them, with O counts that are absent,
    random, or read off a domain that has them (so one exists)."""
    rng = random.Random(18)
    found = none = links = 0
    for case in range(6000):
        n = rng.randint(2, 7)
        g = random_grid(rng, n)
        links += link_components(g) > 1
        x = tuple(rng.sample(range(n), n))
        y = x if case % 10 == 0 else tuple(rng.sample(range(n), n))
        kind = case % 3
        if kind == 0:
            o_counts = None
        elif kind == 1:
            o_counts = tuple(rng.randint(-1, 2) for _ in range(n))
        else:
            o_counts = planted_o_counts(g, staircase_coeffs(g, x, y), rng)
        dom = connecting_domain(g, x, y, o_counts)
        want = reference_zero_xo(g, x, y, o_counts)
        assert (None if dom is None else dom.coeffs) == want, (g, x, y)
        if dom is None:
            assert kind != 2, "the planted domain has these O counts"
            none += 1
        else:
            assert verify_boundary(dom)
            found += 1
    assert found > 1500 and none > 1500 and links > 1000


def test_planar_base_is_the_staircase_up_to_annuli():
    """Against the staircase oracle, on random grids, links included: the
    domain ``connecting_domain`` returns differs from the staircase by a
    row shift plus a column shift, so the planar base it corrects does
    too.  On a knot it is the corrected staircase, the unique domain; on
    a link it may differ from that by annuli with no marking in them."""
    rng = random.Random(30)
    knots = links = moved = 0
    for _ in range(3000):
        n = rng.randint(2, 8)
        g = random_grid(rng, n)
        x = tuple(rng.sample(range(n), n))
        y = tuple(rng.sample(range(n), n))
        stair = staircase_coeffs(g, x, y)
        o_counts = planted_o_counts(g, stair, rng)
        got = connecting_domain(g, x, y, o_counts).coeffs
        delta = [[a - b for a, b in zip(*rows)] for rows in zip(got, stair)]
        assert all(delta[r][c] - delta[r][0] - delta[0][c] + delta[0][0] == 0
                   for r in range(n) for c in range(n)), (g, x, y)
        same = got == reference_zero_xo(g, x, y, o_counts, stair)
        if link_components(g) == 1:
            assert same, (g, x, y)
            knots += 1
        else:
            links += 1
            moved += not same
    assert knots > 1500 and links > 1000 and moved > 100


@pytest.mark.parametrize("g, mode, d", [
    (TREFOIL5, "hat", 1),
    (UNKNOT3, "minus", 2),
    (TREFOIL5, "minus", 2),
], ids=["trefoil5-hat", "unknot3-minus-d2", "trefoil5-minus-d2"])
def test_covers_carry_the_builder_rectangle_ids(g, mode, d):
    """Each element's cover row is the move table's row, as (target,
    rectangle id) pairs, less the moves whose O bumps reach ``d``."""
    n = g.n
    table = move_table(g, DEFAULT_MAX_GRID, "XO" if d == 1 else "X")
    expected = {}
    for x, targets, rids in zip(table.gens, table.targets, table.rids):
        for k in itertools.product(range(d), repeat=n):
            row = []
            for j, rid in zip(targets, rids):
                col, bottom, width, height = rect_key(n, rid)
                bumped = list(k)
                for r in range(bottom, bottom + height):
                    bumped[r % n] += (g.o_cols[r % n] - col) % n < width
                if max(bumped) < d:
                    row.append(((table.gens[j], tuple(bumped)), rid))
            expected[x, k] = row
    seen = 0
    for p in all_posets(g, mode, None if mode == "hat" else d):
        for u, element in enumerate(p.elements):
            assert [(p._split(p.elements[l]), rid) for l, rid in p.covers[u]] \
                == expected.pop(p._split(element))
            seen += 1
    assert not expected and seen == len(table.gens) * d ** n


def test_order_is_transitive_closure_of_covers():
    """leq, the closure of the covers, agrees with positive domains on
    every ordered pair of every grading."""
    rng = random.Random(61)
    cases = [(FIG8, "hat", None)]
    cases += [(random_knot_grid(n, rng), "hat", None) for n in (4, 5, 6)]
    cases += [(UNKNOT3, "minus", 3), (random_knot_grid(4, rng), "minus", 2)]
    for g, mode, truncation in cases:
        for p in all_posets(g, mode, truncation):
            for x in p.elements:
                for y in p.elements:
                    assert p.leq(y, x) == domain_leq(p, y, x), (g, y, x)


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


def filtered_covers(p, members):
    """The ambient covers between ``members``, by filtering the whole
    cover list: the reference for ``interval``'s rows."""
    local = {z: i for i, z in enumerate(members)}
    return [(local[u], local[l], rect) for u, l, rect in flat_covers(p)
            if u in local and l in local]


def upward_chains(p, y, x):
    """Cover paths from y up to x inside [y,x], walked upward with ``leq``
    tests: the reference for ``maximal_chains``."""
    yi, xi = p.index[y], p.index[x]
    up = {}
    for u, l, rect in flat_covers(p):
        up.setdefault(l, []).append((u, rect))
    chains = []
    stack = [((yi,), ())]
    while stack:
        path, rects = stack.pop()
        if path[-1] == xi:
            chains.append((path, rects))
            continue
        for u, rect in up.get(path[-1], ()):
            if p.maslov[u] <= p.maslov[xi] and p.leq(p.elements[u], x):
                stack.append((path + (u,), rects + (rect,)))
    return chains


def oracle_posets():
    return all_posets(TREFOIL5) + all_posets(UNKNOT3, "minus", truncation=2)


def test_interval_rows_are_ambient_covers_between_members():
    count = 0
    for p in oracle_posets():
        for y, x, _ in related_pairs(p, min_diff=0):
            for shape in ("closed", "half", "open"):
                sub = interval(p, y, x, shape)
                members = [p.index[e] for e in sub.elements]
                assert flat_covers(sub) == filtered_covers(p, members)
            count += 1
    assert count == 471  # related pairs, y = x included


def test_maximal_chains_match_upward_walk():
    count = 0
    for p in oracle_posets():
        for y, x, _ in related_pairs(p, min_diff=0, max_diff=4):
            chains = maximal_chains(p, y, x)
            reference = upward_chains(p, y, x)
            assert len(chains) == len(reference)
            assert set(chains) == set(reference)
            count += 1
    assert count == 471  # every related pair has a gap of at most 4


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


def reference_tower_sum(p, k):
    """Sum over i + j = k of the composites d_j d_i, composed map by map:
    the reference for ``tower_sum``."""
    towers = {i: del_tower(p, i) for i in range(1, k)}
    out = [0] * len(p.maslov)
    for j in range(1, k):
        upper, lower = towers[j], towers[k - j]
        for xi in range(len(out)):
            for yi in _bits(upper[xi]):
                out[xi] ^= lower[yi]
    return out


def reference_parity(posets):
    """(related pairs, odd open intervals, sampling candidates) counted
    against the transpose of each order: the reference for the pass in
    ``poset_stats``."""
    pairs = odd = 0
    candidates = []
    for p in posets:
        up = [0] * len(p)
        for xi, mask in enumerate(p.below):
            for yi in _bits(mask):
                up[yi] |= 1 << xi
        for xi, mask in enumerate(p.below):
            for yi in _bits(mask ^ 1 << xi):
                pairs += 1
                # (y, x) has (mask & up[yi]).bit_count() - 2 elements
                odd += (mask & up[yi]).bit_count() & 1
                if 2 <= p.maslov[xi] - p.maslov[yi] <= 5:
                    candidates.append((p, yi, xi))
    return pairs, odd, candidates


def random_graded_poset(rng):
    """A poset on random cover rows, each cover one grading down.

    Grid posets have only even intervals; these mostly do not.
    """
    m = rng.randint(6, 12)
    maslov = [rng.randint(0, 5) for _ in range(m)]
    covers = [[(l, None) for l in range(m)
               if maslov[l] == maslov[u] - 1 and rng.random() < 0.5]
              for u in range(m)]
    return _make_poset(TREFOIL5, "hat", 0, tuple(range(m)), maslov, covers,
                       range(m))


def test_parities_and_tower_sum_on_random_graded_posets():
    """Bit y of entry x is the parity of [y, x], and the tower sums are
    the composed maps, on posets with odd intervals."""
    rng = random.Random(20)
    odd_posets = failing = 0
    for _ in range(3000):
        p = random_graded_poset(rng)
        parities = _parities(p)
        for xi, mask in enumerate(p.below):
            closed = [sum(p.below[z] >> yi & 1 for z in _bits(mask)) & 1
                      for yi in range(len(p))]
            assert [parities[xi] >> yi & 1 for yi in range(len(p))] == closed
        odd = reference_parity([p])[1]
        assert sum(e.bit_count() - 1 for e in parities) == odd
        odd_posets += odd > 0
        fails = False
        for k in range(2, 8):
            got = tower_sum(p, k)
            assert got == reference_tower_sum(p, k), (p.maslov, p.below, k)
            fails |= any(got)
        failing += fails
    assert odd_posets > 1500 and failing > 1500


def test_poset_stats_on_posets_with_odd_intervals(monkeypatch):
    """Random graded posets in place of the grid's: the parity and tower
    fields of the report are the transpose count and the composed maps."""
    rng = random.Random(21)
    monkeypatch.setattr(poset, "components", lambda p, *args: [])
    verdicts = set()
    for _ in range(300):
        posets = [random_graded_poset(rng) for _ in range(rng.randint(1, 3))]
        tower_k = rng.randint(2, 6)
        monkeypatch.setattr(poset, "_posets", lambda *args: posets)
        stats = poset_stats(TREFOIL5, max_intervals=0, tower_k=tower_k)
        pairs, odd, _ = reference_parity(posets)
        ok = all(not any(reference_tower_sum(p, k))
                 for p in posets for k in range(2, tower_k + 1))
        assert stats["parity"] == {"pairs": pairs, "odd_open_intervals": odd,
                                   "all_even": odd == 0}
        assert stats["tower"] == {
            "max_k": tower_k, "ok": ok,
            "del2_in_boundaries": all(map(reference_del2, posets))}
        verdicts.add((odd == 0, ok))
    assert verdicts == {(True, True), (False, False)}


@pytest.mark.parametrize("g, mode, truncation, seed", [
    (TORUS34, "hat", None, 0),
    (TREFOIL5, "minus", 2, 3),
], ids=["torus34-hat", "trefoil5-minus-d2"])
def test_poset_stats_samples_the_reference_candidates(monkeypatch, g, mode,
                                                      truncation, seed):
    """The certified pairs are the transpose loop's candidates after the
    same seeded shuffle, in the same order."""
    certified = []
    certify = poset._certify
    monkeypatch.setattr(poset, "_certify", lambda p, yi, xi: certified.append(
        (p.alexander, yi, xi)) or certify(p, yi, xi))
    stats = poset_stats(g, mode, truncation, seed=seed)
    candidates = reference_parity(all_posets(g, mode, truncation))[2]
    random.Random(seed).shuffle(candidates)
    assert certified == [(p.alexander, yi, xi)
                         for p, yi, xi in candidates[:200]]
    assert stats["el"]["intervals_checked"] == 200 < len(candidates)


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


def reference_del2(p):
    """The d2 check by two eliminations and a replay of each cycle.

    im d1 goes into pivot form on its own; a second elimination of the
    d1 rows tracks each row's combination bitmask, and every combination
    that reduces to zero (a cycle) is pushed through d2 bit by bit and
    reduced against the image.
    """
    d1, d2 = del_tower(p, 1), del_tower(p, 2)
    image = {}

    def reduce(v):
        while v and v.bit_length() - 1 in image:
            v ^= image[v.bit_length() - 1]
        return v

    for row in d1:
        rest = reduce(row)
        if rest:
            image[rest.bit_length() - 1] = rest
    pivots, kernel = {}, []
    for idx, row in enumerate(d1):
        v, combo = row, 1 << idx
        while v:
            piv = v.bit_length() - 1
            if piv not in pivots:
                pivots[piv] = (v, combo)
                break
            v ^= pivots[piv][0]
            combo ^= pivots[piv][1]
        else:
            kernel.append(combo)
    for combo in kernel:
        w = 0
        for idx in range(len(d1)):
            if combo >> idx & 1:
                w ^= d2[idx]
        if reduce(w):
            return False
    return True


def test_del2_matches_two_pass_reference_on_random_rows():
    """Random gradings and lower sets: del_tower reads only these two."""
    rng = random.Random(18)
    outcomes = []
    for _ in range(2400):
        m = rng.randint(1, 9)
        stub = SimpleNamespace(
            maslov=tuple(rng.randint(0, 3) for _ in range(m)),
            below=tuple(rng.getrandbits(m) for _ in range(m)))
        got = del2_lands_in_boundaries(stub)
        assert got == reference_del2(stub), stub
        outcomes.append(got)
    assert outcomes.count(True) > 400 and outcomes.count(False) > 400


@pytest.mark.parametrize("g, mode, truncation", [
    (TREFOIL5, "hat", None),
    (TREFOIL5, "minus", 2),
    (TORUS34, "hat", None),
], ids=["trefoil5-hat", "trefoil5-minus-d2", "torus34-hat"])
def test_del2_matches_two_pass_reference_on_grid_posets(g, mode, truncation):
    for p in all_posets(g, mode, truncation):
        assert del2_lands_in_boundaries(p) == reference_del2(p)


def test_del2_fails_when_d2_sends_a_cycle_outside_the_boundaries():
    """z at grading 0 below x at grading 2 with nothing between: d1 = 0,
    so x is a cycle and no element is a boundary, and d2(x) = z."""
    stub = SimpleNamespace(maslov=(0, 2), below=(0b01, 0b11))
    assert del_tower(stub, 1) == [0, 0] and del_tower(stub, 2) == [0, 0b01]
    assert not del2_lands_in_boundaries(stub)
    assert not reference_del2(stub)


@pytest.mark.parametrize("k", [1, 0, -3])
def test_tower_sum_refuses_a_level_below_two(k):
    """Below level 2 there is no identity, and all-zero rows would pass."""
    with pytest.raises(ValueError, match="tower level must be >= 2"):
        tower_sum(build_poset(TREFOIL5, 0), k)


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
        assert edges == {(u, l) for u, l, _ in flat_covers(p)}


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
        for _, _, rid in flat_covers(p):
            lab = el_label(p, rid)
            col, _, width, _ = rect_key(n, rid)
            crosses = (ref - col) % n < width
            assert (lab.s == 0) == crosses
            assert lab.t == width
            if lab.s == 0:
                assert lab.i == (ref - col) % n + 1
                seen_s0 = True
            else:
                assert lab.i == (col - ref) % n
                seen_s1 = True
    assert seen_s0 and seen_s1


def test_el_label_right_neighbor_column():
    # left edge one column right of the reference, not crossing it
    p = build_poset(TREFOIL5, -1)
    ref = TREFOIL5.x_cols[0]
    n = TREFOIL5.n
    hits = []
    for _, _, rid in flat_covers(p):
        col, _, width, _ = rect_key(n, rid)
        if col == (ref + 1) % n and (ref - col) % n >= width:
            hits.append((rid, width))
    assert hits
    for rid, width in hits:
        lab = el_label(p, rid)
        assert (lab.s, lab.i) == (1, 1)
        assert lab.t == width


def test_el_labels_identify_cover_from_below():
    """A lower endpoint and a label determine the covering rectangle."""
    for p in all_posets(TREFOIL5):
        seen = {}
        for u, l, rid in flat_covers(p):
            key = (l, el_label(p, rid))
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
    """The height as the thickness breaks the shelling property, which
    is what pins the width convention."""
    failures = 0
    n = TREFOIL5.n
    for p in all_posets(TREFOIL5):
        for y, x, _ in related_pairs(p, min_diff=2, max_diff=5):
            labeled = [tuple(el_label(p, rid)._replace(t=rect_key(n, rid)[3])
                             for rid in rids)
                       for _, rids in maximal_chains(p, y, x)]
            increasing = [seq for seq in labeled
                          if all(a <= b for a, b in zip(seq, seq[1:]))]
            if increasing != [min(labeled)]:
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
    with pytest.raises(ResourceLimit, match="hat basis has 120 elements"):
        build_poset(TREFOIL5, 0, "hat", max_elements=100)


def test_element_ceiling_refuses_before_any_table(monkeypatch):
    """The granny's minus complex (n! * 2^9 elements) and hat posets (9!)
    are over the 200,000 ceiling, and are refused before a move table."""
    def refuse(*args):
        raise AssertionError("a move table was built before the ceiling")

    monkeypatch.setattr("gridhfk.complexes.move_table", refuse)
    monkeypatch.setattr("gridhfk.poset.move_table", refuse)
    with pytest.raises(ResourceLimit,
                       match="truncated minus basis has 185794560 elements"):
        build_minus_complex(GRANNY9, 2)
    for call in (lambda: build_poset(GRANNY9, 0),
                 lambda: poset_stats(GRANNY9)):
        with pytest.raises(ResourceLimit, match="hat basis has 362880"):
            call()


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


def test_poset_stats_checks_its_arguments_before_any_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a move table was built before the checks")

    monkeypatch.setattr("gridhfk.poset.move_table", refuse)
    with pytest.raises(ValueError, match="coefficients must be"):
        poset_stats(TREFOIL5, coefficients="z")
    with pytest.raises(ValueError, match="max_intervals must be >= 0"):
        poset_stats(TREFOIL5, max_intervals=-1)
    for tower_k in (1, 0):
        with pytest.raises(ValueError, match="tower_k must be >= 2"):
            poset_stats(TREFOIL5, tower_k=tower_k)


def test_poset_stats_certifies_sampled_intervals(monkeypatch):
    """An interval with no positive domain behind it fails the run."""
    monkeypatch.setattr("gridhfk.poset.connecting_domain",
                        lambda *args: None)
    with pytest.raises(InvalidDifferential):
        poset_stats(TREFOIL5)


@pytest.mark.parametrize("g, mode, truncation, pairs", [
    (TREFOIL5, "minus", 2, 30540),
    (TORUS34, "hat", None, 29225),
], ids=["trefoil5-minus-d2", "torus34-hat"])
def test_poset_stats_parity_matches_interval_recount(g, mode, truncation,
                                                      pairs):
    """The bitset parity against one open sub-poset per related pair."""
    odd = 0
    for p in all_posets(g, mode, truncation):
        for xi, x in enumerate(p.elements):
            for yi in range(len(p)):
                if yi != xi and p.below[xi] >> yi & 1:
                    odd += len(interval(p, p.elements[yi], x, "open")) % 2
    assert poset_stats(g, mode, truncation)["parity"] == {
        "pairs": pairs, "odd_open_intervals": odd, "all_even": odd == 0}


def test_poset_stats_certifies_interval_sizes(monkeypatch):
    """An open interval one element larger than the bitsets count fails."""
    monkeypatch.setattr(
        "gridhfk.poset.interval",
        lambda p, y, x, shape="closed":
            interval(p, y, x, "half" if shape == "open" else shape))
    with pytest.raises(InvalidDifferential, match="bitsets count"):
        poset_stats(TREFOIL5)


def test_poset_stats_walks_the_basis_once(monkeypatch):
    """One Alexander grading per generator, not one per generator and A."""
    calls = []
    monkeypatch.setattr("gridhfk.complexes.alexander",
                        lambda g, x: calls.append(x) or alexander(g, x))
    poset_stats(TORUS34)
    assert len(calls) == 5040


def test_poset_stats_minus_pinned():
    """A truncated minus report, as computed by per-pair domain solves."""
    g = Grid(4, (1, 2, 3, 0), (3, 0, 2, 1))

    def grading(a, m, elements, free):
        return {"alexander": a, "elements": elements, "components": [
            {"size": elements, "homology": [
                {"m": m, "a": a, "free": free, "torsion": []}]}]}

    assert poset_stats(g, "minus", 2) == {
        "grid": {"n": 4, "x_cols": [1, 2, 3, 0], "o_cols": [3, 0, 2, 1]},
        "mode": "minus",
        "truncation": 2,
        "coefficients": "F2",
        "gradings": [
            grading(-7, -11, 3, 1), grading(-6, -9, 25, 1),
            grading(-5, -8, 77, 3), grading(-4, -6, 119, 3),
            grading(-3, -5, 101, 3), grading(-2, -3, 47, 3),
            grading(-1, -2, 11, 1), grading(0, 0, 1, 1),
        ],
        "components_total": 8,
        "singletons": 1,
        "parity": {"pairs": 1480, "odd_open_intervals": 0, "all_even": True},
        "tower": {"max_k": 4, "ok": True, "del2_in_boundaries": True},
        "el": {"intervals_checked": 200, "failures": 0, "ok": True},
    }


def test_poset_stats_minus_z_pinned():
    """Z components of (x, k) elements, signed by their generator's row."""
    stats = poset_stats(TREFOIL5, "minus", 2, "Z", solve_signs(TREFOIL5))
    assert [gr["elements"] for gr in stats["gradings"]] == \
        [1, 10, 66, 261, 626, 956, 956, 626, 261, 66, 10, 1]
    assert (stats["components_total"], stats["singletons"]) == (41, 12)
    assert stats["parity"]["pairs"] == 30540
    groups = [h for gr in stats["gradings"] for c in gr["components"]
              for h in c["homology"]]
    assert not any(h["torsion"] for h in groups)
    nonzero = {gr["alexander"]: [
        (c["size"], [(h["m"], h["free"]) for h in c["homology"]])
        for c in gr["components"] if c["homology"]]
        for gr in stats["gradings"]}
    assert nonzero == {
        -10: [(1, [(-14, 1)])],
        -9: [],
        -8: [(41, [(-12, 1)])] + [(1, [(-11, 1)])] * 5,
        -7: [(241, [(-10, 1)])],
        -6: [(621, [(-8, 5), (-9, 4)])] + [(1, [(-8, 1)])] * 5,
        -5: [(956, [(-7, 4)])],
        -4: [(956, [(-5, 10), (-6, 6)])],
        -3: [(626, [(-4, 6)])],
        -2: [(261, [(-2, 5), (-3, 4)])],
        -1: [(66, [(-1, 4)])],
        0: [(10, [(1, 1), (0, 1)])],
        1: [(1, [(2, 1)])],
    }
