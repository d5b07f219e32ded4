"""Move tables: each rectangle class against the definition and the full table."""

import gc
import random
import weakref
from collections import Counter

import pytest

import gridhfk.complexes as complexes
from conftest import FIG8, TORUS34, TREFOIL5, UNKNOT2
from gridhfk.complexes import (
    MoveTable,
    Rectangle,
    _check_address_space,
    move_table,
    rect_ids,
    rect_key,
)
from gridhfk.errors import ResourceLimit
from gridhfk.invariants import check_invariance, hat_homology
from gridhfk.moves import random_knot_grid
from gridhfk.poset import poset_stats
from gridhfk.signs import solve_signs

_rng = random.Random(41)
GRIDS = [UNKNOT2, TREFOIL5, FIG8, TORUS34] + [
    random_knot_grid(n, _rng) for n in (3, 4, 4, 5, 5, 6, 6)]
IDS = [f"n{g.n}-{k}" for k, g in enumerate(GRIDS)]


def _reference_moves(g, x):
    """Empty rectangles out of ``x`` straight from the definition.

    For each pair of rows, the rectangle with its lower-left corner on the
    lower row and the one wrapping from the upper row; a rectangle counts
    when no point of ``x`` lies strictly inside it.
    """
    n = g.n
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            c1, c2 = x[r1], x[r2]
            y = list(x)
            y[r1], y[r2] = c2, c1
            for a, b, w, h in ((c1, r1, (c2 - c1) % n, r2 - r1),
                               (c2, r2, (c1 - c2) % n, n - (r2 - r1))):
                inside = {((b + dr) % n, (a + dc) % n)
                          for dr in range(1, h) for dc in range(1, w)}
                if not any((r, c) in inside for r, c in enumerate(x)):
                    out.append(((a, b, w, h), tuple(y)))
    return out


def _keeps(cls, rect):
    return not ("X" in cls and rect.x_rows or "O" in cls and rect.o_rows)


def _marked(rects):
    """Rectangles by id, with the marking rows that equality ignores."""
    return {rid: (r, r.x_rows, r.o_rows) for rid, r in rects.items()}


@pytest.mark.parametrize("g", [g for g in GRIDS if g.n <= 6],
                         ids=[i for g, i in zip(GRIDS, IDS) if g.n <= 6])
def test_full_table_matches_definition(g):
    """Every row holds the definition's moves, as a multiset."""
    table = move_table(g)
    for i, x in enumerate(table.gens):
        got = [(table.rects[rid].key, table.gens[j])
               for rid, j in zip(table.rids[i], table.targets[i])]
        assert Counter(got) == Counter(_reference_moves(g, x))


@pytest.mark.parametrize("g", GRIDS, ids=IDS)
def test_class_tables_are_the_full_table_filtered(g):
    """The full table holds every rectangle; a class keeps its own ones
    and the moves over them, in the full row's order."""
    full = move_table(g)
    n = g.n
    assert len(full.rects) == n * n * (n - 1) ** 2
    for rid, rect in full.rects.items():
        rows = [(rect.row + dr) % n for dr in range(rect.height)]
        for cols, got in ((g.x_cols, rect.x_rows), (g.o_cols, rect.o_rows)):
            assert got == tuple(
                r for r in rows if (cols[r] - rect.col) % n < rect.width)
        assert rect.id == rid
    for cls in ("X", "XO"):
        table = move_table(g, cls=cls)
        assert table.gens == full.gens
        assert isinstance(table.rects, dict)
        assert _marked(table.rects) == _marked(
            {rid: r for rid, r in full.rects.items() if _keeps(cls, r)})
        for i, full_rids in enumerate(full.rids):
            kept = [t for t, rid in enumerate(full_rids)
                    if _keeps(cls, full.rects[rid])]
            assert table.rids[i] == [full_rids[t] for t in kept]
            assert table.targets[i] == [full.targets[i][t] for t in kept]


@pytest.mark.parametrize("cls", ["", "X", "XO"])
def test_moves_view_pairs_ids_with_targets(cls):
    """``moves`` is rebuilt from the two rows on each read; popping from
    the view leaves the table as it was."""
    table = move_table(FIG8, cls=cls)
    assert table.moves == [list(zip(rids, targets))
                           for rids, targets in zip(table.rids, table.targets)]
    i = next(i for i, rids in enumerate(table.rids) if rids)
    table.moves[i].pop()
    assert len(table.moves[i]) == len(table.rids[i]) == len(table.targets[i])


def test_rectangles_are_built_on_first_read():
    """The F2 tilde rows are the table's own target rows, and no
    ``Rectangle`` is made until something reads ``rects``."""
    table = move_table(TREFOIL5, cls="XO")
    rows = complexes._differential(table, 1, None, True)[2]
    assert rows is table.targets
    assert "rects" not in vars(table)
    assert table.rects is table.rects
    assert {rid for rids in table.rids for rid in rids} <= set(table.rects)


def test_rect_key_reads_back_every_id():
    """The ids of the n^2 (n-1)^2 placements are 0, 1, ... in turn, and
    ``rect_key`` and ``Rectangle.id`` agree with ``rect_ids``."""
    for n in range(2, 8):
        placements = [(c, r, w, h) for c in range(n) for r in range(n)
                      for w in range(1, n) for h in range(1, n)]
        ids = [rect_ids(n, c, r, h)[w] for c, r, w, h in placements]
        assert sorted(ids) == list(range(len(placements)))
        for rid, (c, r, w, h) in zip(ids, placements):
            assert rect_key(n, rid) == (c, r, w, h)
            assert Rectangle(n, c, r, w, h, (), ()).id == rid
    for rid, rect in move_table(FIG8).rects.items():
        assert rect_key(FIG8.n, rid) == rect.key


def test_unknown_class_refused():
    with pytest.raises(ValueError, match="class"):
        MoveTable(UNKNOT2, cls="O")


def test_move_table_checks_the_grid_ceiling():
    """Each call builds its own table; ``max_grid`` only gates the build."""
    table, again = move_table(TREFOIL5), move_table(TREFOIL5, 5)
    assert (again.rids, again.targets) == (table.rids, table.targets)
    with pytest.raises(ResourceLimit, match="ceiling"):
        move_table(TREFOIL5, 4)


@pytest.fixture
def built(monkeypatch):
    """Weak references to the move tables built during the test, by class."""
    out = []

    class Tracked(MoveTable):
        def __init__(self, g, cls="", gens=None):
            super().__init__(g, cls, gens)
            out.append((cls, weakref.ref(self)))

    monkeypatch.setattr(complexes, "MoveTable", Tracked)
    return out


def test_tables_die_with_the_call_that_built_them(built):
    """No table outlives the command that read it.

    The CLI runs with the cycle collector off, so reference counting
    alone must free them.
    """
    g = random_knot_grid(4, random.Random(7))
    collecting = gc.isenabled()
    gc.disable()
    try:
        hat_homology(FIG8, "F2")
        hat_homology(FIG8, "Z")
        assert len(check_invariance(TREFOIL5, [("stabilize", 0, "a"),
                                               ("commute", "row", 5)]).grids) == 3
        poset_stats(TREFOIL5)
        poset_stats(g, "minus", 2, coefficients="Z")
    finally:
        if collecting:
            gc.enable()
    assert [cls for cls, _ in built] == ["XO"] * 6 + ["X"]
    assert [cls for cls, ref in built if ref() is not None] == []


def test_poset_stats_builds_one_table_of_its_class(built):
    poset_stats(TORUS34)
    assert [cls for cls, _ in built] == ["XO"]
    built.clear()
    poset_stats(TREFOIL5, "minus", 2, coefficients="Z")
    assert [cls for cls, _ in built] == ["X"]


def test_z_poset_stats_with_solved_signs_builds_two_tables(built):
    """The solver's full table, and the posets' marking-free one."""
    g = random_knot_grid(4, random.Random(7))
    poset_stats(g, coefficients="Z", signs=solve_signs(g))
    assert [cls for cls, _ in built] == ["", "XO"]


def test_address_space_floor_per_class(monkeypatch):
    """At n = 9 the full floor is about 166 MiB; the generators and their
    empty rows alone take 78."""
    import resource

    monkeypatch.setattr(resource, "getrlimit",
                        lambda kind: (100 << 20, resource.RLIM_INFINITY))
    with pytest.raises(ResourceLimit, match="address-space limit"):
        _check_address_space(9, "")
    _check_address_space(9, "X")
    _check_address_space(9, "XO")
    monkeypatch.setattr(resource, "getrlimit",
                        lambda kind: (30 << 20, resource.RLIM_INFINITY))
    with pytest.raises(ResourceLimit, match="address-space limit"):
        _check_address_space(9, "XO")
