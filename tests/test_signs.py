"""Signs: the solver's annulus products, square rule via d^2 and gauge
moves, and the closed form against the solver's constraints and tables."""

import itertools
import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    COMPOSITE6,
    FIG8,
    KNOT8,
    TORUS34,
    TREFOIL5,
    TWIST52,
    UNKNOT2,
    knot_grids,
)
from gridhfk.closed_signs import move_sign, signer
from gridhfk.complexes import (
    build_minus_complex,
    build_tilde_complex,
    move_table,
)
from gridhfk.errors import UnsatisfiableSigns
from gridhfk.grid import Grid
from gridhfk.homology import extract_hat, homology
from gridhfk.invariants import hat_homology
from gridhfk.moves import random_knot_grid
from gridhfk.poset import poset_stats
from gridhfk.signs import (
    SignAssignment,
    _lex_rank,
    _propagate,
    sign_constraints,
    solve_signs,
)
from oracles import reference_move_sign


def _annulus_pair(sa, i, *, col=None, row=None):
    """Unknowns of the two moves closing the thin annulus at one band from i.

    The first move leaves generator i, the second returns to it.
    """
    table = sa.table

    def in_band(rid):
        rect = table.rects[rid]
        if col is not None:
            return rect.width == 1 and rect.col == col
        return rect.height == 1 and rect.row == row

    rids, targets = table.rids, table.targets
    t1 = next(t for t, rid in enumerate(rids[i]) if in_band(rid))
    j = targets[i][t1]
    t2 = next(t for t, rid in enumerate(rids[j])
              if in_band(rid) and targets[j][t] == i)
    return sa.first[i] + t1, sa.first[j] + t2


def _check_annulus_products(g, sa):
    """Vertical annuli multiply to -1, horizontal ones to +1."""
    values = sa.values
    for i in range(len(sa.table.gens)):
        for band in range(g.n):
            v1, v2 = _annulus_pair(sa, i, col=band)
            assert values[v1] ^ values[v2] == 1
            v1, v2 = _annulus_pair(sa, i, row=band)
            assert values[v1] ^ values[v2] == 0


def test_unknot_vertical_annuli_multiply_to_minus_one():
    sa = solve_signs(UNKNOT2)
    _check_annulus_products(UNKNOT2, sa)


def test_annulus_products_random_grids():
    rng = random.Random(23)
    for n in (3, 4):
        g = random_knot_grid(n, rng)
        _check_annulus_products(g, solve_signs(g))


def test_square_rule_makes_boundary_square_to_zero():
    rng = random.Random(29)
    for n in (3, 4, 5):
        g = random_knot_grid(n, rng)
        sa = solve_signs(g)
        assert not build_tilde_complex(g, "Z", sa).d_squared()
        assert not build_minus_complex(g, 2, "Z", sa).d_squared()


def test_flip_at_one_generator_is_still_valid():
    """Flipping every move into and out of one generator is a gauge move."""
    rng = random.Random(31)
    g = random_knot_grid(4, rng)
    sa = solve_signs(g)
    table, first = sa.table, sa.first
    target = 7
    flipped = bytearray(sa.values)
    for i, row in enumerate(table.targets):
        for v, j in enumerate(row, first[i]):
            if (i == target) != (j == target):
                flipped[v] ^= 1
    sa2 = SignAssignment(sa.constraints, flipped)
    x, rids = table.gens[target], table.rids[target]
    assert sa2(x, rids) == [-s for s in sa(x, rids)]
    cx = build_tilde_complex(g, "Z", sa2)
    assert not cx.d_squared()
    _check_annulus_products(g, sa2)
    assert homology(cx).blocks == homology(build_tilde_complex(g, "Z", sa)).blocks


def test_contradiction_raises_with_certificate():
    cons_vars = array("i", [0, 1, 0, 1])
    cons_off = array("i", [0, 2, 4])
    parity = bytearray([0, 1])
    with pytest.raises(UnsatisfiableSigns) as info:
        _propagate(2, cons_vars, cons_off, parity, [0])
    assert info.value.certificate is not None


def test_propagation_refuses_an_undetermined_unknown():
    """With no seed, v0 + v1 = 0 leaves both unknowns open."""
    cons_vars = array("i", [0, 1])
    cons_off = array("i", [0, 2])
    parity = bytearray([0])
    with pytest.raises(UnsatisfiableSigns) as info:
        _propagate(2, cons_vars, cons_off, parity, [])
    assert info.value.certificate == ("undetermined", 0)


def test_z_ranks_match_f2_on_small_knots():
    rng = random.Random(37)
    for n in (3, 4):
        g = random_knot_grid(n, rng)
        f2 = homology(build_tilde_complex(g))
        z = homology(build_tilde_complex(g, "Z", solve_signs(g)))
        assert not z.has_torsion
        assert {ma: f for ma, (f, _) in z.blocks.items()} == \
            {ma: f for ma, (f, _) in f2.blocks.items()}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tilde_complex_is_minus_at_d1(n):
    """The tilde complex is the minus complex with every U set to zero."""
    g = random_knot_grid(n, random.Random(41 + n))
    table = move_table(g)
    marking_free = [
        [j for rid, j in zip(rids, targets)
         if not table.rects[rid].x_rows and not table.rects[rid].o_rows]
        for rids, targets in zip(table.rids, table.targets)]
    for coeff, signs in (("F2", None), ("Z", solve_signs(g))):
        tilde = build_tilde_complex(g, coeff, signs)
        minus = build_minus_complex(g, 1, coeff, signs)
        assert tilde.diff == marking_free
        assert [(x, k) for x, k in minus.labels] == \
            [(x, (0,) * n) for x in tilde.labels]
        assert minus.gradings == tilde.gradings
        assert minus.diff == tilde.diff
        assert minus.coeffs == tilde.coeffs


@pytest.mark.parametrize("cls", ["", "X", "XO"])
def test_move_signs_read_the_rows_off_the_rectangle_ids(cls):
    """One sign per move of the row, as ``move_sign`` gives it for the
    rows the move's rectangle swaps."""
    table = move_table(FIG8, cls=cls)
    signs = signer(FIG8.n)
    for i, x in enumerate(table.gens):
        rects = map(table.rects.__getitem__, table.rids[i])
        assert signs(x, table.rids[i]) == [move_sign(x, r.row, r.top)
                                           for r in rects]


def test_lex_rank_is_the_position_in_the_full_table():
    """``SignAssignment.row`` finds a generator's row by this rank."""
    gens = move_table(TREFOIL5).gens
    assert [_lex_rank(x) for x in gens] == list(range(len(gens)))


def test_dropped_move_raises_under_optimize():
    """The sign solver's guards are not asserts: ``python -O`` keeps them.

    Dropping one move from the table leaves every index-2 composite
    through it with a single decomposition.
    """
    script = (
        "import sys\n"
        "import gridhfk.signs\n"
        "from gridhfk.complexes import move_table\n"
        "from gridhfk.errors import UnsatisfiableSigns\n"
        "from gridhfk.grid import Grid\n"
        "from gridhfk.signs import solve_signs\n"
        "assert False, 'asserts must be stripped here'\n"
        "g = Grid(5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1))\n"
        "table = move_table(g)\n"
        "table.rids[7].pop()\n"
        "table.targets[7].pop()\n"
        "gridhfk.signs.move_table = lambda *args: table\n"
        "try:\n"
        "    solve_signs(g)\n"
        "except UnsatisfiableSigns as exc:\n"
        "    print(exc.certificate[0])\n"
        "else:\n"
        "    sys.exit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "composite"


# ------------------------------------------------------- the closed form

def literal_sign(x, b, t):
    """``move_sign`` as its docstring states it: one adjacent swap at a time."""
    n = len(x)
    a, h, w = x[b], (t - b) % n, (x[t] - x[b]) % n
    lo, hi = sorted((b, t))
    e = (t < b) + sum(((b + k) % n - a) % n < w for k in range(h))
    s = list(x)
    for k in [*range(lo, hi), *range(hi - 2, lo - 1, -1)]:
        p, q = s[k], s[k + 1]
        rest = [v for v in s if v not in (p, q)]
        e += (p > q) + sum(u > v > min(p, q)
                           for i, u in enumerate(rest) for v in rest[i + 1:])
        s[k], s[k + 1] = q, p
    return -1 if e % 2 else 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_move_sign_is_the_literal_formula(n):
    for x in itertools.permutations(range(n)):
        for b, t in itertools.permutations(range(n), 2):
            assert move_sign(x, b, t) == literal_sign(x, b, t), (x, b, t)


def assert_reference_signs(table):
    """One ``signer`` over every row of ``table``, its per-rectangle
    entries shared from row to row, gives each move the reference sign."""
    sign, rects = signer(table.grid.n), table.rects
    for x, rids in zip(table.gens, table.rids):
        assert sign(x, rids) == [
            reference_move_sign(x, rects[rid].row, rects[rid].top)
            for rid in rids], x


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_grids())
def test_every_move_has_the_reference_sign(g):
    for cls in ("", "X", "XO"):
        assert_reference_signs(move_table(g, cls=cls))


def test_knot8_top_half_moves_have_the_reference_sign():
    assert_reference_signs(move_table(KNOT8, cls="XO", top_half=True))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_closed_form_meets_every_constraint(n):
    """Exhaustive over every n x n grid: the full table and the annulus
    masks read no marking, so one grid per size covers them all."""
    g = Grid(n, tuple(range(n)), tuple((c + 1) % n for c in range(n)))
    cons = sign_constraints(g)
    values = cons.closed_form()
    assert len(values) == cons.first[-1]
    assert cons.violation(values) is None


def test_violation_names_a_broken_constraint():
    cons = sign_constraints(UNKNOT2)
    values = cons.closed_form()
    values[0] ^= 1
    c = cons.violation(values)
    assert c is not None and 0 in cons.certificate(c)[1]


def both_routes(build, g, *args, sa=None, **kwargs):
    """Homology of one complex with the closed-form and the solved signs."""
    closed = homology(build(g, *args, "Z", **kwargs))
    solved = homology(build(g, *args, "Z", sa or solve_signs(g), **kwargs))
    return closed, solved


Z_FIXTURES = [UNKNOT2, TREFOIL5, FIG8, TORUS34, TWIST52, COMPOSITE6]
Z_IDS = ["unknot2", "trefoil5", "fig8", "torus34", "twist52", "composite6"]


@pytest.mark.parametrize("g", Z_FIXTURES, ids=Z_IDS)
def test_closed_form_and_solver_give_equal_z_tables(g):
    sa = solve_signs(g)
    closed, solved = both_routes(build_tilde_complex, g, sa=sa)
    assert closed.blocks == solved.blocks
    closed, solved = both_routes(build_tilde_complex, g, sa=sa, top_half=True)
    assert closed.blocks == solved.blocks
    assert hat_homology(g, "Z").blocks == \
        extract_hat(solved, g.n).blocks


def test_closed_form_and_solver_give_equal_z_minus():
    closed, solved = both_routes(build_minus_complex, TREFOIL5, 2)
    assert closed.blocks == solved.blocks


def test_closed_form_and_solver_give_equal_z_poset_stats():
    assert poset_stats(TREFOIL5, "minus", 2, "Z") == \
        poset_stats(TREFOIL5, "minus", 2, "Z", solve_signs(TREFOIL5))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_grids())
def test_closed_form_and_solver_agree_on_random_knots(g):
    closed, solved = both_routes(build_tilde_complex, g)
    assert closed.blocks == solved.blocks
