"""Sign solver: annulus products, square rule via d^2, gauge moves."""

import random
import subprocess
import sys
from array import array

import pytest

from gridhfk.complexes import (
    build_minus_complex,
    build_tilde_complex,
    move_table,
)
from gridhfk.errors import UnsatisfiableSigns
from gridhfk.grid import Grid, random_knot_grid
from gridhfk.homology import homology
from gridhfk.signs import SignAssignment, _propagate, solve_signs

UNKNOT2 = Grid(2, (0, 1), (1, 0))


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

    t1, j = next((t, j) for t, (rid, j) in enumerate(table.moves[i])
                 if in_band(rid))
    t2 = next(t for t, (rid, k) in enumerate(table.moves[j])
              if in_band(rid) and k == i)
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
    for i, row in enumerate(table.moves):
        for v, (_, j) in enumerate(row, first[i]):
            if (i == target) != (j == target):
                flipped[v] ^= 1
    sa2 = SignAssignment(table, first, flipped, sa.n_constraints)
    x = table.gens[target]
    assert sa2.row(x) == {rid: -s for rid, s in sa.row(x).items()}
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
        [j for rid, j in row
         if not table.rects[rid].x_rows and not table.rects[rid].o_rows]
        for row in table.moves]
    for coeff, signs in (("F2", None), ("Z", solve_signs(g))):
        tilde = build_tilde_complex(g, coeff, signs)
        minus = build_minus_complex(g, 1, coeff, signs)
        assert [[j for j, _ in row] for row in tilde.diff] == marking_free
        assert [(x, k) for x, k in minus.labels] == \
            [(x, (0,) * n) for x in tilde.labels]
        assert minus.gradings == tilde.gradings
        assert minus.diff == tilde.diff


def test_dropped_move_raises_under_optimize():
    """The sign solver's guards are not asserts: ``python -O`` keeps them.

    Dropping one move from the table leaves every index-2 composite
    through it with a single decomposition.
    """
    script = (
        "import sys\n"
        "from gridhfk.complexes import move_table\n"
        "from gridhfk.errors import UnsatisfiableSigns\n"
        "from gridhfk.grid import Grid\n"
        "from gridhfk.signs import solve_signs\n"
        "assert False, 'asserts must be stripped here'\n"
        "g = Grid(5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1))\n"
        "move_table(g).moves[7].pop()\n"
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
