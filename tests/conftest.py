"""Shared fixture grids.

Each grid was found by an independent search (scripts/search_fixtures.py)
and is pinned here by the facts recorded next to it.  Tests treat these
tuples as ground truth; the script re-derives them from scratch.
"""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from gridhfk.grid import Grid, link_components

# The 2x2 unknot.  Hat homology: one generator at (M, A) = (0, 0).
UNKNOT2 = Grid(2, (0, 1), (1, 0))

# Left-handed trefoil, pinned uniquely among all 5x5 grids by a
# 26-element differential-component census.  Genus 1, fibered,
# Delta = t - 1 + 1/t, hat ranks 1 at (0, 1), (-1, 0), (-2, -1)
# after mirroring to (2, 1), (1, 0), (0, -1) on the right-handed form.
TREFOIL5 = Grid(5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1))

# (3,4)-torus knot: diagonal X, O shifted by 3.  Genus 3,
# Delta = t^3 - t^2 + 1 - t^-2 + t^-3, hat total rank 5.
TORUS34 = Grid(7, tuple(range(7)), tuple((c + 3) % 7 for c in range(7)))

# Figure-eight knot at grid size 6.  Genus 1, fibered,
# Delta = -t + 3 - 1/t, hat ranks per Alexander grading [1, 3, 1].
FIG8 = Grid(6, (0, 1, 3, 2, 5, 4), (2, 5, 0, 4, 3, 1))

# 5_2 twist knot at grid size 7.  Genus 1, NOT fibered:
# Delta = 2t - 3 + 2/t, top Alexander group has rank 2.
TWIST52 = Grid(7, (0, 1, 2, 3, 4, 6, 5), (2, 4, 6, 5, 0, 3, 1))

# Granny knot (trefoil # trefoil) built by splicing two trefoil grids.
# Delta = t^2 - 2t + 3 - 2/t + 1/t^2, genus 2, fibered (a connected sum
# of fibered knots; its top hat group is one Z).
GRANNY9 = Grid(9, (3, 4, 0, 1, 2, 5, 6, 7, 8), (0, 1, 2, 3, 6, 7, 8, 4, 5))

# Unknot # trefoil: same knot as the trefoil, different grid.  Its hat
# homology must match TREFOIL5's exactly.
COMPOSITE6 = Grid(6, (1, 0, 2, 3, 4, 5), (0, 3, 4, 5, 1, 2))

# Seeded random knot at grid size 8 (40320 generators).  Hat homology
# over F2: one group at (M, A) = (0, 0).
KNOT8 = Grid(8, (6, 4, 3, 1, 5, 0, 7, 2), (0, 1, 7, 6, 2, 3, 5, 4))


@st.composite
def knot_grids(draw, max_n=6):
    """Random knot grids (one component) of size 2..``max_n``."""
    n = draw(st.integers(2, max_n))
    x_cols = tuple(draw(st.permutations(range(n))))
    o_cols = tuple(draw(st.permutations(range(n))))
    assume(all(a != b for a, b in zip(x_cols, o_cols)))
    g = Grid(n, x_cols, o_cols)
    assume(link_components(g) == 1)
    return g


def _turn(g: Grid, row: int, to: int) -> Grid:
    """``g`` with its rows and columns turned cyclically, which keeps the
    knot, so that the X in ``row`` sits at row and column ``to``."""
    n, dr, dc = g.n, to - row, to - g.x_cols[row]
    x_cols, o_cols = [0] * n, [0] * n
    for r in range(n):
        x_cols[(r + dr) % n] = (g.x_cols[r] + dc) % n
        o_cols[(r + dr) % n] = (g.o_cols[r] + dc) % n
    return Grid(n, tuple(x_cols), tuple(o_cols))


def connected_sum(g1: Grid, g2: Grid, row1: int = 0, row2: int = 0) -> Grid:
    """A grid of the connected sum of the knots of ``g1`` and ``g2``.

    The X of row ``row1`` of ``g1`` is turned to the top right corner and
    that of row ``row2`` of ``g2`` to the bottom left one (``_turn``).
    Both grids then sit on the diagonal of an (n1 + n2) grid, ``g2``'s
    columns shifted by n1, and the two X markings exchange columns.  The
    band that joins the knots runs between the two corners and crosses
    no other strand.  It makes one full twist, which turning one summand
    over undoes.
    """
    n1 = g1.n
    g1, g2 = _turn(g1, row1, n1 - 1), _turn(g2, row2, 0)
    x_cols = list(g1.x_cols) + [c + n1 for c in g2.x_cols]
    o_cols = list(g1.o_cols) + [c + n1 for c in g2.o_cols]
    x_cols[n1 - 1], x_cols[n1] = x_cols[n1], x_cols[n1 - 1]
    return Grid(n1 + g2.n, tuple(x_cols), tuple(o_cols))


def split_union(*grids: Grid) -> Grid:
    """A grid of the split union of the links of ``grids``: each sits on
    the diagonal of one grid, its rows and columns shifted by the sizes
    of those before it, and no marking is exchanged."""
    x_cols, o_cols, shift = [], [], 0
    for g in grids:
        x_cols += [c + shift for c in g.x_cols]
        o_cols += [c + shift for c in g.o_cols]
        shift += g.n
    return Grid(shift, tuple(x_cols), tuple(o_cols))


def torus_grid(p: int, q: int) -> Grid:
    """The (p + q) grid of the torus knot T(p, q): diagonal X, O shifted
    by p.  It presents the mirror of the positive T(p, q)."""
    n = p + q
    return Grid(n, tuple(range(n)), tuple((c + p) % n for c in range(n)))
