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
