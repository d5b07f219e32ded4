"""Moves between grid diagrams, and the grid helpers no computation needs.

Commutation interchanges two adjacent row or column annuli whose marking
pairs do not interleave; stabilization splits one X into a 2x2 block of
two X's and one O, and destabilization collapses such a block again.
Any two grids of one knot are joined by these moves (Cromwell), so the
hat table must not change along them: ``check invariance`` replays them.
Also here: the rotations and reflections of the square, the canonical
text form that ``parse_grid`` reads back, the list of a grid's markings,
and random knot grids.  Only the commands that write or change a grid
(``moves``, ``check invariance``) and the tests load this module.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .errors import IllegalCommutation, NotDestabilizable
from .grid import Grid, link_components

__all__ = [
    "Marking",
    "markings",
    "serialize_grid",
    "random_knot_grid",
    "apply_symmetry",
    "commute",
    "stabilize",
    "destabilize",
    "SYMMETRIES",
    "STABILIZATION_VARIANTS",
]

SYMMETRIES = ("R90", "R180", "R270", "Rh", "Rv")
STABILIZATION_VARIANTS = ("a", "b", "c", "d")


class Marking(NamedTuple):
    """One X or O marking; ``position`` is the half-integral cell centre."""

    kind: Literal["X", "O"]
    row: int
    col: int

    @property
    def position(self) -> tuple[float, float]:
        return (self.col + 0.5, self.row + 0.5)


def markings(g: Grid) -> list[Marking]:
    """All 2n markings of ``g``, X's first, each row bottom to top."""
    xs = [Marking("X", r, c) for r, c in enumerate(g.x_cols)]
    os_ = [Marking("O", r, c) for r, c in enumerate(g.o_cols)]
    return xs + os_


def serialize_grid(g: Grid) -> str:
    """Canonical text form; ``parse_grid`` round-trips it."""
    x = " ".join(str(c) for c in g.x_cols)
    o = " ".join(str(c) for c in g.o_cols)
    return f"{g.n}\nX: {x}\nO: {o}\n"


def random_knot_grid(n: int, rng) -> Grid:
    """Uniform-ish random size-n grid presenting a knot, by rejection."""
    while True:
        x = list(range(n))
        o = list(range(n))
        rng.shuffle(x)
        rng.shuffle(o)
        if any(a == b for a, b in zip(x, o)):
            continue
        g = Grid(n, tuple(x), tuple(o))
        if link_components(g) == 1:
            return g


def apply_symmetry(g: Grid, name: str) -> Grid:
    """Rotate (R90/R180/R270, counterclockwise) or reflect (Rh/Rv) the square.

    Rh reflects across the horizontal midline, Rv across the vertical one.
    """
    n = g.n
    if name not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {name!r}; expected one of {SYMMETRIES}")

    def transform(row: int, col: int) -> tuple[int, int]:
        if name == "R90":
            return (col, n - 1 - row)
        if name == "R180":
            return (n - 1 - row, n - 1 - col)
        if name == "R270":
            return (n - 1 - col, row)
        if name == "Rh":
            return (n - 1 - row, col)
        return (row, n - 1 - col)  # Rv

    x_cols = [0] * n
    o_cols = [0] * n
    for r in range(n):
        nr, nc = transform(r, g.x_cols[r])
        x_cols[nr] = nc
        nr, nc = transform(r, g.o_cols[r])
        o_cols[nr] = nc
    return Grid(n, tuple(x_cols), tuple(o_cols))


def _cyclic_open_contains(p: int, a: int, b: int, n: int) -> bool:
    """Is ``p`` strictly inside the arc from ``a`` counterclockwise to ``b``?"""
    return (p - a) % n < (b - a) % n and p != a


def commute(g: Grid, axis: Literal["row", "col"], index: int) -> Grid:
    """Interchange the annuli ``index`` and ``index+1 (mod n)`` along ``axis``.

    Legal only when the marking pair of one annulus is unlinked from the
    marking pair of the other on the circle separating them: the two pairs
    must be disjoint and non-interleaved in the cyclic order.
    """
    n = g.n
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range 0..{n - 1}")
    i, j = index, (index + 1) % n

    if axis == "row":
        pair_i = (g.x_cols[i], g.o_cols[i])
        pair_j = (g.x_cols[j], g.o_cols[j])
    else:
        x_rows, o_rows = g.x_rows, g.o_rows
        pair_i = (x_rows[i], o_rows[i])
        pair_j = (x_rows[j], o_rows[j])

    if set(pair_i) & set(pair_j):
        raise IllegalCommutation(
            f"{axis} annuli {i},{j}: marking pairs {pair_i} and {pair_j} share a position")
    inside = [_cyclic_open_contains(p, pair_i[0], pair_i[1], n) for p in pair_j]
    if inside[0] != inside[1]:
        raise IllegalCommutation(
            f"{axis} annuli {i},{j}: marking pairs {pair_i} and {pair_j} interleave")

    if axis == "row":
        x = list(g.x_cols)
        o = list(g.o_cols)
        x[i], x[j] = x[j], x[i]
        o[i], o[j] = o[j], o[i]
        return Grid(n, tuple(x), tuple(o))
    swap = {i: j, j: i}
    x = tuple(swap.get(c, c) for c in g.x_cols)
    o = tuple(swap.get(c, c) for c in g.o_cols)
    return Grid(n, x, o)


# Stabilization templates.  The stabilized X's cell is split into a 2x2
# block; rows of the block are (r, r+1), columns (c, c+1), and the corners
# are named SW, SE, NW, NE.  Each variant lists the two new X corners, the
# new O corner, which of the two split rows receives the displaced O of the
# old row r, and which split column receives the displaced O of the old
# column c.  Variants c and d are the R180 images of a and b.
_STAB_TEMPLATES = {
    "a": {"xs": ("NW", "SE"), "o": "SW", "row_o": "top", "col_o": "right"},
    "b": {"xs": ("NE", "SW"), "o": "SE", "row_o": "top", "col_o": "left"},
    "c": {"xs": ("NW", "SE"), "o": "NE", "row_o": "bottom", "col_o": "left"},
    "d": {"xs": ("NE", "SW"), "o": "NW", "row_o": "bottom", "col_o": "right"},
}


def stabilize(g: Grid, row: int, variant: str) -> Grid:
    """Replace the X in ``row`` by a 2x2 block with two X's and one O.

    Returns the (n+1)-grid of the same knot.  The four variants place the
    new markings in the four ways compatible with one X and one O per
    annulus; the displaced O's of the old row and column land in the split
    row/column forced by that condition.
    """
    n = g.n
    if not 0 <= row < n:
        raise ValueError(f"row {row} out of range 0..{n - 1}")
    if variant not in _STAB_TEMPLATES:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {STABILIZATION_VARIANTS}")
    tpl = _STAB_TEMPLATES[variant]
    r, c = row, g.x_cols[row]
    corner = {
        "SW": (r, c), "SE": (r, c + 1),
        "NW": (r + 1, c), "NE": (r + 1, c + 1),
    }

    m = n + 1
    x_cols = [-1] * m
    o_cols = [-1] * m

    def new_row(rho: int) -> int:
        return rho if rho < r else rho + 1  # old row r itself is re-placed by hand

    def new_col(gamma: int) -> int:
        return gamma if gamma < c else gamma + 1

    for rho in range(n):
        if rho != r:
            x_cols[new_row(rho)] = new_col(g.x_cols[rho])
    for rho in range(n):
        if rho == r:
            continue
        gamma = g.o_cols[rho]
        if gamma == c:
            # displaced O of the old column c
            o_cols[new_row(rho)] = c if tpl["col_o"] == "left" else c + 1
        else:
            o_cols[new_row(rho)] = new_col(gamma)
    # displaced O of the old row r
    o_row = r + 1 if tpl["row_o"] == "top" else r
    o_cols[o_row] = new_col(g.o_cols[r])
    for name in tpl["xs"]:
        rr, cc = corner[name]
        x_cols[rr] = cc
    rr, cc = corner[tpl["o"]]
    o_cols[rr] = cc
    return Grid(m, tuple(x_cols), tuple(o_cols))


def destabilize(g: Grid, row: int, col: int) -> Grid:
    """Collapse the 2x2 block with corner (row, col) back to a single X.

    The block rows are (row, row+1) and columns (col, col+1), without
    wrap-around.  Raises NotDestabilizable unless the block holds exactly
    two diagonal X's and one O, the inverse of some stabilization.
    """
    n = g.n
    if n <= 2:
        raise NotDestabilizable(f"size {n} grid cannot shrink below 2")
    if not (0 <= row < n - 1 and 0 <= col < n - 1):
        raise NotDestabilizable(
            f"corner ({row}, {col}) does not span a 2x2 block without wrapping")
    block = {(row, col), (row, col + 1), (row + 1, col), (row + 1, col + 1)}
    xs = {(rho, g.x_cols[rho]) for rho in (row, row + 1)} & block
    os_ = {(rho, g.o_cols[rho]) for rho in (row, row + 1)} & block
    if len(xs) != 2 or len(os_) != 1:
        raise NotDestabilizable(
            f"block at ({row}, {col}) holds {len(xs)} X's and {len(os_)} O's, need 2 and 1")
    (r1, c1), (r2, c2) = sorted(xs)
    if r1 == r2 or c1 == c2:
        raise NotDestabilizable(f"block X's at ({row}, {col}) are not diagonal")

    def merge_row(rho: int) -> int:
        return rho if rho <= row else rho - 1

    def merge_col(gamma: int) -> int:
        return gamma if gamma <= col else gamma - 1

    m = n - 1
    x_cols = [-1] * m
    o_cols = [-1] * m
    for rho in range(n):
        xc, oc = g.x_cols[rho], g.o_cols[rho]
        if (rho, xc) in block:
            x_cols[row] = col
        else:
            x_cols[merge_row(rho)] = merge_col(xc)
        if (rho, oc) not in block:
            o_cols[merge_row(rho)] = merge_col(oc)
    try:
        return Grid(m, tuple(x_cols), tuple(o_cols))
    except ValueError as exc:
        raise NotDestabilizable(str(exc))
