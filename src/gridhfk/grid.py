"""Grid diagrams of knots and links on the torus, and the moves between them.

A grid diagram of size ``n`` is an ``n x n`` array of cells carrying ``n``
X markings and ``n`` O markings, one of each in every row and every column,
with no two markings in the same cell.  The torus is cut open along the
bottom row edge and the left column edge, so rows are indexed ``0..n-1``
bottom to top and columns ``0..n-1`` left to right.  The marking in row
``r`` and column ``c`` occupies the cell ``[c, c+1] x [r, r+1]`` and is
drawn at the cell centre ``(c + 1/2, r + 1/2)``.

The underlying link is recovered by joining the O to the X in each row and
the X to the O in each column, letting vertical strands cross over
horizontal ones.

Text format (one grid per file)::

    5
    X: 0 1 2 3 4
    O: 2 3 4 0 1

Line 1 is the size, line 2 the X columns for rows ``0..n-1`` (bottom row
first), line 3 the O columns.  The same data is accepted inline as
``5;X=0,1,2,3,4;O=2,3,4,0,1``.
"""

from __future__ import annotations

import json
from typing import Literal, NamedTuple

from .errors import GridFormatError, IllegalCommutation, NotDestabilizable

__all__ = [
    "Grid",
    "Marking",
    "parse_grid",
    "serialize_grid",
    "grid_from_json",
    "markings",
    "link_components",
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


class Grid:
    """Immutable grid diagram.

    ``x_cols[r]`` and ``o_cols[r]`` are the columns of the X and O marking
    in row ``r``.  Both tuples are permutations of ``0..n-1`` and disagree
    in every position, which is exactly the one-per-row, one-per-column,
    no-shared-cell condition.  Equal grids hash equal: a grid keys the
    per-grid caches.
    """

    __slots__ = ("n", "x_cols", "o_cols", "_hash")

    def __init__(self, n: int, x_cols: tuple[int, ...],
                 o_cols: tuple[int, ...]):
        if n < 2:
            raise GridFormatError(f"grid size must be at least 2, got {n}")
        for name, cols in (("X", x_cols), ("O", o_cols)):
            if len(cols) != n:
                raise GridFormatError(
                    f"{name} row count {len(cols)} does not match size {n}")
            if sorted(cols) != list(range(n)):
                raise GridFormatError(
                    f"{name} columns {list(cols)} are not a permutation of 0..{n - 1}")
        for r in range(n):
            if x_cols[r] == o_cols[r]:
                raise GridFormatError(
                    f"row {r}: X and O share the cell in column {x_cols[r]}")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "x_cols", x_cols)
        init(self, "o_cols", o_cols)
        init(self, "_hash", hash((n, x_cols, o_cols)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Grid")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Grid")

    def __eq__(self, other):
        if other.__class__ is not Grid:
            return NotImplemented
        return (self.n == other.n and self.x_cols == other.x_cols
                and self.o_cols == other.o_cols)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Grid(n={self.n!r}, x_cols={self.x_cols!r}, "
                f"o_cols={self.o_cols!r})")

    @property
    def x_rows(self) -> tuple[int, ...]:
        """Row of the X marking in each column (inverse of ``x_cols``)."""
        rows = [0] * self.n
        for r, c in enumerate(self.x_cols):
            rows[c] = r
        return tuple(rows)

    @property
    def o_rows(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for r, c in enumerate(self.o_cols):
            rows[c] = r
        return tuple(rows)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "x_cols": list(self.x_cols), "o_cols": list(self.o_cols)}


def markings(g: Grid) -> list[Marking]:
    """All 2n markings of ``g``, X's first, each row bottom to top."""
    xs = [Marking("X", r, c) for r, c in enumerate(g.x_cols)]
    os_ = [Marking("O", r, c) for r, c in enumerate(g.o_cols)]
    return xs + os_


def _parse_cols(body: str, label: str, n: int, line: int) -> tuple[int, ...]:
    parts = body.replace(",", " ").split()
    cols = []
    for tok in parts:
        try:
            cols.append(int(tok))
        except ValueError:
            raise GridFormatError(f"{label}: {tok!r} is not an integer", line)
    if len(cols) != n:
        raise GridFormatError(
            f"{label}: expected {n} columns, got {len(cols)}", line)
    for c in cols:
        if not 0 <= c < n:
            raise GridFormatError(f"{label}: column {c} out of range 0..{n - 1}", line)
    return tuple(cols)


def parse_grid(text: str) -> Grid:
    """Parse the three-line text format or the inline ``n;X=..;O=..`` form."""
    stripped = text.strip()
    if ";" in stripped and "\n" not in stripped:
        return _parse_inline(stripped)
    lines = [ln for ln in stripped.splitlines() if ln.strip()]
    if len(lines) != 3:
        raise GridFormatError(f"expected 3 non-empty lines, got {len(lines)}")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise GridFormatError(f"size {lines[0].strip()!r} is not an integer", 1)
    cols = {}
    for i, label in ((1, "X"), (2, "O")):
        body = lines[i].strip()
        if not body.upper().startswith(label + ":"):
            raise GridFormatError(f"expected {label!r} row, got {body!r}", i + 1)
        cols[label] = _parse_cols(body[2:], label, n, i + 1)
    try:
        return Grid(n, cols["X"], cols["O"])
    except GridFormatError:
        raise
    except ValueError as exc:
        raise GridFormatError(str(exc))


def _parse_inline(text: str) -> Grid:
    fields = text.split(";")
    if len(fields) != 3:
        raise GridFormatError(f"inline form needs 3 ';'-separated fields, got {len(fields)}")
    try:
        n = int(fields[0])
    except ValueError:
        raise GridFormatError(f"size {fields[0]!r} is not an integer")
    cols = {}
    for field in fields[1:]:
        if "=" not in field:
            raise GridFormatError(f"field {field!r} is missing '='")
        label, _, body = field.partition("=")
        label = label.strip().upper()
        if label not in ("X", "O"):
            raise GridFormatError(f"unknown field {label!r}")
        cols[label] = _parse_cols(body, label, n, 0)
    if set(cols) != {"X", "O"}:
        raise GridFormatError("inline form needs both X= and O= fields")
    return Grid(n, cols["X"], cols["O"])


def serialize_grid(g: Grid) -> str:
    """Canonical text form; ``parse_grid`` round-trips it."""
    x = " ".join(str(c) for c in g.x_cols)
    o = " ".join(str(c) for c in g.o_cols)
    return f"{g.n}\nX: {x}\nO: {o}\n"


def grid_from_json(text: str) -> Grid:
    """Grid from ``{"n": ..., "x_cols": [...], "o_cols": [...]}``.

    The size and every column must be JSON integers: a float, a bool or a
    string is refused, not truncated or coerced.
    """
    data = json.loads(text)
    x_cols, o_cols = (tuple(_json_int(c, key) for c in data[key])
                      for key in ("x_cols", "o_cols"))
    return Grid(_json_int(data["n"], "n"), x_cols, o_cols)


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise GridFormatError(f"{field}: {json.dumps(value)} is not an integer")
    return value


def link_components(g: Grid) -> int:
    """Number of link components: cycles of row -> row of O in the X's column."""
    o_rows = g.o_rows
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        r = start
        while not seen[r]:
            seen[r] = True
            r = o_rows[g.x_cols[r]]
    return count


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
