"""Grid diagrams of knots and links on the torus: the grid and its parsers.

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

Every command reads a grid, so this module loads with the package.  The
moves between grids, the symmetries, the text writer and the random
grids are in ``moves``, which only the commands that change a grid load.
"""

from __future__ import annotations

import json

from .errors import GridFormatError

__all__ = [
    "Grid",
    "parse_grid",
    "grid_from_json",
    "link_components",
]


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
