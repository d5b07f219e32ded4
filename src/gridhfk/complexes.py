"""Generators, rectangles, move tables and the grid chain complexes.

A generator is a bijection between the horizontal and vertical circles,
stored as a tuple ``x`` with ``x[r]`` the column of the point on
horizontal circle ``r``.  An empty rectangle from ``x`` to ``y`` is an
embedded rectangle on the torus whose lower-left and upper-right corners
are points of ``x``, whose other corners are points of ``y``, and whose
interior misses all generator points; the pair then agrees away from those
two rows.  Rectangles are the index-1 positive domains, so they drive
every differential.

One builder makes every differential.  Its basis is each generator times
``U^k`` with ``k`` in ``{0..d-1}^n``, each ``U_i`` shifting the bigrading
by (-2, -1).  Its terms are the rectangles meeting no X, with the O
multiplicities added to ``k``; a term is dropped when an exponent would
reach ``d`` (the quotient by the subcomplex such terms span, so the
differential still squares to zero).  That is the truncated minus
complex.  The tilde complex is its ``d = 1`` truncation, where only the
rectangles meeting no marking at all survive, on bare generator labels.
The builder reads the move table of just the class it counts: X-free
rectangles for ``d > 1``, marking-free ones at ``d = 1``.  A table holds
each move as two ints, the target's index and ``Rectangle.id``, so the F2
tilde rows are its target rows; ``Rectangle`` objects are made only when
read.  Ids have one format, written by ``rect_ids`` and read back by
``rect_key``.  Over Z the builder makes one call per generator,
``signs(x, rids)``, for its moves' signs in row order: by default the
closed form of ``closed_signs.signer``, so only the sign solver
(``check signs`` and the tests) reads the table of every empty rectangle.

Marking-free rectangles keep the Alexander grading, so the tilde complex
also comes in a top half: the generators with ``A >= TOP_HALF_FLOOR``
alone, listed without the n! enumeration, with the marking-free table
over just them.  That is the columns ``A >= 0``, which give the hat, and
the column ``A = -1``, which checks it (see ``homology.extract_hat``).
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property
from math import factorial

from .errors import ResourceLimit
from .gradings import alexander, maslov, top_generators
from .grid import Grid

__all__ = [
    "Generator",
    "Rectangle",
    "ChainComplex",
    "enumerate_generators",
    "move_table",
    "build_tilde_complex",
    "build_minus_complex",
]

Generator = tuple[int, ...]

DEFAULT_MAX_GRID = 9
DEFAULT_MAX_ELEMENTS = 200_000
# lowest Alexander grading of the top half: A >= 0 and one column below
TOP_HALF_FLOOR = -1


def enumerate_generators(g: Grid, max_grid: int = DEFAULT_MAX_GRID) -> list[Generator]:
    """All n! generators in lexicographic order."""
    _check_grid_size(g, max_grid)
    return list(itertools.permutations(range(g.n)))


def _check_grid_size(g: Grid, max_grid: int) -> None:
    if g.n > max_grid:
        raise ResourceLimit(
            f"grid size {g.n} exceeds the ceiling {max_grid} "
            f"({factorial(g.n)} generators); raise max_grid to proceed")


def _check_basis_size(g: Grid, d: int, max_grid: int,
                      max_elements: int | None,
                      basis: str = "truncated minus") -> None:
    """Refuse a grid over ``max_grid``, then a basis of n! * d**n elements
    over ``max_elements`` (``None``: no ceiling), before any table is built.
    """
    _check_grid_size(g, max_grid)
    count = factorial(g.n) * d ** g.n
    if max_elements is not None and count > max_elements:
        raise ResourceLimit(
            f"{basis} basis has {count} elements, over the ceiling "
            f"{max_elements}")


class Rectangle:
    """Cells ``[col, col+width] x [row, row+height]`` on the n-torus.

    ``x_rows`` and ``o_rows`` list the rows of the markings the rectangle
    covers; for the minus differential the O rows are the U indices.
    Equality and hash read the placement alone, not the marking rows.
    """

    __slots__ = ("n", "col", "row", "width", "height", "x_rows", "o_rows")

    def __init__(self, n: int, col: int, row: int, width: int, height: int,
                 x_rows: tuple[int, ...], o_rows: tuple[int, ...]):
        self.n = n
        self.col = col
        self.row = row
        self.width = width
        self.height = height
        self.x_rows = x_rows
        self.o_rows = o_rows

    def __eq__(self, other):
        if other.__class__ is not Rectangle:
            return NotImplemented
        return self.n == other.n and self.key == other.key

    def __hash__(self):
        return hash((self.n, self.col, self.row, self.width, self.height))

    def __repr__(self):
        return (f"Rectangle(n={self.n}, col={self.col}, row={self.row}, "
                f"width={self.width}, height={self.height}, "
                f"x_rows={self.x_rows}, o_rows={self.o_rows})")

    def cells(self):
        n = self.n
        for dr in range(self.height):
            for dc in range(self.width):
                yield ((self.row + dr) % n, (self.col + dc) % n)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.col, self.row, self.width, self.height)

    @property
    def top(self) -> int:
        """Row of the upper-right corner: the second row a move swaps."""
        return (self.row + self.height) % self.n

    @property
    def id(self) -> int:
        """Key in the ``rects`` of every move table of the grid."""
        return rect_ids(self.n, self.col, self.row, self.height)[self.width]


def rect_ids(n: int, col: int, row: int, height: int) -> range:
    """``Rectangle.id`` by width of the rectangles with lower-left corner
    ``(col, row)`` and that height: the one id format (index 0 unused)."""
    m = n - 1
    start = (col * n + row) * m * m + height - 1 - m
    return range(start, start + n * m, m)


def rect_key(n: int, rid: int) -> tuple[int, int, int, int]:
    """``(col, row, width, height)`` of the rectangle with id ``rid``."""
    m = n - 1
    return (rid // (m * m * n), rid // (m * m) % n, rid // m % m + 1,
            rid % m + 1)


_MOVE_CLASSES = ("", "X", "XO")


class MoveTable:
    """The empty rectangles of one class out of every generator.

    ``cls`` names the markings a rectangle of the table may not cover:
    ``""`` keeps every empty rectangle (only the sign solver reads them all),
    ``"X"`` the X-free ones the minus differential counts, and ``"XO"``
    the marking-free ones of the tilde differential.  The moves out of
    generator i are two parallel int rows in scan order (by the row of
    the lower-left corner, then by height): ``targets[i]``, the targets'
    indices, and ``rids[i]``, their ``Rectangle.id``.  A class only drops
    moves, so each class row is the full row filtered to it.  ``gens`` is
    every generator in lexicographic order, unless a subset closed under
    the class's moves is given: for ``"XO"``, any union of Alexander
    gradings.  ``rects`` (the class's rectangles by id) is built on first
    read; ``moves`` zips the rows into ``(rect_id, target)`` pairs on
    each read, for ``perfbench/tracer.py``.

    Out of generator ``x``, the rectangles with lower-left corner ``x[b]``
    are found by one scan upward over the heights, carrying the nearest
    point column met so far (the interior must stay left of it) and the
    per-grid room for the class (see ``_scans``).  A target is looked up
    by its key, one byte per row, which a swap of rows b and t moves by
    ``(x[t] - x[b]) * (2**(8*b) - 2**(8*t))``.
    """

    def __init__(self, g: Grid, cls: str = "",
                 gens: list[Generator] | None = None):
        if cls not in _MOVE_CLASSES:
            raise ValueError(f"unknown rectangle class {cls!r}")
        n = g.n
        if gens is None:
            _check_address_space(n, cls)
            gens = enumerate_generators(g, n)
        self.grid, self.gens, self.cls = g, gens, cls
        scans = _scans(g, cls)
        index = dict(zip(map(int.from_bytes, map(bytes, gens),
                             itertools.repeat("little")), itertools.count()))
        self.targets, self.rids = [], []
        for key, x in zip(index, gens):
            targets, rids = [], []
            for scan, a in zip(scans, x):
                bound = n
                for t, cap, ids, shift in scan[a]:
                    c = x[t]
                    w = (c - a) % n
                    if w < bound:
                        if w <= cap:
                            targets.append(index[key + (c - a) * shift])
                            rids.append(ids[w])
                        if w == 1:
                            break
                        bound = w
            self.targets.append(targets)
            self.rids.append(rids)

    @cached_property
    def rects(self) -> dict[int, Rectangle]:
        """The rectangles of the class, by ``Rectangle.id``."""
        rects: dict[int, Rectangle] = {}
        _scans(self.grid, self.cls, rects)
        return rects

    @property
    def moves(self) -> list[list[tuple[int, int]]]:
        """``(rect_id, target)`` rows, zipped from ``rids`` and ``targets``."""
        return [list(zip(rids, targets))
                for rids, targets in zip(self.rids, self.targets)]


def _scans(g: Grid, cls: str, rects: dict | None = None):
    """Per-grid steps of the upward scan, and the class's rectangles.

    ``scans[b][a]`` lists, for each height h whose rows ``b..b+h-1`` leave
    room from column ``a`` for a rectangle covering no marking of the
    class, the tuple ``(top row t, widest such width, ids, shift)``, with
    ``ids[w]`` the id of the width-w rectangle and ``shift`` the key step
    ``2**(8*b) - 2**(8*t)``.  The rectangles of the class with that corner
    and height are exactly the widths up to the room, so the same loop
    puts them in ``rects``, if given.
    """
    n = g.n
    m = n - 1
    x_cols, o_cols = g.x_cols, g.o_cols
    marks = [cols for name, cols in (("X", x_cols), ("O", o_cols))
             if name in cls]
    scans = []
    for b in range(n):
        by_col = []
        for a in range(n):
            steps, room = [], n
            for h in range(1, n):
                r = (b + h - 1) % n
                room = min([room] + [(cols[r] - a) % n for cols in marks])
                if room == 0:
                    break
                t = (r + 1) % n
                ids = rect_ids(n, a, b, h)
                steps.append((t, room, ids, (1 << 8 * b) - (1 << 8 * t)))
                if rects is not None:
                    rows = [(b + dr) % n for dr in range(h)]
                    for w in range(1, min(room, m) + 1):
                        xs = tuple(r for r in rows if (x_cols[r] - a) % n < w)
                        os_ = tuple(r for r in rows if (o_cols[r] - a) % n < w)
                        rects[ids[w]] = Rectangle(n, a, b, w, h, xs, os_)
            by_col.append(steps)
        scans.append(by_col)
    return scans


def _check_address_space(n: int, cls: str = "") -> None:
    """Refuse a move table that cannot fit under the RLIMIT_AS soft limit.

    The bound is a floor: the n! generator tuples and their two rows and,
    for the full table, the n height-one rectangles out of each
    generator, which are always empty, as the room two rows grown by
    append take for them.  A height-one rectangle can cover a marking, so
    a class table is only sure to hold the generators and empty rows.
    """
    try:
        import resource
    except ImportError:  # platform without rlimits
        return
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return
    row = [] if cls else [0 for _ in range(n)]  # over-allocated by append
    need = factorial(n) * (sys.getsizeof(tuple(range(n)))
                           + 2 * sys.getsizeof(row))
    if need > soft:
        raise ResourceLimit(
            f"the move table of a {n}x{n} grid needs over {need >> 20} MiB, "
            f"above the address-space limit of {soft >> 20} MiB")


def move_table(g: Grid, max_grid: int = DEFAULT_MAX_GRID,
               cls: str = "", top_half: bool = False) -> MoveTable:
    """A new table of class ``cls`` over the grid, owned by the caller.

    Every call builds its own table, so a table lives only as long as the
    complex, posets or sign assignment that read it.  ``max_grid`` gates
    the build.  With ``top_half`` the table covers only the generators
    with ``A >= TOP_HALF_FLOOR``, which the marking-free class ``"XO"``
    alone never leaves.
    """
    _check_grid_size(g, max_grid)
    if top_half and cls != "XO":
        raise ValueError("only marking-free moves keep the Alexander grading")
    return MoveTable(g, cls,
                     top_generators(g, TOP_HALF_FLOOR) if top_half else None)


class ChainComplex:
    """Bigraded complex with differential dropping M by 1, fixing A.

    ``labels[i]`` is a generator, or a ``(generator, exponents)`` pair for
    the truncated minus version.  ``diff[i]`` lists the indices of the
    terms of element i's boundary.  Over Z, ``coeffs[i]`` lists their
    coefficients in the same order; over F2 ``coeffs`` is None and every
    term counts once.  A complex is a mutable record with no hash.
    """

    __slots__ = ("coefficients", "version", "grid", "truncation", "labels",
                 "gradings", "diff", "coeffs")
    __hash__ = None

    def __init__(self, coefficients: str, version: str, grid: Grid,
                 truncation: int | None, labels: list,
                 gradings: list[tuple[int, int]], diff: list[list[int]],
                 coeffs: list[list[int]] | None = None):
        self.coefficients = coefficients
        self.version = version
        self.grid = grid
        self.truncation = truncation
        self.labels = labels
        self.gradings = gradings
        self.diff = diff
        self.coeffs = coeffs

    def d_squared(self) -> dict[tuple[int, int], int]:
        """Nonzero entries of the squared differential (empty means d^2=0).

        Taken one source row at a time, so only that row's paths of length
        two are held at once.  Over F2 an entry is the parity of its paths:
        a row's sorted endpoints pair off exactly when all are zero.
        """
        diff, coeffs = self.diff, self.coeffs
        out: dict[tuple[int, int], int] = {}
        if self.coefficients == "F2":
            for i, row in enumerate(diff):
                ks = []
                for j in row:
                    ks += diff[j]
                ks.sort()
                if ks[0::2] != ks[1::2]:
                    out.update(((i, k), 1) for k in set(ks) if ks.count(k) & 1)
            return out
        terms = list(map(list, map(zip, diff, coeffs)))  # zipped once
        for i, row in enumerate(terms):
            acc: dict[int, int] = {}
            for j, cj in row:
                for k, ck in terms[j]:
                    acc[k] = acc.get(k, 0) + cj * ck
            for k, v in acc.items():
                if v:
                    out[(i, k)] = v
        return out


def build_tilde_complex(g: Grid, coefficients: str = "F2", signs=None,
                        max_grid: int = DEFAULT_MAX_GRID,
                        top_half: bool = False) -> ChainComplex:
    """Fully blocked complex: the minus complex at d = 1, on bare generators.

    With ``top_half``, only its direct summand on the generators with
    ``A >= TOP_HALF_FLOOR``.  Over Z the signs are the closed form of
    ``closed_signs.signer`` unless ``signs`` gives a solved assignment.
    """
    return _complex(g, 1, coefficients, signs, "tilde", max_grid, None,
                    top_half)


def build_minus_complex(g: Grid, d: int, coefficients: str = "F2", signs=None,
                        max_grid: int = DEFAULT_MAX_GRID,
                        max_elements: int = DEFAULT_MAX_ELEMENTS) -> ChainComplex:
    """U-truncated minus complex on pairs (generator, exponent vector)."""
    return _complex(g, d, coefficients, signs, "minus", max_grid, max_elements)


def _complex(g: Grid, d: int, coefficients: str, signs, version: str,
             max_grid: int, max_elements: int | None,
             top_half: bool = False) -> ChainComplex:
    _check_coefficients(coefficients)
    tilde = version == "tilde"
    cls = _term_class(d)
    _check_basis_size(g, d, max_grid, max_elements)
    table = move_table(g, max_grid, cls, top_half)
    if coefficients == "Z" and signs is None:
        from .closed_signs import signer  # loaded by the Z paths alone

        signs = signer(g.n)
    gens, rids = table.gens, table.rids
    entry = None if coefficients == "F2" else lambda i: signs(gens[i], rids[i])
    labels, gradings, diff, coeffs = _differential(table, d, entry, tilde)
    return ChainComplex(coefficients, version, g, None if tilde else d,
                        labels, gradings, diff, coeffs)


def _term_class(d: int) -> str:
    """Rectangle class a differential truncated at ``d`` counts.

    An O bump at d = 1 always reaches the bound, so only the
    marking-free rectangles give terms there.
    """
    if d < 1:
        raise ValueError(f"truncation bound must be positive, got {d}")
    return "XO" if d == 1 else "X"


def _differential(table: MoveTable, d: int, entry, bare: bool):
    """Labels, bigradings, rows and coefficient rows of the differential
    truncated at ``d``.

    The basis is each generator x of ``table`` times U^k, k in
    {0..d-1}^n, labelled ``(x, k)``, or ``x`` alone when ``bare``, in
    one walk of the generators.  The terms come from the moves of
    ``table``, of the class ``_term_class(d)``; a term is dropped when an
    exponent it bumps would reach ``d``, so at d = 1 the rows are
    ``table.targets``.  ``entry(i)``, if given (over Z), is asked once per
    generator for a list parallel to ``table.rids[i]``, whose entries the
    coefficient rows take.  The differential keeps A, so a caller that
    wants one Alexander grading restricts this basis to it.
    """
    g, gens = table.grid, table.gens
    n = g.n
    size = d ** n
    exps = list(itertools.product(range(d), repeat=n))
    step = [d ** (n - 1 - r) for r in range(n)]  # basis shift of a U_r bump
    labels, gradings, units = [], [], [(sum(k), k) for k in exps]
    for x in gens:
        a, m = alexander(g, x), maslov(g, x)
        for t, k in units:
            labels.append(x if bare else (x, k))
            gradings.append((m - 2 * t, a - t))
    coeffs = None if entry is None else list(map(entry, range(len(gens))))
    if size == 1:
        return labels, gradings, table.targets, coeffs

    # a term survives at k when no O row it bumps is at d - 1 in k
    full = [sum(1 << r for r in range(n) if k[r] == d - 1) for k in exps]
    survive, bumps = {}, {}
    for rid, rect in table.rects.items():
        mask = sum(1 << r for r in rect.o_rows)
        if mask not in survive:
            survive[mask] = [e for e, top in enumerate(full) if not mask & top]
        bumps[rid] = survive[mask], sum(step[r] for r in rect.o_rows)
    rows, coeff_rows = [], []
    for i, (targets, rids) in enumerate(zip(table.targets, table.rids)):
        block, signs = [[] for _ in exps], [[] for _ in exps]
        cs = rids if coeffs is None else coeffs[i]  # unread over F2
        for j, rid, c in zip(targets, rids, cs):
            es, shift = bumps[rid]
            j = j * size + shift
            for e in es:
                block[e].append(j + e)
                if coeffs is not None:
                    signs[e].append(c)
        rows += block
        coeff_rows += signs
    return labels, gradings, rows, None if coeffs is None else coeff_rows


def _check_coefficients(coefficients: str) -> None:
    if coefficients not in ("F2", "Z"):
        raise ValueError(f"coefficients must be 'F2' or 'Z', got {coefficients!r}")
