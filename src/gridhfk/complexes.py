"""Generators, rectangles, domains and the grid chain complexes.

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
rectangles for ``d > 1``, marking-free ones at ``d = 1``.  Over Z the
builder asks for one generator's signs at a time, keyed by
``Rectangle.id``, which every table of the grid shares: by default the
closed form of ``signs.move_signs`` over the builder's own table, so only
the sign solver (``check signs`` and the tests) reads the table of every
empty rectangle.

Marking-free rectangles keep the Alexander grading, so the tilde complex
also comes in a top half: the generators with ``A >= TOP_HALF_FLOOR``
alone, listed without the n! enumeration, with the marking-free table
over just them.  That is the columns ``A >= 0``, which give the hat, and
the column ``A = -1``, which checks it (see ``homology.extract_hat``).
"""

from __future__ import annotations

import itertools
import sys
from functools import partial
from math import factorial
from typing import TYPE_CHECKING

from .errors import ResourceLimit
from .gradings import alexander, maslov, maslov_index, top_generators
from .grid import Grid

if TYPE_CHECKING:  # exact rationals load with the oracles that use them
    from fractions import Fraction

__all__ = [
    "Generator",
    "Rectangle",
    "Domain",
    "ChainComplex",
    "enumerate_generators",
    "move_table",
    "connecting_domain",
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

    def coeffs(self) -> list[list[int]]:
        n = self.n
        grid = [[0] * n for _ in range(n)]
        for r, c in self.cells():
            grid[r][c] = 1
        return grid

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
        m = self.n - 1
        return ((self.col * self.n + self.row) * m + self.width - 1) * m \
            + self.height - 1


_MOVE_CLASSES = ("", "X", "XO")


class MoveTable:
    """The empty rectangles of one class out of every generator.

    ``cls`` names the markings a rectangle of the table may not cover:
    ``""`` keeps every empty rectangle (only the sign solver reads them all),
    ``"X"`` the X-free ones the minus differential counts, and ``"XO"``
    the marking-free ones of the tilde differential.  ``moves[i]`` lists
    ``(rect_id, target_generator_id)`` pairs in scan order: by the row of
    the lower-left corner, then by height.  A class only drops moves, so
    each class row is the full row filtered to it.  ``rects`` maps the id
    of every rectangle of the class to the rectangle; ids are
    ``Rectangle.id``, so they agree between classes.  ``gens`` is every
    generator in lexicographic order, unless a subset closed under the
    class's moves is given: for ``"XO"``, any union of Alexander gradings.

    Out of generator ``x``, the rectangles with lower-left corner ``x[b]``
    are found by one scan upward over the heights, carrying the nearest
    point column met so far (the interior must stay left of it) and the
    per-grid room for the class (see ``_scans``); the scan stops when
    either leaves no width.
    """

    def __init__(self, g: Grid, cls: str = "",
                 gens: list[Generator] | None = None):
        if cls not in _MOVE_CLASSES:
            raise ValueError(f"unknown rectangle class {cls!r}")
        n = g.n
        if gens is None:
            _check_address_space(n, cls)
            gens = enumerate_generators(g, n)
        self.grid = g
        self.gens = gens
        gen_index = self.gen_index = {x: i for i, x in enumerate(self.gens)}
        scans, self.rects = _scans(g, cls)
        self.moves: list[list[tuple[int, int]]] = []
        for x in self.gens:
            row = []
            for b, scan in enumerate(scans):
                a = x[b]
                bound = n
                for t, cap, rid in scan[a]:
                    if cap >= bound:
                        if bound == 1:
                            break
                        cap = bound - 1
                    c = x[t]
                    w = (c - a) % n
                    if w <= cap:
                        y = list(x)
                        y[b], y[t] = c, a
                        row.append((rid + w * (n - 1), gen_index[tuple(y)]))
                    if w < bound:
                        bound = w
            self.moves.append(row)


def _scans(g: Grid, cls: str):
    """Per-grid steps of the upward scan, and the class's rectangles by id.

    ``scans[b][a]`` lists, for each height h whose rows ``b..b+h-1`` leave
    room from column ``a`` for a rectangle covering no marking of the
    class, the tuple ``(top row, widest such width, id of the width-0
    rectangle)``; a rectangle's id is the last plus ``width * (n - 1)``.
    The rectangles of the class with that corner and height are exactly
    the widths up to the room, so the same loop makes them.
    """
    n = g.n
    m = n - 1
    x_cols, o_cols = g.x_cols, g.o_cols
    marks = [cols for name, cols in (("X", x_cols), ("O", o_cols))
             if name in cls]
    scans, rects = [], {}
    for b in range(n):
        by_col = []
        for a in range(n):
            steps, room = [], n
            for h in range(1, n):
                r = (b + h - 1) % n
                room = min([room] + [(cols[r] - a) % n for cols in marks])
                if room == 0:
                    break
                rid = (a * n + b) * m * m - m + h - 1
                steps.append(((b + h) % n, room, rid))
                rows = [(b + dr) % n for dr in range(h)]
                for w in range(1, min(room, m) + 1):
                    xs = tuple(r for r in rows if (x_cols[r] - a) % n < w)
                    os_ = tuple(r for r in rows if (o_cols[r] - a) % n < w)
                    rects[rid + w * m] = Rectangle(n, a, b, w, h, xs, os_)
            by_col.append(steps)
        scans.append(by_col)
    return scans, rects


def _check_address_space(n: int, cls: str = "") -> None:
    """Refuse a move table that cannot fit under the RLIMIT_AS soft limit.

    The bound is a floor: the n! generator tuples and, for the full table,
    the n height-one rectangles out of each generator, which are always
    empty, each stored as a (rect_id, target) pair in its row list.  A
    height-one rectangle can cover a marking, so a class table is only
    sure to hold the generators.
    """
    try:
        import resource
    except ImportError:  # platform without rlimits
        return
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        return
    per_gen = sys.getsizeof(tuple(range(n)))
    if not cls:
        per_gen += n * (sys.getsizeof((0, 0)) + sys.getsizeof([0])
                        - sys.getsizeof([]))
    need = factorial(n) * per_gen
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
    if top_half:
        return MoveTable(g, cls, top_generators(g, TOP_HALF_FLOOR))
    return MoveTable(g, cls)


class Domain:
    """2-chain of cells connecting two generators.

    ``coeffs[r][c]`` is the multiplicity of the cell in row r, column c.
    The defining constraint links the chain's alpha-boundary to the
    generators: at every lattice point, the corner count of the chain
    equals (points of y there) - (points of x there).
    """

    __slots__ = ("grid", "x_from", "y_to", "coeffs")

    def __init__(self, grid: Grid, x_from: Generator, y_to: Generator,
                 coeffs: tuple[tuple[int, ...], ...]):
        self.grid = grid
        self.x_from = x_from
        self.y_to = y_to
        self.coeffs = coeffs

    def verify_boundary(self) -> bool:
        g, n = self.grid, self.grid.n
        d = self.coeffs
        for r in range(n):
            for c in range(n):
                corner = (d[r][c - 1] - d[r - 1][c - 1]) - (d[r][c] - d[r - 1][c])
                want = (1 if self.y_to[r] == c else 0) - (1 if self.x_from[r] == c else 0)
                if corner != want:
                    return False
        return True

    def is_positive(self) -> bool:
        return all(v >= 0 for row in self.coeffs for v in row)

    def x_multiplicities(self) -> tuple[int, ...]:
        g = self.grid
        return tuple(self.coeffs[r][g.x_cols[r]] for r in range(g.n))

    def o_multiplicities(self) -> tuple[int, ...]:
        g = self.grid
        return tuple(self.coeffs[r][g.o_cols[r]] for r in range(g.n))

    def index(self) -> Fraction:
        return maslov_index(self.coeffs, self.grid.n, self.x_from, self.y_to)


def _staircase_coeffs(g: Grid, x: Generator, y: Generator) -> list[list[int]]:
    n = g.n
    d = [[0] * n for _ in range(n)]
    cur = list(x)
    while True:
        diff = [r for r in range(n) if cur[r] != y[r]]
        if not diff:
            break
        r1 = diff[0]
        ct = y[r1]
        r2 = cur.index(ct)
        a, b = cur[r1], r1
        w, h = (ct - a) % n, (r2 - r1) % n
        for dr in range(h):
            for dc in range(w):
                d[(b + dr) % n][(a + dc) % n] += 1
        cur[r1], cur[r2] = cur[r2], cur[r1]
    return d


def connecting_domain(g: Grid, x: Generator, y: Generator, mode: str = "any",
                      o_counts: tuple[int, ...] | None = None) -> Domain | None:
    """A domain from ``x`` to ``y``.

    mode 'any': a staircase of rectangles, always defined.
    mode 'zero_XO': the domain with multiplicity 0 at every X and, unless
    ``o_counts`` prescribes other O multiplicities, at every O; returns
    None when no such domain exists.  The staircase is corrected by row
    and column annuli, whose shifts come from one walk around each cycle
    that the markings chain the rows and columns into.  A knot has one
    cycle, so the correction is forced and the domain unique; on a link
    each cycle's first row keeps shift 0.
    """
    n = g.n
    base = _staircase_coeffs(g, x, y)
    if mode == "any":
        return Domain(g, x, y, tuple(tuple(row) for row in base))
    if mode != "zero_XO":
        raise ValueError(f"unknown mode {mode!r}")
    if o_counts is None:
        o_counts = (0,) * n

    # Solve base[r][c] + row_shift[r] + col_shift[c] = target at all 2n
    # markings.  Every row and every column holds one X and one O, so the
    # markings chain rows and columns into cycles: the X of row r sits in
    # column x_cols[r], whose O sits in row o_rows[c].  Walk each cycle
    # from its first row with shift 0, each marking fixing the next shift;
    # the walk closes on that row, which must get back the shift it has.
    x_cols, o_rows = g.x_cols, g.o_rows
    row_shift: list[int | None] = [None] * n
    col_shift = [0] * n
    for seed in range(n):
        if row_shift[seed] is not None:
            continue
        r, shift = seed, 0
        while row_shift[r] is None:
            row_shift[r] = shift
            c = x_cols[r]
            col_shift[c] = -base[r][c] - shift
            r = o_rows[c]
            shift = o_counts[r] - base[r][c] - col_shift[c]
        if row_shift[r] != shift:
            return None
    coeffs = tuple(
        tuple(base[r][c] + row_shift[r] + col_shift[c] for c in range(n))
        for r in range(n))
    return Domain(g, x, y, coeffs)


class ChainComplex:
    """Bigraded complex with differential dropping M by 1, fixing A.

    ``labels[i]`` is a generator, or a ``(generator, exponents)`` pair for
    the truncated minus version.  ``diff[i]`` lists ``(j, coeff)`` with
    coefficients in F2 (always 1) or Z.  A complex is a mutable record
    with no hash.
    """

    __slots__ = ("coefficients", "version", "grid", "truncation", "labels",
                 "gradings", "diff")
    __hash__ = None

    def __init__(self, coefficients: str, version: str, grid: Grid,
                 truncation: int | None, labels: list,
                 gradings: list[tuple[int, int]],
                 diff: list[list[tuple[int, int]]]):
        self.coefficients = coefficients
        self.version = version
        self.grid = grid
        self.truncation = truncation
        self.labels = labels
        self.gradings = gradings
        self.diff = diff

    def d_squared(self) -> dict[tuple[int, int], int]:
        """Nonzero entries of the squared differential (empty means d^2=0).

        Accumulated one source row at a time, so only that row's paths of
        length two are held at once.
        """
        diff = self.diff
        modulus = 2 if self.coefficients == "F2" else 0
        out: dict[tuple[int, int], int] = {}
        for i, row in enumerate(diff):
            acc: dict[int, int] = {}
            for j, cj in row:
                for k, ck in diff[j]:
                    acc[k] = acc.get(k, 0) + cj * ck
            for k, v in acc.items():
                if modulus:
                    v %= modulus
                if v:
                    out[(i, k)] = v
        return out


def build_tilde_complex(g: Grid, coefficients: str = "F2", signs=None,
                        max_grid: int = DEFAULT_MAX_GRID,
                        top_half: bool = False) -> ChainComplex:
    """Fully blocked complex: the minus complex at d = 1, on bare generators.

    With ``top_half``, only its direct summand on the generators with
    ``A >= TOP_HALF_FLOOR``.  Over Z the signs are the closed form of
    ``signs.move_signs`` unless ``signs`` gives a solved assignment.
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
    if coefficients == "F2":
        ones = dict.fromkeys(table.rects, 1)
        entry = lambda x: ones
    elif signs is None:
        from .signs import move_signs  # signs imports this module

        entry = partial(move_signs, table)
    else:
        entry = signs.row
    labels, gradings, diff = _differential(table, d, entry, tilde)
    return ChainComplex(coefficients, version, g, None if tilde else d,
                        labels, gradings, diff)


def _term_class(d: int) -> str:
    """Rectangle class a differential truncated at ``d`` counts.

    An O bump at d = 1 always reaches the bound, so only the
    marking-free rectangles give terms there.
    """
    if d < 1:
        raise ValueError(f"truncation bound must be positive, got {d}")
    return "XO" if d == 1 else "X"


def _differential(table: MoveTable, d: int, entry, bare: bool):
    """Labels, bigradings and rows of the differential truncated at ``d``.

    The basis is each generator x of ``table`` times U^k, k in
    {0..d-1}^n, labelled ``(x, k)``, or ``x`` alone when ``bare``, in
    one walk of the generators.  The terms come from the rectangles
    meeting no X; a term is dropped when an exponent it bumps would reach
    ``d``, so at d = 1 only the rectangles meeting no marking remain, and
    ``table`` is the class ``_term_class(d)``.  ``entry(x)`` is asked once
    per generator for a row indexed by rectangle id, and row ``i`` lists
    ``(j, entry(x)[rect_id])`` for each term from element i to j.  The
    differential keeps A, so a caller that wants one Alexander grading
    restricts this basis to it.
    """
    g, gens, moves, rects = table.grid, table.gens, table.moves, table.rects
    n = g.n
    size = d ** n
    exps = list(itertools.product(range(d), repeat=n))
    step = [d ** (n - 1 - r) for r in range(n)]  # basis shift of a U_r bump
    labels, gradings = [], []
    for x in gens:
        a, m = alexander(g, x), maslov(g, x)
        for k in exps:
            t = sum(k)
            labels.append(x if bare else (x, k))
            gradings.append((m - 2 * t, a - t))

    rows = []
    for i, x in enumerate(gens):
        coeff = entry(x)
        for e, k in enumerate(exps):
            row = []
            for rid, j in moves[i]:
                if size > 1:  # at d = 1 the target is the move's own int
                    j = j * size + e
                for r in rects[rid].o_rows:
                    if k[r] == d - 1:
                        break
                    j += step[r]
                else:
                    row.append((j, coeff[rid]))
            rows.append(row)
    return labels, gradings, rows


def _check_coefficients(coefficients: str) -> None:
    if coefficients not in ("F2", "Z"):
        raise ValueError(f"coefficients must be 'F2' or 'Z', got {coefficients!r}")
