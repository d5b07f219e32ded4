"""Maslov and Alexander gradings from the planar pairing ``J``.

For planar points ``a, b`` put ``J(a, b) = 1/2`` when ``a`` sits strictly
north-east or south-west of ``b`` (the coordinate differences have equal
sign) and ``0`` otherwise, extended bilinearly to formal sums of points.
With ``x`` the point set of a generator, ``O`` and ``X`` the marking sets
at half-integral positions, and ``N`` the grid size::

    M(x) = J(x - O, x - O) + 1
    A(x) = J(x - (X + O)/2, X - O) - (N - 1)/2

Both are computed against the fixed cut of the torus but do not depend on
it.  ``M`` is always an integer.  On a link of l components ``A`` lies in
``Z + (l - 1)/2``: it is an integer on knots and on links with an odd
number of components, and half an odd integer on the others.  The knot
invariants refuse every link by ``_require_knot``.  All arithmetic is
integral: coordinates are doubled so markings live at odd integers, and
the pairing is accumulated in units of 1/2 (quarters for ``A``), never
in floats.

``maslov`` and ``alexander`` are the fast path: J pairs each point of
``x`` with the markings independently, so per-grid tables ``T_X[r][c]``
and ``T_O[r][c]`` (the markings strictly north-east or south-west of the
lattice point ``(c, r)``) turn both gradings into ``n`` lookups, plus the
non-inversions of ``x`` for ``J(x, x)``::

    A(x) = (2 sum_r (T_X - T_O)[r][x[r]] - jj(X, X) + jj(O, O) - 2(N - 1)) / 4
    M(x) = noninversions(x) - sum_r T_O[r][x[r]] + jj(O, O) / 2 + 1

where ``jj`` is twice the pairing.  The quadratic point-set pairing
``_jj_points`` builds those tables and constants; the tests check both
gradings against the pairing on exact rationals.

Because ``A`` is linear in the points of ``x``, sums over the n!
generators need no enumeration.  ``top_generators`` lists those with
``A`` at or above a floor by branch and bound over the rows of
``T_X - T_O``.  ``_generator_sums`` places the rows one at a time and
keeps, for each set of used columns, the partial sums of ``T_X - T_O``
with their plain and signed counts: the generators per Alexander
grading, and ``euler_characteristic``, the sum of ``(-1)^M(x) t^A(x)``.
Every rectangle is a transposition that drops ``M`` by one, so
``(-1)^M(x)`` is a global sign times the permutation sign of ``x``, and
the signed count is the grid determinant of Manolescu-Ozsvath-Sarkar,
which ``determinant_alexander`` divides by ``(1 - t^-1)^(n-1)`` to give
the Alexander polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from operator import getitem

from .errors import InexactDivision, NonIntegralAlexander
from .grid import Grid, link_components

__all__ = [
    "maslov",
    "alexander",
    "bigrading",
    "top_generators",
    "euler_characteristic",
    "determinant_alexander",
]


def _jj_points(ps: list[tuple[int, int]], qs: list[tuple[int, int]]) -> int:
    """Twice the pairing of two unit-coefficient point sets (doubled coords)."""
    total = 0
    for px, py in ps:
        for qx, qy in qs:
            if (px - qx) * (py - qy) > 0:
                total += 1
    return total


class _GridPairings:
    """Per-grid constants and tables of the pairing, in doubled coordinates.

    ``t_o[r][c]`` counts the O markings strictly north-east or south-west
    of the lattice point ``(c, r)``; ``t_xo[r][c]`` is the same count for
    the X markings minus ``t_o[r][c]``.
    """

    def __init__(self, g: Grid):
        n = g.n
        o_pts = [(2 * c + 1, 2 * r + 1) for r, c in enumerate(g.o_cols)]
        x_pts = [(2 * c + 1, 2 * r + 1) for r, c in enumerate(g.x_cols)]
        jj_oo = _jj_points(o_pts, o_pts)
        jj_xx = _jj_points(x_pts, x_pts)
        self.t_o = [[_jj_points([(2 * c, 2 * r)], o_pts) for c in range(n)]
                    for r in range(n)]
        self.t_xo = [[_jj_points([(2 * c, 2 * r)], x_pts) - t for c, t in
                      enumerate(self.t_o[r])] for r in range(n)]
        self.below = [(1 << c) - 1 for c in range(n)]
        self.maslov_shift = jj_oo // 2 + 1  # jj_oo counts ordered pairs: even
        self.alexander_shift = jj_oo - jj_xx - 2 * (n - 1)


@lru_cache(maxsize=64)
def _grid_pairings(g: Grid) -> _GridPairings:
    return _GridPairings(g)


def maslov(g: Grid, x: tuple[int, ...]) -> int:
    """Maslov grading M(x); an integer for every grid.

    J(x, x) counts each non-inversion of ``x`` twice, so M(x) is the
    number of non-inversions, minus the O markings paired with ``x``,
    plus the grid's constant.
    """
    pair = _grid_pairings(g)
    below = pair.below
    seen = pairs = 0
    for c in x:  # each point pairs with the lower points to its left
        pairs += (seen & below[c]).bit_count()
        seen |= 1 << c
    return pairs - sum(map(getitem, pair.t_o, x)) + pair.maslov_shift


def alexander(g: Grid, x: tuple[int, ...]) -> int:
    """Alexander grading A(x); raises where it is half-integral.

    That is on links with an even number of components; see
    ``_require_knot`` for the others.
    """
    pair = _grid_pairings(g)
    quad = 2 * sum(map(getitem, pair.t_xo, x)) + pair.alexander_shift
    if quad % 4:
        from fractions import Fraction

        raise NonIntegralAlexander(
            f"Alexander grading of {x} is {Fraction(quad, 4)}; "
            "the grid presents a multi-component link")
    return quad // 4


def bigrading(g: Grid, x: tuple[int, ...]) -> tuple[int, int]:
    return (maslov(g, x), alexander(g, x))


def _require_knot(g: Grid) -> None:
    """Raise NonIntegralAlexander unless ``g`` presents a knot.

    A is integral on every generator or on none, so the identity
    generator refuses a link with an even number of components by its
    half-integral grading.  A link with an odd number of components has
    integral gradings, and its component count refuses it.
    """
    alexander(g, tuple(range(g.n)))
    count = link_components(g)
    if count != 1:
        raise NonIntegralAlexander(
            f"the grid presents a {count}-component link, not a knot")


def top_generators(g: Grid, floor: int) -> list[tuple[int, ...]]:
    """The generators with ``A(x) >= floor``, in lexicographic order.

    Branch and bound: the rows of ``T_X - T_O`` are placed widest spread
    first, each over its columns in decreasing value, and a branch is cut
    as soon as the maxima of the rows still open cannot reach ``floor``.
    A link grid raises NonIntegralAlexander (``_require_knot``).
    """
    n = g.n
    _require_knot(g)
    pair = _grid_pairings(g)
    t_xo = pair.t_xo
    # least sum_r t_xo[r][x[r]] at A >= floor, as 4 A = 2 sum + shift
    need = (4 * floor - pair.alexander_shift) // 2
    order = sorted(range(n), key=lambda r: min(t_xo[r]) - max(t_xo[r]))
    by_value = [sorted(range(n), key=lambda c: -t_xo[r][c]) for r in order]
    rest = [0] * (n + 1)  # rest[k]: the maxima of rows order[k:], summed
    for k in range(n - 1, -1, -1):
        rest[k] = rest[k + 1] + max(t_xo[order[k]])
    found = []
    x = [0] * n
    full = (1 << n) - 1

    def place(k: int, used: int, total: int) -> None:
        r = order[k]
        row = t_xo[r]
        if k == n - 1:  # one column is left
            c = (full ^ used).bit_length() - 1
            if row[c] >= need - total:
                x[r] = c
                found.append(tuple(x))
            return
        short = need - total - rest[k + 1]
        for c in by_value[k]:
            if row[c] < short:
                break
            if not used >> c & 1:
                x[r] = c
                place(k + 1, used | 1 << c, total + row[c])

    place(0, 0, 0)
    found.sort()
    return found


def _generator_sums(g: Grid) -> dict[int, tuple[int, int]]:
    """``A -> (sum_x (-1)^M(x), #x)`` over the n! generators, row by row.

    Rows are placed in order.  For each set of used columns the partial
    sums of ``t_xo`` map to their signed and plain counts; putting row r
    in column c adds ``t_xo[r][c]`` and flips the sign once per earlier
    row in a larger column, so the signed count tracks the permutation
    sign.  The identity generator's Maslov parity fixes the global sign,
    and ``4 A(x) = 2 sum_r t_xo[r][x[r]] + shift``.  A link grid raises
    NonIntegralAlexander (``_require_knot``), as the hat does.
    """
    identity = tuple(range(g.n))
    _require_knot(g)
    pair = _grid_pairings(g)
    states = {0: {0: (1, 1)}}
    for row in pair.t_xo:
        grown: dict[int, dict[int, tuple[int, int]]] = {}
        for used, sums in states.items():
            for c, v in enumerate(row):
                if used >> c & 1:
                    continue
                flip = -1 if (used >> c).bit_count() & 1 else 1
                out = grown.setdefault(used | 1 << c, {})
                for s, (signed, count) in sums.items():
                    old_signed, old_count = out.get(s + v, (0, 0))
                    out[s + v] = (old_signed + flip * signed, old_count + count)
        states = grown
    sign = -1 if maslov(g, identity) % 2 else 1
    (sums,) = states.values()
    return {(2 * s + pair.alexander_shift) // 4: (sign * signed, count)
            for s, (signed, count) in sums.items()}


def _divide_once(poly: dict[int, int], step: int,
                 floor: int | None = None) -> dict[int, int]:
    """Divide sum(c_a x^a) by (1 + step x^-1), from the top down.

    Raises if the remainder is nonzero.  With ``floor`` set, the quotient
    stops at x^floor, which needs only the coefficients at ``a >= floor``
    and leaves no remainder to check.
    """
    top = max(poly)
    bottom = min(poly) if floor is None else floor - 1
    quot: dict[int, int] = {}
    prev = 0
    for a in range(top, bottom, -1):
        cur = poly.get(a, 0) - step * prev
        if cur:
            quot[a] = cur
        prev = cur
    if floor is None and poly.get(bottom, 0) - step * prev:
        raise InexactDivision("exact division left a remainder")
    return quot


def euler_characteristic(g: Grid) -> dict[int, int]:
    """``sum_x (-1)^M(x) t^A(x)`` over all n! generators, by the row sums.

    Returns exponent -> nonzero coefficient; raises NonIntegralAlexander
    on a link grid.
    """
    return {a: signed for a, (signed, _) in _generator_sums(g).items()
            if signed}


def determinant_alexander(g: Grid) -> dict[int, int]:
    """Alexander polynomial of the knot of ``g``, normalized to 1 at t = 1.

    The generator Euler characteristic divided by ``(1 - t^-1)^(n-1)``;
    returns exponent -> nonzero coefficient.
    """
    delta = euler_characteristic(g)
    for _ in range(g.n - 1):
        delta = _divide_once(delta, -1)
    if sum(delta.values()) < 0:
        delta = {a: -c for a, c in delta.items()}
    return delta
