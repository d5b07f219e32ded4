"""Maslov and Alexander gradings from the planar pairing ``J``.

For planar points ``a, b`` put ``J(a, b) = 1/2`` when ``a`` sits strictly
north-east or south-west of ``b`` (the coordinate differences have equal
sign) and ``0`` otherwise, extended bilinearly to formal sums of points.
With ``x`` the point set of a generator, ``O`` and ``X`` the marking sets
at half-integral positions, and ``N`` the grid size::

    M(x) = J(x - O, x - O) + 1
    A(x) = J(x - (X + O)/2, X - O) - (N - 1)/2

Both are computed against the fixed cut of the torus but do not depend on
it.  ``M`` is always an integer; ``A`` is an integer exactly when the grid
presents a knot.  All arithmetic is integral: coordinates are doubled so
markings live at odd integers, and the pairing is accumulated in units of
1/2 (quarters for ``A``), never in floats.

``maslov`` and ``alexander`` are the fast path: J pairs each point of
``x`` with the markings independently, so per-grid tables ``T_X[r][c]``
and ``T_O[r][c]`` (the markings strictly north-east or south-west of the
lattice point ``(c, r)``) turn both gradings into ``n`` lookups, plus the
non-inversions of ``x`` for ``J(x, x)``::

    A(x) = (2 sum_r (T_X - T_O)[r][x[r]] - jj(X, X) + jj(O, O) - 2(N - 1)) / 4
    M(x) = noninversions(x) - sum_r T_O[r][x[r]] + jj(O, O) / 2 + 1

where ``jj`` is twice the pairing.  The quadratic point-set pairing
``_jj_points`` builds those tables and constants, and ``j_pair`` on exact
rationals is the reference the tests check both against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import getitem

from .errors import NonIntegralAlexander
from .grid import Grid

__all__ = [
    "j_pair",
    "maslov",
    "alexander",
    "bigrading",
    "bigrading_with_u",
    "maslov_index",
    "point_measure",
]

Point = tuple[Fraction, Fraction]


def _as_formal_sum(value) -> list[tuple[Point, int]]:
    """Accept a bare point ``(x, y)`` or an iterable of ``(point, coeff)``."""
    seq = list(value)
    if len(seq) == 2 and not isinstance(seq[0], (tuple, list)):
        return [((Fraction(seq[0]), Fraction(seq[1])), 1)]
    out = []
    for point, coeff in seq:
        x, y = point
        out.append(((Fraction(x), Fraction(y)), Fraction(coeff)))
    return out


def j_pair(a, b) -> Fraction:
    """Bilinear extension of the half-point pairing to formal sums.

    Reference implementation on exact rationals; the grading functions
    below use per-grid tables and are checked against this.
    """
    total = Fraction(0)
    for (px, py), cp in _as_formal_sum(a):
        for (qx, qy), cq in _as_formal_sum(b):
            if (px - qx) * (py - qy) > 0:
                total += Fraction(cp * cq, 2)
    return total


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
    """Alexander grading A(x); raises on links, where it is half-integral."""
    pair = _grid_pairings(g)
    quad = 2 * sum(map(getitem, pair.t_xo, x)) + pair.alexander_shift
    if quad % 4:
        raise NonIntegralAlexander(
            f"Alexander grading of {x} is {Fraction(quad, 4)}; "
            "the grid presents a multi-component link")
    return quad // 4


def bigrading(g: Grid, x: tuple[int, ...]) -> tuple[int, int]:
    return (maslov(g, x), alexander(g, x))


def bigrading_with_u(g: Grid, x: tuple[int, ...],
                     exponents: tuple[int, ...]) -> tuple[int, int]:
    """Bigrading of ``x * prod U_i^{k_i}``; each U factor shifts by (-2, -1)."""
    if len(exponents) != g.n or any(k < 0 for k in exponents):
        raise ValueError(f"need {g.n} non-negative exponents, got {exponents}")
    total = sum(exponents)
    return (maslov(g, x) - 2 * total, alexander(g, x) - total)


def point_measure(coeffs, n: int, col: int, row: int) -> Fraction:
    """Average of the four cell coefficients around the lattice point."""
    return Fraction(
        coeffs[row - 1][col - 1] + coeffs[row - 1][col % n]
        + coeffs[row % n][col - 1] + coeffs[row % n][col % n], 4)


def maslov_index(coeffs, n: int, x: tuple[int, ...], y: tuple[int, ...]) -> Fraction:
    """Index of a 2-chain from x to y: total point measure at both point sets."""
    total = Fraction(0)
    for r in range(n):
        total += point_measure(coeffs, n, x[r], r)
        total += point_measure(coeffs, n, y[r], r)
    return total
