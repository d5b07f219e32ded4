"""Reference algorithms kept as test oracles, out of the package.

Complexes store each differential row as target indices, with a parallel
coefficient row over Z only.  The helpers here read and write rows of
``(target, coefficient)`` pairs, the form the references are stated in.
The domain checks read a ``Domain`` by its definition.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from conftest import UNKNOT2
from gridhfk.complexes import ChainComplex, Domain, Rectangle
from gridhfk.gradings import maslov_index
from gridhfk.grid import Grid


def terms(cx: ChainComplex, i: int) -> list[tuple[int, int]]:
    """``(target, coefficient)`` pairs of row i; F2 coefficients are 1."""
    row = cx.diff[i]
    return list(zip(row, [1] * len(row) if cx.coeffs is None
                    else cx.coeffs[i]))


def complex_from_terms(coefficients: str, labels, gradings, rows,
                       grid: Grid = UNKNOT2) -> ChainComplex:
    """A tilde complex from rows of ``(target, coefficient)`` pairs.

    Over F2 a row keeps, once each, the terms with an odd coefficient.
    """
    if coefficients == "F2":
        diff = [[j for j, c in row if c & 1] for row in rows]
        coeffs = None
    else:
        diff = [[j for j, _ in row] for row in rows]
        coeffs = [[c for _, c in row] for row in rows]
    return ChainComplex(coefficients, "tilde", grid, None, list(labels),
                        list(gradings), diff, coeffs)


def reference_d_squared(cx: ChainComplex) -> dict[tuple[int, int], int]:
    """Nonzero entries of d^2, each summed over its paths in a dict.

    One source row at a time: every path i -> j -> k adds the product of
    its two coefficients to entry (i, k), reduced mod 2 over F2.
    """
    modulus = 2 if cx.coefficients == "F2" else 0
    out: dict[tuple[int, int], int] = {}
    for i in range(len(cx.diff)):
        acc: dict[int, int] = {}
        for j, cj in terms(cx, i):
            for k, ck in terms(cx, j):
                acc[k] = acc.get(k, 0) + cj * ck
        for k, v in acc.items():
            if modulus:
                v %= modulus
            if v:
                out[(i, k)] = v
    return out


def verify_boundary(dom: Domain) -> bool:
    """The defining constraint: at every lattice point the corner count
    of the chain is (points of y there) - (points of x there)."""
    n, d = dom.grid.n, dom.coeffs
    for r in range(n):
        for c in range(n):
            corner = (d[r][c - 1] - d[r - 1][c - 1]) - (d[r][c] - d[r - 1][c])
            want = (dom.y_to[r] == c) - (dom.x_from[r] == c)
            if corner != want:
                return False
    return True


def multiplicities(dom: Domain, cols) -> tuple[int, ...]:
    """The domain's multiplicity at the marking in ``cols[r]`` of each row."""
    return tuple(dom.coeffs[r][cols[r]] for r in range(dom.grid.n))


def domain_index(dom: Domain) -> Fraction:
    """The Maslov index of the domain."""
    return maslov_index(dom.coeffs, dom.grid.n, dom.x_from, dom.y_to)


def rectangle_coeffs(rect: Rectangle) -> list[list[int]]:
    """The rectangle as a 2-chain: 1 on each cell it covers."""
    grid = [[0] * rect.n for _ in range(rect.n)]
    for r, c in rect.cells():
        grid[r][c] = 1
    return grid


def invariant_form(orders) -> tuple[int, ...]:
    """Invariant factors (> 1) of the direct sum of cyclic groups Z/k."""
    a = sorted(orders)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            a[i], a[j] = g, a[i] * a[j] // g
    return tuple(sorted(d for d in a if d > 1))
