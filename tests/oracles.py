"""Reference algorithms kept as test oracles, out of the package.

Complexes store each differential row as target indices, with a parallel
coefficient row over Z only.  The helpers here read and write rows of
``(target, coefficient)`` pairs, the form the references are stated in.
``j_pair`` is the planar pairing that defines the gradings, on exact
rationals.  The domain checks read a ``Domain`` by its definition, and
``staircase_domain`` joins any two generators by rectangles.
``smith_normal_form`` carries its unimodular transforms, so that the
diagonal the package computes alone can be certified.
``reference_move_sign`` is the closed-form sign as first written, one
generator's inversion tables at a time, against which the package's
per-generator masks and per-rectangle entries are checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from conftest import UNKNOT2
from gridhfk.complexes import ChainComplex, Domain, Rectangle, _staircase_coeffs
from gridhfk.grid import Grid
from gridhfk.linalg import _bezout


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


def _as_formal_sum(value) -> list[tuple[tuple[Fraction, Fraction], Fraction]]:
    """Accept a bare point ``(x, y)`` or an iterable of ``(point, coeff)``."""
    seq = list(value)
    if len(seq) == 2 and not isinstance(seq[0], (tuple, list)):
        return [((Fraction(seq[0]), Fraction(seq[1])), Fraction(1))]
    return [((Fraction(x), Fraction(y)), Fraction(coeff))
            for (x, y), coeff in seq]


def j_pair(a, b) -> Fraction:
    """The pairing J, 1/2 on two points strictly north-east or south-west
    of each other and 0 otherwise, extended bilinearly to formal sums."""
    total = Fraction(0)
    for (px, py), cp in _as_formal_sum(a):
        for (qx, qy), cq in _as_formal_sum(b):
            if (px - qx) * (py - qy) > 0:
                total += cp * cq / 2
    return total


def staircase_domain(g: Grid, x, y) -> Domain:
    """A domain from ``x`` to ``y``: a staircase of rectangles, each
    swapping the first row where the two still differ into place."""
    base = _staircase_coeffs(g, x, y)
    return Domain(g, x, y, tuple(tuple(row) for row in base))


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


def point_measure(coeffs, n: int, col: int, row: int) -> Fraction:
    """Average of the four cell coefficients around the lattice point."""
    return Fraction(
        coeffs[row - 1][col - 1] + coeffs[row - 1][col % n]
        + coeffs[row % n][col - 1] + coeffs[row % n][col % n], 4)


def maslov_index(coeffs, n: int, x, y) -> Fraction:
    """Index of a 2-chain from x to y: total point measure at both point sets."""
    return sum((point_measure(coeffs, n, x[r], r)
                + point_measure(coeffs, n, y[r], r) for r in range(n)),
               Fraction(0))


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


def smith_normal_form(mat):
    """Diagonalize an integer matrix: returns (d, u, v) with d = u*mat*v.

    ``d`` is diagonal with d[0][0] | d[1][1] | ..., all entries
    non-negative; ``u`` and ``v`` are square with determinant +-1.  The
    steps are those of the package's dense core, each applied to ``u``
    (rows) or ``v`` (columns) as well, so the transforms certify it.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_mix(t: int, i: int, b: int) -> None:
        p = a[t][t]
        g, s, x = _bezout(p, b)
        y, z = -b // g, p // g
        for mat_ in (a, u):
            rt, ri = mat_[t], mat_[i]
            mat_[t] = [s * e + x * f for e, f in zip(rt, ri)]
            mat_[i] = [y * e + z * f for e, f in zip(rt, ri)]

    def col_mix(t: int, j: int, b: int) -> None:
        p = a[t][t]
        g, s, x = _bezout(p, b)
        y, z = -b // g, p // g
        for mat_ in (a, v):
            for row in mat_:
                e, f = row[t], row[j]
                row[t], row[j] = s * e + x * f, y * e + z * f

    t = 0
    while t < m and t < n:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-e for e in a[t]]
            u[t] = [-e for e in u[t]]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    row_mix(t, i, a[i][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_mix(t, j, a[t][j])
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            p = a[t][t]
            offender = next((i for i in range(t + 1, m)
                             if any(e % p for e in a[i][t + 1:])), None)
            if offender is None:
                break
            a[t] = [e + f for e, f in zip(a[t], a[offender])]
            u[t] = [e + f for e, f in zip(u[t], u[offender])]
        t += 1
    return a, u, v


@lru_cache(maxsize=1)
def _inversions(x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-generator tables of ``reference_move_sign``, kept for the next
    move out of x.

    ``inv[v]`` is the bitmask of the values that form an inversion with
    ``v`` in ``x``, and ``above[m]`` the parity of the inversions whose
    two values both exceed ``m``.
    """
    n = len(x)
    inv = [0] * n
    for i, u in enumerate(x):
        for v in x[i + 1:]:
            if u > v:
                inv[u] |= 1 << v
                inv[v] |= 1 << u
    above = [0] * n
    acc = 0
    for m in range(n - 1, -1, -1):
        above[m] = acc
        acc ^= (inv[m] >> (m + 1)).bit_count() & 1
    return tuple(inv), tuple(above)


def reference_move_sign(x: tuple[int, ...], b: int, t: int) -> int:
    """Sign of the move out of ``x`` that swaps rows ``b`` and ``t``, as
    ``signs.move_sign``'s docstring states it, term by term.

    With lo, hi = min(b, t), max(b, t) and a = x[b], the exponent is
    ``[t < b]``, plus the diagonal cells the rectangle covers, plus the
    delta sum over the adjacent swaps lo..hi-1..lo, taken from x's
    inversion tables: pairs (u, v) of the swapped values and the values
    between contribute ``above[min] + #(inversions of max above min)``.
    """
    n = len(x)
    inv, above = _inversions(x)
    lo, hi = (b, t) if b < t else (t, b)
    low, high = x[lo], x[hi]
    between = x[lo + 1:hi]
    a = x[b]
    width = (x[t] - a) % n
    e = (t < b) + sum((b + k - a) % n < width for k in range((t - b) % n))
    e += (low > high) + sum(c < low for c in between) \
        + sum(c > high for c in between)
    for c in between:
        for u, v in ((low, c), (c, high)):
            m, big = (u, v) if u < v else (v, u)
            e += above[m] + (inv[big] >> (m + 1)).bit_count()
        if low > c < high:
            e += sum(d > c for d in between)
    m, big = (low, high) if low < high else (high, low)
    e += above[m] + (inv[big] >> (m + 1)).bit_count()
    return -1 if e & 1 else 1
