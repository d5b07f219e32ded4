"""Dense integer Smith normal form, for the cores unit pivots leave.

``linalg.invariant_factors`` strips the +-1 pivots of a sparse integer
matrix first; on the boundary matrices of grid complexes that almost
always empties it.  What remains, if anything, comes here as a small
dense matrix, and its Smith form is taken with exact big-integer
arithmetic, of which only the diagonal is kept: the row and column
operations rewrite the core alone, with no unimodular transforms built
alongside.  ``linalg`` imports this module only when a core remains.
"""

from __future__ import annotations

from typing import Sequence


def _bezout(p: int, b: int) -> tuple[int, int, int]:
    """(g, s, x) with s*p + x*b = g = gcd(p, b), for p > 0; (p, 1, 0) when
    p divides b."""
    if b % p == 0:
        return p, 1, 0
    r0, r1, s0, s1, x0, x1 = p, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        x0, x1 = x1, x0 - q * x1
    return (r0, s0, x0) if r0 > 0 else (-r0, -s0, -x0)


def _dense_invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    The diagonal is d[0][0] | d[1][1] | ..., all positive.  Dense
    big-integer arithmetic, for the small cores the unit pivots leave.

    Each entry in the pivot's column (row) is cleared by one unimodular
    combination of the two rows (columns) from the extended gcd, which
    leaves the gcd as the pivot.  Clearing by repeated division with
    swaps lets the entries grow without bound: past 800,000 bits on some
    7 x 8 matrices with entries in -3..3.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0

    def row_mix(t: int, i: int, b: int) -> None:
        """Rows t, i become (s, x; -b/g, p/g) times themselves: a[i][t] = 0."""
        p = a[t][t]
        g, s, x = _bezout(p, b)
        y, z = -b // g, p // g
        rt, ri = a[t], a[i]
        a[t] = [s * e + x * f for e, f in zip(rt, ri)]
        a[i] = [y * e + z * f for e, f in zip(rt, ri)]

    def col_mix(t: int, j: int, b: int) -> None:
        """Columns t, j, likewise: a[t][j] = 0."""
        p = a[t][t]
        g, s, x = _bezout(p, b)
        y, z = -b // g, p // g
        for row in a:
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
        for row in a:
            row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-e for e in a[t]]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    row_mix(t, i, a[i][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_mix(t, j, a[t][j])
            # A column step whose pivot did not divide its entry lowered
            # the pivot and refilled the column: clear it again.
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            p = a[t][t]
            offender = next((i for i in range(t + 1, m)
                             if any(e % p for e in a[i][t + 1:])), None)
            if offender is None:
                break
            a[t] = [e + f for e, f in zip(a[t], a[offender])]
        t += 1
    return [a[i][i] for i in range(t)]
