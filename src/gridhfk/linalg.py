"""Exact linear algebra: bit-packed F2 elimination and integer Smith form.

Matrices over F2 travel as lists of Python ints, one bitmask per row, so a
rank computation is a handful of xors.  Matrices over Z travel as sparse
row dictionaries; elimination peels off unit pivots first (the boundary
matrices built elsewhere in this package start with entries in {-1, 0, 1},
so this stage almost always consumes everything) and hands any leftover
core to the dense Smith normal form of ``smith``, which is imported only
then.

The unit pivots come from a first-in first-out queue of rows, each row
in it at most once.  A popped row pivots on its +-1 entry in the
shortest column, and every row that pivot rewrites goes back in the
queue, since a rewrite can create a +-1 entry.  A pivot thus costs the
rows it touches, not a scan of the matrix.  Row operations with unit
pivots are unimodular, so the pivot order cannot change the invariant
factors.

Both ``f2_rank`` and ``invariant_factors`` can hand back the columns of
their unit pivots; ``homology`` uses them to drop rows from the next
block.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


def f2_rank(rows: Iterable[int], pivot_cols: list[int] | None = None) -> int:
    """Rank over F2 of the matrix whose rows are the given bitmasks.

    ``pivot_cols``, if given, gains the leading bit of every pivot row.
    The pivot rows are sums of the given rows with distinct leading bits,
    so they are unit-triangular on those columns.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            p = row.bit_length() - 1
            if p not in pivots:
                pivots[p] = row
                rank += 1
                break
            row ^= pivots[p]
    if pivot_cols is not None:
        pivot_cols.extend(pivots)
    return rank


def _strip_unit_pivots(rows: dict[int, dict[int, int]]) -> list[int]:
    """Eliminate with +-1 pivots in place; returns their columns in order.

    Rows wait in a first-in first-out queue, each at most once.  A popped
    row pivots on its +-1 entry whose column holds the fewest rows, which
    keeps fill low on the nearly-unimodular blocks ``homology`` hands in,
    and that column is cleared from every other row through the column
    index.  Rows that empty are deleted; the other rewritten rows go back
    in the queue, since a rewrite can create a +-1 entry.  A row with no
    +-1 entry when popped stays in ``rows`` for the dense core.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    queue = deque(rows)
    queued = set(rows)
    eliminated = []
    while queue:
        r0 = queue.popleft()
        queued.discard(r0)
        pivot_row = rows.get(r0)
        if pivot_row is None:
            continue
        c0 = None
        for c, val in pivot_row.items():
            if val in (1, -1) and (c0 is None
                                   or len(cols[c]) < len(cols[c0])):
                c0 = c
        if c0 is None:
            continue
        del rows[r0]
        sign = pivot_row.pop(c0)
        for c in pivot_row:
            cols[c].discard(r0)
        touched = cols.pop(c0)
        touched.discard(r0)
        for r in touched:
            row = rows[r]
            factor = row.pop(c0) * sign
            for c, val in pivot_row.items():
                new = row.get(c, 0) - factor * val
                if new:
                    row[c] = new
                    cols.setdefault(c, set()).add(r)
                elif c in row:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del rows[r]
            elif r not in queued:
                queue.append(r)
                queued.add(r)
        eliminated.append(c0)
    return eliminated


def invariant_factors(rows: Iterable[dict[int, int]],
                      pivot_cols: list[int] | None = None) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix.

    ``rows`` holds one dict per row mapping column index to a nonzero
    entry.  The number of factors is the rank; the factors greater than 1
    are the torsion coefficients of the cokernel.

    ``pivot_cols``, if given, gains the column of every +-1 pivot the
    sparse stage took, in pivot order.  Each pivot row is an integer
    combination of the given rows with a +-1 at its column and 0 at the
    columns of the pivots before it.  The pivots of the dense Smith core
    are never reported: they need not be units, and its column operations
    mix the columns.
    """
    work = {i: dict(row) for i, row in enumerate(rows) if row}
    units = _strip_unit_pivots(work)
    if pivot_cols is not None:
        pivot_cols.extend(units)
    factors = [1] * len(units)
    if work:
        live_cols = sorted({c for row in work.values() for c in row})
        col_pos = {c: k for k, c in enumerate(live_cols)}
        dense = []
        for row in work.values():
            vec = [0] * len(live_cols)
            for c, val in row.items():
                vec[col_pos[c]] = val
            dense.append(vec)
        from .smith import _dense_invariant_factors

        factors.extend(_dense_invariant_factors(dense))
    return factors

