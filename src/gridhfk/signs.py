"""Sign assignments on empty rectangles.

A sign assignment attaches +-1 to every move in the table (every empty
rectangle out of every generator) so that

* the two decompositions of an index-2 composite domain carry opposite
  products (the square rule),
* the unique decomposition of a height-1 horizontal annulus has product
  +1, and of a width-1 vertical annulus -1.

Such an assignment exists for every grid and is unique up to flipping all
signs at a set of generators, so the solver fixes a spanning tree of the
move graph to +1 and determines the rest.  Signs are encoded as F2
exponents: one unknown per move, one linear constraint per composite
group, solved by unit propagation with a small elimination fallback, then
every constraint is re-checked.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .complexes import DEFAULT_MAX_GRID, move_table
from .errors import UnsatisfiableSigns
from .grid import Grid

__all__ = ["SignAssignment", "solve_signs"]


@dataclass(frozen=True)
class SignAssignment:
    """Solved +-1 labels, queried by (generator id, rectangle id)."""

    grid: Grid
    exponents: dict[tuple[int, int], int]
    n_variables: int
    n_constraints: int

    def sign(self, gen_id: int, rect_id: int) -> int:
        return -1 if self.exponents[(gen_id, rect_id)] else 1


def _thin_annulus_masks(n: int) -> tuple[set[int], set[int]]:
    """Cell masks (2 bits per cell) of the height-1 and width-1 annuli."""
    horizontal = set()
    vertical = set()
    for k in range(n):
        horizontal.add(sum(1 << (2 * (k * n + c)) for c in range(n)))
        vertical.add(sum(1 << (2 * (r * n + k)) for r in range(n)))
    return horizontal, vertical


def _propagate(nvars: int, cons_vars: array, cons_off: array,
               parity: bytearray, seeds: list[int]):
    """Unit propagation; returns the partial solution as a bytearray.

    Entries are 0/1 once known, 2 while unknown.  Raises on contradiction.
    """
    ncons = len(parity)
    values = bytearray([2]) * nvars
    degree = array("i", [0]) * nvars
    for v in cons_vars:
        degree[v] += 1
    adj_off = array("i", [0]) * (nvars + 1)
    for v in range(nvars):
        adj_off[v + 1] = adj_off[v] + degree[v]
    adj = array("i", [0]) * len(cons_vars)
    cursor = array("i", adj_off[:-1])
    for c in range(ncons):
        for k in range(cons_off[c], cons_off[c + 1]):
            v = cons_vars[k]
            adj[cursor[v]] = c
            cursor[v] += 1
    unknown = array("i", [0]) * ncons
    acc = bytearray(parity)
    for c in range(ncons):
        unknown[c] = cons_off[c + 1] - cons_off[c]

    stack: list[int] = []

    def assign(v: int, val: int) -> None:
        if values[v] != 2:
            if values[v] != val:
                raise UnsatisfiableSigns(
                    "propagation derived both signs for one rectangle",
                    certificate=("variable", v))
            return
        values[v] = val
        stack.append(v)

    for v in seeds:
        assign(v, 0)
    while stack:
        v = stack.pop()
        val = values[v]
        for k in range(adj_off[v], adj_off[v + 1]):
            c = adj[k]
            unknown[c] -= 1
            if val:
                acc[c] ^= 1
            if unknown[c] == 1:
                for t in range(cons_off[c], cons_off[c + 1]):
                    w = cons_vars[t]
                    if values[w] == 2:
                        assign(w, acc[c])
                        break
            elif unknown[c] == 0 and acc[c]:
                raise UnsatisfiableSigns(
                    "constraint violated during propagation",
                    certificate=("constraint",
                                 list(cons_vars[cons_off[c]:cons_off[c + 1]]),
                                 parity[c]))
    return values


def _eliminate_residual(values: bytearray, cons_vars: array, cons_off: array,
                        parity: bytearray) -> None:
    """Gaussian elimination over the variables propagation left unknown."""
    unknown_ids = [v for v, val in enumerate(values) if val == 2]
    if not unknown_ids:
        return
    col_of = {v: k for k, v in enumerate(unknown_ids)}
    pivots: dict[int, tuple[int, int]] = {}
    order: list[int] = []
    for c in range(len(parity)):
        mask = 0
        rhs = parity[c]
        for k in range(cons_off[c], cons_off[c + 1]):
            v = cons_vars[k]
            if values[v] == 2:
                mask ^= 1 << col_of[v]
            else:
                rhs ^= values[v]
        while mask:
            p = mask.bit_length() - 1
            if p not in pivots:
                pivots[p] = (mask, rhs)
                order.append(p)
                break
            pmask, prhs = pivots[p]
            mask ^= pmask
            rhs ^= prhs
        else:
            if rhs:
                raise UnsatisfiableSigns(
                    "inconsistent residual system",
                    certificate=("constraint",
                                 list(cons_vars[cons_off[c]:cons_off[c + 1]]),
                                 parity[c]))
    solution = bytearray(len(unknown_ids))
    for p in reversed(order):
        mask, rhs = pivots[p]
        mask ^= 1 << p
        while mask:
            q = mask.bit_length() - 1
            mask ^= 1 << q
            rhs ^= solution[q]
        solution[p] = rhs
    for v, k in col_of.items():
        values[v] = solution[k]


def solve_signs(g: Grid, max_grid: int = DEFAULT_MAX_GRID) -> SignAssignment:
    """Solve the square and annulus axioms over the move table of ``g``."""
    table = move_table(g, max_grid)
    n = g.n
    moves = table.moves

    var_of: dict[tuple[int, int], int] = {}
    for i, row in enumerate(moves):
        for rid, _ in row:
            var_of[(i, rid)] = len(var_of)
    nvars = len(var_of)

    rect_masks = []
    for rect in table.rects:
        m = 0
        for r, c in rect.cells():
            m += 1 << (2 * (r * n + c))
        rect_masks.append(m)
    horizontal, vertical = _thin_annulus_masks(n)

    cons_vars = array("i")
    cons_off = array("i", [0])
    parity = bytearray()

    def emit(vars_: tuple[int, ...], par: int) -> None:
        cons_vars.extend(vars_)
        cons_off.append(len(cons_vars))
        parity.append(par)

    for i, row in enumerate(moves):
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for rid1, j in row:
            v1 = var_of[(i, rid1)]
            m1 = rect_masks[rid1]
            row2 = moves[j]
            for rid2, k in row2:
                key = (k, m1 + rect_masks[rid2])
                entry = (v1, var_of[(j, rid2)], j)
                groups.setdefault(key, []).append(entry)
        for (k, mask), entries in groups.items():
            if k != i:
                if len(entries) != 2:
                    raise UnsatisfiableSigns(
                        "index-2 composite without exactly two "
                        "decompositions", certificate=("composite", entries))
                (a1, a2, _), (b1, b2, _) = entries
                emit((a1, a2, b1, b2), 1)
            else:
                if len(entries) != 1:
                    raise UnsatisfiableSigns(
                        "thin annulus with a second decomposition",
                        certificate=("annulus", entries))
                v1, v2, j = entries[0]
                if i > j:
                    continue  # the same annulus is emitted from the partner
                if mask in vertical:
                    emit((v1, v2), 1)
                elif mask in horizontal:
                    emit((v1, v2), 0)
                else:
                    raise UnsatisfiableSigns(
                        "closed composite that is not a thin annulus",
                        certificate=("annulus", entries))

    # Gauge: breadth-first spanning tree over the move graph, one move per
    # newly reached generator pinned to +1.
    seeds: list[int] = []
    seen = bytearray(len(moves))
    seen[0] = 1
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            for rid, j in moves[i]:
                if not seen[j]:
                    seen[j] = 1
                    seeds.append(var_of[(i, rid)])
                    nxt.append(j)
        frontier = nxt
    if not all(seen):
        raise UnsatisfiableSigns(
            "move graph failed to reach every generator",
            certificate=("unreached", seen.index(0)))

    values = _propagate(nvars, cons_vars, cons_off, parity, seeds)
    _eliminate_residual(values, cons_vars, cons_off, parity)

    for c in range(len(parity)):
        total = parity[c]
        for t in range(cons_off[c], cons_off[c + 1]):
            total ^= values[cons_vars[t]]
        if total:
            raise UnsatisfiableSigns(
                "solved assignment fails a constraint",
                certificate=("constraint",
                             list(cons_vars[cons_off[c]:cons_off[c + 1]]),
                             parity[c]))

    exponents = {key: values[v] for key, v in var_of.items()}
    return SignAssignment(g, exponents, nvars, len(parity))
