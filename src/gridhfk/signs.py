"""The sign axioms on empty rectangles, and their solver.

A sign assignment attaches +-1 to every move in the table (every empty
rectangle out of every generator) so that

* the two decompositions of an index-2 composite domain carry opposite
  products (the square rule),
* the unique decomposition of a height-1 horizontal annulus has product
  +1, and of a width-1 vertical annulus -1.

Such an assignment exists for every grid and is unique up to flipping all
signs at a set of generators (Manolescu, Ozsvath, Szabo and Thurston), so
any one of them gives the same homology.  The complexes take the closed
form of ``closed_signs.signer``; this module is the independent route,
which only ``check signs`` and the tests load; its ``SignAssignment``
answers the closed form's call, ``signs(x, rids)``.

The axioms themselves are F2 equations over that table: one unknown per
move, numbered by the move's position in the table's rows, and one
linear constraint per composite group (``sign_constraints``).
``solve_signs`` solves them by unit propagation from a pinned spanning
tree; it backs ``check signs``, which also requires the closed form to
meet every constraint, and the tests use it as the oracle.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from . import closed_signs
from .complexes import DEFAULT_MAX_GRID, Generator, MoveTable, move_table
from .errors import UnsatisfiableSigns
from .grid import Grid

__all__ = [
    "SignAssignment",
    "SignConstraints",
    "sign_constraints",
    "solve_signs",
]


class SignConstraints:
    """The sign axioms over the full move table, as F2 equations.

    The unknown of the t-th move out of generator i is ``first[i] + t``,
    the exponent of that move's sign.  Constraint c requires the unknowns
    ``cons_vars[cons_off[c]:cons_off[c + 1]]`` to sum to ``parity[c]``.
    """

    __slots__ = ("table", "first", "cons_vars", "cons_off", "parity")

    def __init__(self, table: MoveTable, first: list[int], cons_vars: array,
                 cons_off: array, parity: bytearray):
        self.table = table
        self.first = first
        self.cons_vars = cons_vars
        self.cons_off = cons_off
        self.parity = parity

    def __len__(self) -> int:
        return len(self.parity)

    def violation(self, values) -> int | None:
        """The first constraint the exponents ``values`` fail, or None."""
        cons_vars, cons_off = self.cons_vars, self.cons_off
        for c, total in enumerate(self.parity):
            for t in range(cons_off[c], cons_off[c + 1]):
                total ^= values[cons_vars[t]]
            if total:
                return c
        return None

    def certificate(self, c: int):
        return ("constraint",
                list(self.cons_vars[self.cons_off[c]:self.cons_off[c + 1]]),
                self.parity[c])

    def closed_form(self) -> bytearray:
        """``closed_signs.move_sign``'s exponents of every move, numbered as
        the unknowns."""
        table = self.table
        # looked up on each call, so a patched ``closed_signs.signer`` is seen
        sign = closed_signs.signer(table.grid.n)
        return bytearray(s < 0 for x, rids in zip(table.gens, table.rids)
                         for s in sign(x, rids))


class SignAssignment:
    """Solved +-1 labels on the moves of the full table of ``constraints``.

    The t-th move out of generator i has the sign ``(-1)^values[first[i]
    + t]``: the solver's own unknowns, with no copy keyed by move.
    """

    __slots__ = ("constraints", "values")

    def __init__(self, constraints: SignConstraints, values: bytearray):
        self.constraints = constraints
        self.values = values

    @property
    def table(self) -> MoveTable:
        return self.constraints.table

    @property
    def first(self) -> list[int]:
        return self.constraints.first

    @property
    def n_variables(self) -> int:
        return len(self.values)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def __call__(self, x: Generator, rids) -> list[int]:
        """Signs of the moves out of generator ``x`` whose rectangles have
        the ids ``rids``, in order: the contract of ``closed_signs.signer``.

        The full table lists every generator in lexicographic order, so
        x's row is its rank in that order.
        """
        i = _lex_rank(x)
        first, values = self.first, self.values
        unknown = dict(zip(self.table.rids[i], range(first[i], first[i + 1])))
        return [-1 if values[unknown[rid]] else 1 for rid in rids]


def _lex_rank(x: Generator) -> int:
    """Position of the permutation ``x`` in the lexicographic order."""
    rank, used = 0, 0
    for i, c in enumerate(x):
        rank = rank * (len(x) - i) + c - (used & ((1 << c) - 1)).bit_count()
        used |= 1 << c
    return rank


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
    """Unit propagation from ``seeds`` set to 0; returns the solution.

    Entries are 0/1 once known, 2 while unknown.  Raises on a
    contradiction, and on an unknown that propagation cannot reach.
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
    if 2 in values:
        raise UnsatisfiableSigns(
            "propagation left a rectangle's sign undetermined",
            certificate=("undetermined", values.index(2)))
    return values


def sign_constraints(g: Grid,
                     max_grid: int = DEFAULT_MAX_GRID) -> SignConstraints:
    """The square and annulus axioms over the move table of ``g``."""
    table = move_table(g, max_grid)
    n = g.n
    targets, rids = table.targets, table.rids

    # The unknown of the t-th move out of generator i is first[i] + t.
    first = list(accumulate(map(len, targets), initial=0))

    rect_masks = {}
    for rid, rect in table.rects.items():
        m = 0
        for r, c in rect.cells():
            m += 1 << (2 * (r * n + c))
        rect_masks[rid] = m
    horizontal, vertical = _thin_annulus_masks(n)

    cons_vars = array("i")
    cons_off = array("i", [0])
    parity = bytearray()

    def emit(vars_: tuple[int, ...], par: int) -> None:
        cons_vars.extend(vars_)
        cons_off.append(len(cons_vars))
        parity.append(par)

    for i, row in enumerate(targets):
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for v1, (rid1, j) in enumerate(zip(rids[i], row), first[i]):
            m1 = rect_masks[rid1]
            for v2, (rid2, k) in enumerate(zip(rids[j], targets[j]),
                                           first[j]):
                key = (k, m1 + rect_masks[rid2])
                groups.setdefault(key, []).append((v1, v2, j))
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
    return SignConstraints(table, first, cons_vars, cons_off, parity)


def solve_signs(g: Grid, max_grid: int = DEFAULT_MAX_GRID) -> SignAssignment:
    """Solve the square and annulus axioms over the move table of ``g``."""
    cons = sign_constraints(g, max_grid)
    targets, first = cons.table.targets, cons.first

    # Gauge: breadth-first spanning tree over the move graph, one move per
    # newly reached generator pinned to +1.
    seeds: list[int] = []
    seen = bytearray(len(targets))
    seen[0] = 1
    frontier = [0]
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            for v, j in enumerate(targets[i], first[i]):
                if not seen[j]:
                    seen[j] = 1
                    seeds.append(v)
                    nxt.append(j)
        frontier = nxt
    if not all(seen):
        raise UnsatisfiableSigns(
            "move graph failed to reach every generator",
            certificate=("unreached", seen.index(0)))

    values = _propagate(first[-1], cons.cons_vars, cons.cons_off, cons.parity,
                        seeds)
    c = cons.violation(values)
    if c is not None:
        raise UnsatisfiableSigns("solved assignment fails a constraint",
                                 certificate=cons.certificate(c))
    return SignAssignment(cons, values)
