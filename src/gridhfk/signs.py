"""Sign assignments on empty rectangles.

A sign assignment attaches +-1 to every move in the table (every empty
rectangle out of every generator) so that

* the two decompositions of an index-2 composite domain carry opposite
  products (the square rule),
* the unique decomposition of a height-1 horizontal annulus has product
  +1, and of a width-1 vertical annulus -1.

Such an assignment exists for every grid and is unique up to flipping all
signs at a set of generators (Manolescu, Ozsvath, Szabo and Thurston), so
any one of them gives the same homology.  ``move_sign`` is one in closed
form, after Gallais's construction from the spin extension of S_n: each
generator lifts canonically to the Clifford algebra, a move from x
multiplies x's lift by the lift of the transposition of its two rows, and
the sign compares that product with the lift of the target, corrected by
the diagonal cells the rectangle covers.  It reads nothing but x and the
two rows, so every complex asks for the signs of its own moves, one
generator at a time, and no path reads the table of every rectangle.
``signer`` is the one place that computes it: a generator's inversion
masks are built once for all its moves, and a rectangle's wrap and
diagonal term once for all generators, so a move pays only for the rows
between the two it swaps.

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

from .complexes import DEFAULT_MAX_GRID, Generator, MoveTable, move_table
from .errors import UnsatisfiableSigns
from .grid import Grid

__all__ = [
    "SignAssignment",
    "SignConstraints",
    "move_sign",
    "sign_constraints",
    "signer",
    "solve_signs",
]


def move_sign(x: Generator, b: int, t: int) -> int:
    """Sign of the move out of ``x`` that swaps rows ``b`` and ``t``.

    ``b`` is the row of the rectangle's lower-left corner and ``t`` that
    of its upper-right one: the rectangle spans the rows b..b+h-1 (mod n)
    with h = (t - b) mod n, and the columns from a = x[b] to x[t].  With
    lo, hi = min(b, t), max(b, t) the sign is (-1)^e, with e the sum mod 2
    of

    * ``[t < b]``, for a rectangle that wraps through the top row;
    * the diagonal cells (r, r) the rectangle covers;
    * delta(s, k) over the adjacent swaps k = lo, lo+1, ..., hi-1, hi-2,
      ..., lo applied in turn to s = list(x), where delta(s, k) counts
      ``[s[k] > s[k+1]]`` and the inversions of s between two values
      other than s[k] and s[k+1] that both exceed min(s[k], s[k+1]).

    In the Clifford algebra Cl_n (e_i^2 = -1) the swaps multiply the
    canonical lift of x by s_lo ... s_{hi-1} ... s_lo = (e_b - e_t)/sqrt(2),
    and the delta sum compares the product with the lift of the target;
    the diagonal count, additive on squares and odd on every thin
    annulus, turns the annulus products into +1 (horizontal) and -1
    (vertical).

    The delta sum has a closed form in x's own inversions.  While x[lo]
    rises to row hi, the values other than x[lo] and the one it passes
    keep their order in x; while x[hi] sinks back to row lo, so do those
    other than x[hi] and the one it passes, except that x[lo] now sits
    above the rows between: each pair it forms with them flips.  So, mod
    2, the sum is ``[x[lo] > x[hi]]``; plus, for each value c between,
    ``[c < x[lo]] + [c > x[hi]]``, and the values between that exceed c
    if c is below both x[lo] and x[hi]; plus, for each pair {u, v} of
    x[lo] or x[hi] with a value between, and for {x[lo], x[hi]}, the
    inversions of x among the values over min(u, v) other than those of
    max(u, v).  When x[lo] > x[hi], each of the K values between that
    exceed x[hi] would add the K - 1 others: K(K - 1) in all, which is
    even, so it is left out.  ``signer`` takes these terms; this is its
    answer for the one rectangle.
    """
    n = len(x)
    m = n - 1
    a = x[b]
    rid = ((a * n + b) * m + (x[t] - a) % n - 1) * m + (t - b) % n - 1
    return signer(n)(x, [rid])[0]


def signer(n: int):
    """The closed-form signs on an n x n grid, as one function.

    ``signs(x, rids)`` gives the sign ``move_sign`` states of each move
    out of generator ``x`` whose rectangle has an id in ``rids``, in
    order.  Every path that wants closed-form signs (the complex
    builder, the poset covers, ``SignConstraints.closed_form``) asks this
    one function, one generator at a time.  Each term of the exponent is
    paid where it is fixed:

    * per rectangle id, the rows lo < hi the move swaps and the parity of
      ``[t < b]`` and the diagonal cells covered, read on first use and
      kept by this signer, so only as long as its caller holds it;
    * per generator, the inversion masks ``inv[u]`` (the values forming
      an inversion with u: the values seen before u in x, XOR those
      below u) in one walk of x, and ``above[v]`` (the inversions
      between values over v) from the top value down;
    * per move, the delta sum over the rows between lo and hi.
    """
    m = n - 1
    fixed: dict[int, tuple[int, int, int]] = {}

    def fix(rid: int) -> tuple[int, int, int]:
        h, w = rid % m + 1, rid // m % m + 1
        b, a = rid // (m * m) % n, rid // (m * m * n)
        t = (b + h) % n
        e = t < b
        for k in range(h):
            e += (b + k - a) % n < w
        fixed[rid] = entry = (b, t, e) if b < t else (t, b, e)
        return entry

    def signs(x: Generator, rids) -> list[int]:
        inv = [0] * n
        seen = 0
        for u in x:
            inv[u] = seen ^ ((1 << u) - 1)
            seen |= 1 << u
        above = [0] * n
        for v in range(m, 0, -1):
            above[v - 1] = above[v] + (inv[v] >> (v + 1)).bit_count()
        out = []
        for rid in rids:
            lo, hi, e = fixed.get(rid) or fix(rid)
            low, high = x[lo], x[hi]
            if low < high:
                e += above[low] + (inv[high] >> (low + 1)).bit_count()
            else:
                e += 1 + above[high] + (inv[low] >> (high + 1)).bit_count()
            if hi - lo > 1:
                # below: the values between under both low and high
                below = 0
                for c in x[lo + 1:hi]:
                    if c < low:
                        e += 1 + above[c] + (inv[low] >> (c + 1)).bit_count()
                    else:
                        e += above[low] + (inv[c] >> (low + 1)).bit_count()
                    if c > high:
                        e += 1 + above[high] \
                            + (inv[c] >> (high + 1)).bit_count()
                    else:
                        e += above[c] + (inv[high] >> (c + 1)).bit_count()
                        below += c < low
                # each such c adds the values between over it: the other
                # such values once per pair, and every other value
                e += below * (below - 1) // 2 + below * (hi - lo - 1 - below)
            out.append(-1 if e & 1 else 1)
        return out

    return signs


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
        """``move_sign``'s exponents of every move, numbered as the unknowns."""
        table = self.table
        sign = signer(table.grid.n)
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

    def row(self, x: Generator) -> dict[int, int]:
        """Signs of the moves out of generator ``x``, keyed by rectangle id.

        The full table lists every generator in lexicographic order, so
        x's row is its rank in that order.
        """
        i = _lex_rank(x)
        values = self.values
        return {rid: -1 if values[v] else 1
                for v, rid in enumerate(self.table.rids[i], self.first[i])}


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
