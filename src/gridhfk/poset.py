"""Generator posets per Alexander grading, and their structure checks.

Generators of a fixed Alexander grading are partially ordered by the
existence of a positive connecting domain with prescribed marking
multiplicities.  Covering relations are realized by empty rectangles and
coincide with the boundary matrix of the corresponding chain complex,
and the order is their reflexive-transitive closure: that is how it is
computed, once per poset, as one bitset of lower elements per element.
The posets of all gradings come from one pass of the complex builder.
XOR-ing the down-sets of the elements below x gives, at bit y, the
parity of the interval [y, x].  ``poset_stats`` reads every open
interval's parity from those entries, and the tower identities with
them: the composites of the tower maps at level k are the parities at
grading gap k.  On the pairs it samples, ``connecting_domain`` (the
definition) and ``interval`` (the sub-poset itself) certify the order
and the count.  ``connecting_domain`` and its ``Domain`` live here, with
their one caller; no other command needs them.
On top of the order this module provides interval extraction, the
graded boundary maps of the spectral tower, connected components with
their homology, and the edge-lexicographic labeling used to certify
shellability of closed intervals.
"""

from __future__ import annotations

import collections
import random
from functools import reduce
from operator import sub, xor
from typing import NamedTuple

from .complexes import (
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_GRID,
    ChainComplex,
    Generator,
    _check_basis_size,
    _check_coefficients,
    _check_grid_size,
    _differential,
    _term_class,
    move_table,
    rect_key,
)
from .errors import EmptyInterval, InvalidDifferential
from .gradings import _generator_sums
# maslov and alexander are called through complexes and gradings, not from
# here; perfbench wraps both under these names.
from .gradings import alexander, maslov  # noqa: F401
from .grid import Grid
from .homology import BigradedRanks, homology

__all__ = [
    "Domain",
    "ELLabel",
    "GridPoset",
    "alexander_range",
    "build_poset",
    "components",
    "connecting_domain",
    "del_tower",
    "del2_lands_in_boundaries",
    "el_label",
    "interval",
    "maximal_chains",
    "el_increasing_chain_check",
    "poset_stats",
    "tower_sum",
]


class ELLabel(NamedTuple):
    """Edge label (s, i, t), compared lexicographically.

    s is 0 when the rectangle crosses the reference circle, i the number
    of vertical circles crossed to reach the rectangle's left edge from
    the reference circle (leftward for s = 0, rightward for s = 1), and
    t the rectangle's thickness, its width.
    """

    s: int
    i: int
    t: int


class GridPoset:
    """Elements of one Alexander grading with their positive-domain order.

    ``elements`` are generators in hat mode, or (generator, exponents)
    pairs in truncated minus mode.  ``covers[u]`` is element u's row of
    the differential: its (lower, rect_id) int pairs, each id the one the
    move table gives the rectangle that realizes the covering move from
    u down to lower (read back by ``complexes.rect_key``).  y <= x when a
    positive domain with the required marking multiplicities connects x
    to y; those are exactly the chains of covers, so ``below[i]`` holds
    the closure: bit j is set when element j is at or below element i.
    ``index`` maps each element to its position.  Build posets with
    ``_make_poset``.
    """

    __slots__ = ("grid", "mode", "alexander", "elements", "maslov", "covers",
                 "below", "index")

    def __init__(self, grid: Grid, mode: str, alexander: int,
                 elements: tuple, maslov: tuple[int, ...],
                 covers: tuple[tuple[tuple[int, int], ...], ...],
                 below: tuple[int, ...], index: dict):
        self.grid = grid
        self.mode = mode
        self.alexander = alexander
        self.elements = elements
        self.maslov = maslov
        self.covers = covers
        self.below = below
        self.index = index

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, y, x) -> bool:
        """True when y is below x (or equal): a positive domain connects them."""
        return bool(self.below[self.index[x]] >> self.index[y] & 1)

    def _split(self, element):
        """(generator, exponents) of an element; a hat element has U^0."""
        return (element, (0,) * self.grid.n) if self.mode == "hat" else element


def _make_poset(g: Grid, mode: str, a: int, elements, maslov, covers,
                members) -> GridPoset:
    """The poset on ``members``, with its order closed over the cover rows.

    ``members`` are ascending indices into ``elements``, ``maslov`` and
    ``covers``; each member keeps the part of its cover row that lands
    on members, renumbered to their positions.  A cover lowers the
    grading, so merging the rows in grading order, each lower down-set
    is complete when it is merged into the upper one.
    """
    local = {z: i for i, z in enumerate(members)}
    rows = tuple(tuple((local[l], rid) for l, rid in covers[z] if l in local)
                 for z in members)
    grading = tuple(maslov[z] for z in members)
    below = [1 << i for i in range(len(members))]
    for upper in sorted(range(len(members)), key=grading.__getitem__):
        for lower, _ in rows[upper]:
            below[upper] |= below[lower]
    kept = tuple(elements[z] for z in members)
    return GridPoset(grid=g, mode=mode, alexander=a, elements=kept,
                     maslov=grading, covers=rows, below=tuple(below),
                     index={e: i for i, e in enumerate(kept)})


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _truncation(mode: str, truncation: int | None) -> int:
    """The bound d of a poset mode: hat posets are the d = 1 truncation."""
    if mode == "hat":
        return 1
    if mode != "minus":
        raise ValueError(f"mode must be 'hat' or 'minus', got {mode!r}")
    if truncation is None or truncation < 1:
        raise ValueError("minus mode needs a positive truncation bound")
    return truncation


def build_poset(g: Grid, a: int, mode: str = "hat",
                truncation: int | None = None,
                max_grid: int = DEFAULT_MAX_GRID,
                max_elements: int = DEFAULT_MAX_ELEMENTS) -> GridPoset:
    """Poset of the Alexander grading ``a`` of the hat or truncated minus basis.

    Elements, gradings and covers are that grading's part of the complex
    from the builder in ``complexes``, with hat as its d = 1 truncation.
    """
    return _posets(g, mode, truncation, (a,), max_grid, max_elements)[0]


def _posets(g: Grid, mode: str, truncation: int | None, gradings,
            max_grid: int, max_elements: int) -> list[GridPoset]:
    """Posets of the Alexander gradings ``gradings``, from one builder pass.

    The builder walks the whole basis once; the differential keeps A, so
    each grading's elements carry their whole cover rows.  The builder's
    coefficient rows are the moves' rectangle ids, which the covers keep
    as they come.
    """
    d = _truncation(mode, truncation)
    cls = _term_class(d)
    hat = mode == "hat"
    _check_basis_size(g, d, max_grid, max_elements,
                      "hat" if hat else "truncated minus")
    table = move_table(g, max_grid, cls)
    elements, bigradings, rows, rids = _differential(
        table, d, table.rids.__getitem__, hat)
    del table
    covers = [list(zip(row, ids)) for row, ids in zip(rows, rids)]
    members = {a: [] for a in gradings}
    for i, (_, a) in enumerate(bigradings):
        if a in members:
            members[a].append(i)
    maslov = [m for m, _ in bigradings]
    return [_make_poset(g, mode, a, elements, maslov, covers, members[a])
            for a in gradings]


def alexander_range(g: Grid, mode: str = "hat", truncation: int | None = None,
                    max_grid: int = DEFAULT_MAX_GRID) -> range:
    """Alexander gradings carrying at least one basis element.

    The generators' lowest and highest A come from their counts per
    grading (``gradings._generator_sums``), not from listing all n!.
    The truncated minus basis reaches ``n * (truncation - 1)`` gradings
    below the plain generators, one step per exponent unit.
    """
    d = _truncation(mode, truncation)
    _check_grid_size(g, max_grid)
    counts = _generator_sums(g)
    return range(min(counts) - g.n * (d - 1), max(counts) + 1)


# ------------------------------------------------------------- components

def components(p: GridPoset, coefficients: str = "F2",
               signs=None) -> list[tuple[int, BigradedRanks]]:
    """Connected components of the covering graph, with their homology.

    Each component is an honest direct summand of the chain complex, so
    its homology is computed by restricting the differential to it.  Over
    Z each cover takes the sign of its move out of the element's
    generator: the closed form of ``closed_signs.signer``, asked once per
    element for its whole cover row, unless ``signs`` gives a solved
    assignment.
    """
    _check_coefficients(coefficients)
    m = len(p.elements)
    if signs is None and coefficients == "Z":
        from .closed_signs import signer

        signs = signer(p.grid.n)

    def coeffs(u: int) -> list[int]:
        """Signs of element u's covers, in the order of its cover row."""
        return signs(p._split(p.elements[u])[0],
                     [rid for _, rid in p.covers[u]])

    adjacent = [[l for l, _ in row] for row in p.covers]
    for u, row in enumerate(p.covers):
        for l, _ in row:
            adjacent[l].append(u)

    seen = [False] * m
    out = []
    for start in range(m):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacent[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comp.sort()
        local = {v: i for i, v in enumerate(comp)}
        rows = [[local[l] for l, _ in p.covers[v]] for v in comp]
        cc = ChainComplex(coefficients, p.mode, [p.elements[v] for v in comp],
                          [(p.maslov[v], p.alexander) for v in comp], rows,
                          list(map(coeffs, comp)) if coefficients == "Z"
                          else None)
        out.append((len(comp), homology(cc)))
    return out


# --------------------------------------------------------------- intervals

def interval(p: GridPoset, y, x, shape: str = "closed") -> GridPoset:
    """Induced sub-poset on [y,x], (y,x] or (y,x).

    Its members are the elements between y and x in the order's
    bitsets, and ``_make_poset`` keeps their cover rows to the members,
    so the cost grows with the interval.  Raises EmptyInterval when y is
    not below x.
    """
    if shape not in ("closed", "open", "half"):
        raise ValueError(f"shape must be closed, open or half, got {shape!r}")
    if not p.leq(y, x):
        raise EmptyInterval(f"{y} is not below {x}")
    yi, xi = p.index[y], p.index[x]
    dropped = {"closed": (), "half": (yi,), "open": (yi, xi)}[shape]
    members = [z for z in _bits(p.below[xi])
               if p.below[z] >> yi & 1 and z not in dropped]
    return _make_poset(p.grid, p.mode, p.alexander, p.elements, p.maslov,
                       p.covers, members)


def maximal_chains(p: GridPoset, y, x):
    """Saturated chains from y up to x, with the rectangles they use.

    Returns a list of (element index tuple, rectangle id tuple) pairs, in
    the ambient poset's indexing, each path running from y up to x.
    Every cover step lowers the grading by one, so any walk down the
    cover rows from x through elements above y that reaches y is a
    maximal chain of the interval.
    """
    if not p.leq(y, x):
        raise EmptyInterval(f"{y} is not below {x}")
    yi, xi = p.index[y], p.index[x]
    chains: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    stack = [((xi,), ())]
    while stack:
        path, rids = stack.pop()
        last = path[-1]
        if last == yi:
            chains.append((path[::-1], rids[::-1]))
            continue
        for l, rid in p.covers[last]:
            if p.below[l] >> yi & 1:
                stack.append((path + (l,), rids + (rid,)))
    return chains


# ----------------------------------------------------------- spectral tower

def _levels(p: GridPoset) -> dict[int, int]:
    """Maslov grading -> bitset of the elements at that grading."""
    level: dict[int, int] = collections.defaultdict(int)
    for idx, g in enumerate(p.maslov):
        level[g] |= 1 << idx
    return level


def _parities(p: GridPoset) -> list[int]:
    """Interval parities: entry x is the XOR of ``below[z]`` over z <= x.

    Bit y of entry x is the parity of the closed interval [y, x], so of
    the open one (y, x) when y < x; bit x is always set.  One XOR per
    related pair.
    """
    below = p.below
    return [reduce(xor, map(below.__getitem__, _bits(mask)), 0)
            for mask in below]


def del_tower(p: GridPoset, i: int) -> list[int]:
    """The grading-i boundary map as bitmask rows over F2.

    Row x has bit y set when y lies below x with grading difference
    exactly i.  For i = 1 this is the covering relation, which equals
    the boundary matrix of the complex restricted to this grading.
    """
    if i < 1:
        raise ValueError(f"tower index must be positive, got {i}")
    level = _levels(p)
    return [bits & level.get(g - i, 0) for bits, g in zip(p.below, p.maslov)]


def tower_sum(p: GridPoset, k: int) -> list[int]:
    """Sum over i + j = k of the composite maps d_j d_i, as bitmask rows.

    All-zero rows certify the tower identity at level k, for k >= 2.
    Row x is x's entry of ``_parities`` at grading gap k.  Every strict
    relation lowers the grading, so each y strictly between z and x lies
    on exactly one composite, the one with i = g(x) - g(y).  In the XOR
    of ``below[z]`` over z <= x, read at gap k, the terms with
    0 < g(x) - g(z) < k are the composites.  The term z = x gives
    ``below[x]`` at gap k, and each z at gap k gives only itself: the
    two cancel.
    """
    if k < 2:
        raise ValueError(f"tower level must be >= 2, got {k}")
    return [e & d for e, d in zip(_parities(p), del_tower(p, k))]


def del2_lands_in_boundaries(p: GridPoset) -> bool:
    """Does the level-2 map send every level-1 cycle into level-1 boundaries?

    This is the homology-level vanishing of the second tower map, decided
    by one F2 elimination on bitmask rows.  Each row of d1 is reduced by
    the leading bits of the pivots so far, and its row of d2 takes the
    same XORs.  A row that reduces to zero is a cycle of d1, and the d2
    row it carries is that cycle's image.  Once every row is in, the
    pivots' d1 parts span im d1, and each image must reduce to zero
    against them.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (d1, d2) parts
    images = []
    for v, w in zip(del_tower(p, 1), del_tower(p, 2)):
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, w)
                break
            pv, pw = pivots[lead]
            v ^= pv
            w ^= pw
        else:
            images.append(w)
    for w in images:
        while w:
            lead = w.bit_length() - 1
            if lead not in pivots:
                return False
            w ^= pivots[lead][0]
    return True


# ------------------------------------------------------------- EL labeling

def el_label(p: GridPoset, rid: int) -> ELLabel:
    """Label of cover rectangle ``rid`` against a vertical reference circle.

    The circle sits just right of the column of the X in row 0, inside a
    vertical band that always contains an X and therefore meets no
    X-avoiding rectangle in a full annulus.  When the rectangle's column
    span crosses the circle s = 0 and i counts the vertical circles met
    going left to the rectangle's left edge; otherwise s = 1 and i counts
    them going right.  The thickness t is the rectangle's width; its
    height in that place breaks the shelling property on the trefoil.
    """
    n = p.grid.n
    ref = p.grid.x_cols[0]
    a, _, w, _ = rect_key(n, rid)
    if (ref - a) % n < w:
        return ELLabel(0, (ref - a) % n + 1, w)
    return ELLabel(1, (a - ref) % n, w)


def el_increasing_chain_check(p: GridPoset, y, x) -> bool:
    """One weakly increasing maximal chain in [y,x], and it is lex-least.

    This is the defining property of an edge-lexicographic shelling,
    verified by brute-force chain enumeration.
    """
    labeled = []
    for _, rids in maximal_chains(p, y, x):
        labeled.append(tuple(el_label(p, rid) for rid in rids))
    increasing = [seq for seq in labeled
                  if all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))]
    return len(increasing) == 1 and increasing[0] == min(labeled)


# ----------------------------------------------------------------- domains

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

    def is_positive(self) -> bool:
        return all(v >= 0 for row in self.coeffs for v in row)


def connecting_domain(g: Grid, x: Generator, y: Generator,
                      o_counts: tuple[int, ...] | None = None) -> Domain | None:
    """The domain from ``x`` to ``y`` with multiplicity 0 at every X.

    Its O multiplicities are ``o_counts``, or 0 at every O when that is
    None; returns None when no such domain exists.  The planar domain,
    whose row r is the sum over rows i <= r of [y[i] > c] - [x[i] > c],
    is corrected by row and column annuli, whose shifts come from one
    walk around each cycle that the markings chain the rows and columns
    into.  A knot has one cycle, so the correction is forced and the
    domain unique; on a link each cycle's first row keeps shift 0, which
    picks one of the domains that annuli free of markings relate.
    """
    n = g.n
    base, run = [], [0] * n
    for xr, yr in zip(x, y):
        run = [v + (yr > c) - (xr > c) for c, v in enumerate(run)]
        base.append(run)
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


# ------------------------------------------------------------------- stats

def _certify(p: GridPoset, yi: int, xi: int) -> None:
    """Check a sampled pair y < x against the definition and ``interval``.

    y <= x needs a positive connecting domain.  The open interval (y, x)
    that ``interval`` builds must hold as many elements as the order's
    bitsets count, ``below[x]`` met with y's up-set less x and y, whose
    parity ``poset_stats`` reads.  Raises InvalidDifferential when
    either fails.
    """
    y, x = p.elements[yi], p.elements[xi]
    (gx, fx), (gy, fy) = p._split(x), p._split(y)
    dom = connecting_domain(p.grid, gx, gy, tuple(map(sub, fy, fx)))
    if dom is None or not dom.is_positive():
        raise InvalidDifferential(
            f"covers relate {y} below {x} in Alexander grading "
            f"{p.alexander}, but no positive domain joins them")
    counted = sum(p.below[z] >> yi & 1 for z in _bits(p.below[xi])) - 2
    built = len(interval(p, y, x, "open"))
    if built != counted:
        raise InvalidDifferential(
            f"the open interval ({y}, {x}) in Alexander grading "
            f"{p.alexander} holds {built} elements, but the order's "
            f"bitsets count {counted}")


def poset_stats(g: Grid, mode: str = "hat", truncation: int | None = None,
                coefficients: str = "F2", signs=None, seed: int = 0,
                max_intervals: int = 200, tower_k: int = 4,
                max_grid: int = DEFAULT_MAX_GRID) -> dict:
    """Structure summary across every Alexander grading, as plain data.

    Collects component sizes and ranks, the open-interval parity check,
    the tower identities up to ``tower_k``, and the increasing-chain
    check on closed intervals of length 2..5 (capped at
    ``max_intervals``, sampled deterministically from ``seed``).  The
    posets come from one pass of the builder.  One pass over each
    poset's interval parities (``_parities``) reads all the rest: the
    related pairs, the odd open intervals, the tower identities (see
    ``tower_sum``) and the sampling candidates.  ``_certify`` checks the
    order and the interval counts against their definitions on the
    sampled pairs.
    """
    _check_coefficients(coefficients)
    if max_intervals < 0:
        raise ValueError(f"max_intervals must be >= 0, got {max_intervals}")
    if tower_k < 2:
        raise ValueError(f"tower_k must be >= 2, got {tower_k}")
    rng = random.Random(seed)
    gradings = alexander_range(g, mode, truncation, max_grid)
    posets = [p for p in _posets(g, mode, truncation, gradings, max_grid,
                                 DEFAULT_MAX_ELEMENTS) if len(p)]

    per_grading = []
    total_components = 0
    singletons = 0
    for p in posets:
        comps = components(p, coefficients, signs)
        total_components += len(comps)
        singletons += sum(1 for size, _ in comps if size == 1)
        per_grading.append({
            "alexander": p.alexander,
            "elements": len(p),
            "components": [
                {"size": size, "homology": ranks.to_json_list()}
                for size, ranks in comps
            ],
        })

    pairs = odd_intervals = 0
    tower_ok = True
    candidates = []
    for p in posets:
        level = _levels(p)
        for xi, (mask, parity, m) in enumerate(
                zip(p.below, _parities(p), p.maslov)):
            pairs += mask.bit_count() - 1
            odd_intervals += parity.bit_count() - 1
            tower_ok = tower_ok and not any(
                parity & level.get(m - k, 0) for k in range(2, tower_k + 1))
            # the levels are disjoint, so their sum is their union
            window = sum(level.get(m - k, 0) for k in range(2, 6))
            candidates += ((p, yi, xi) for yi in _bits(mask & window))

    del2_ok = all(del2_lands_in_boundaries(p) for p in posets)

    rng.shuffle(candidates)
    sampled = candidates[:max_intervals]
    for p, yi, xi in sampled:
        _certify(p, yi, xi)
    el_failures = sum(
        1 for p, yi, xi in sampled
        if not el_increasing_chain_check(p, p.elements[yi], p.elements[xi]))

    return {
        "grid": g.to_json_dict(),
        "mode": mode,
        "truncation": truncation,
        "coefficients": coefficients,
        "gradings": per_grading,
        "components_total": total_components,
        "singletons": singletons,
        "parity": {"pairs": pairs, "odd_open_intervals": odd_intervals,
                   "all_even": odd_intervals == 0},
        "tower": {"max_k": tower_k, "ok": tower_ok,
                  "del2_in_boundaries": del2_ok},
        "el": {"intervals_checked": len(sampled),
               "failures": el_failures, "ok": el_failures == 0},
    }
