"""Bigraded homology of grid chain complexes.

The differential preserves the Alexander grading and drops the Maslov
grading by one, so the complex splits into independent columns indexed by
A, each a chain of finite-dimensional pieces indexed by M.  Every column
is eliminated on its own, from the top Maslov grading down: a block
skips the rows whose elements the block above took as unit-pivot
columns, since the image of the differential from the kept rows is the
whole image.  The per-block results merge into one immutable table of
ranks.
"""

from __future__ import annotations

from .complexes import TOP_HALF_FLOOR, ChainComplex
from .errors import (
    AsymmetryDetected,
    InexactDivision,
    InvalidDifferential,
    OverflowGuard,
)
from .gradings import _divide_once
from .linalg import f2_rank, invariant_factors

__all__ = [
    "BigradedRanks",
    "homology",
    "extract_hat",
    "poincare",
    "poincare_string",
]


class BigradedRanks:
    """Homology ranks per (maslov, alexander) pair.

    ``blocks[(m, a)]`` is ``(free_rank, torsion)`` where ``torsion`` is a
    sorted tuple of invariant factors greater than 1.  Zero blocks are
    omitted.  Two tables are equal when their ring and blocks are; the
    blocks are a dict, so a table has no hash.
    """

    __slots__ = ("coefficients", "blocks")
    __hash__ = None

    def __init__(self, coefficients: str,
                 blocks: dict[tuple[int, int], tuple[int, tuple[int, ...]]]):
        self.coefficients = coefficients
        self.blocks = blocks

    def __eq__(self, other):
        if other.__class__ is not BigradedRanks:
            return NotImplemented
        return (self.coefficients == other.coefficients
                and self.blocks == other.blocks)

    def __repr__(self):
        return (f"BigradedRanks(coefficients={self.coefficients!r}, "
                f"blocks={self.blocks!r})")

    def free(self, m: int, a: int) -> int:
        return self.blocks.get((m, a), (0, ()))[0]

    def torsion(self, m: int, a: int) -> tuple[int, ...]:
        return self.blocks.get((m, a), (0, ()))[1]

    @property
    def total_rank(self) -> int:
        return sum(f for f, _ in self.blocks.values())

    @property
    def has_torsion(self) -> bool:
        return any(t for _, t in self.blocks.values())

    def alexander_profile(self) -> dict[int, int]:
        """Total free rank per Alexander grading, sparse."""
        prof: dict[int, int] = {}
        for (_, a), (free, _) in self.blocks.items():
            if free:
                prof[a] = prof.get(a, 0) + free
        return prof

    def to_json_list(self) -> list[dict]:
        out = []
        for (m, a) in sorted(self.blocks, key=lambda ma: (-ma[1], -ma[0])):
            free, tors = self.blocks[(m, a)]
            out.append({"m": m, "a": a, "free": free, "torsion": list(tors)})
        return out


def _column_ranks(complex_: ChainComplex, by_m: dict[int, list[int]],
                  pos_of: dict[int, int]):
    """Eliminate one Alexander column.  Returns {(m): (free, torsion)}.

    The blocks are walked from the top Maslov grading down.  Block m (rows
    C_m, columns C_{m-1}) skips every row whose element was a unit-pivot
    column of block m+1, and its own unit-pivot columns are then skipped
    by block m-1.  The pivot rows of block m+1 lie in im d_{m+1} and are
    unit-triangular on those columns, so each skipped element is a sum of
    kept ones plus a boundary, which d_m kills: d_m has the same image from
    the kept rows as from all of C_m, hence the same rank and torsion.

    A target that repeats in a row is summed, over F2 by xor: on a split
    link two rectangles can join the same pair of generators.
    """
    diff, coeffs = complex_.diff, complex_.coeffs
    rank_between: dict[int, int] = {}
    torsion_at: dict[int, tuple[int, ...]] = {}
    cancelled: list[int] = []
    for m in sorted(by_m, reverse=True):
        skip = set(cancelled)
        cancelled = []
        if m - 1 not in by_m:
            continue
        sources = [i for i in by_m[m] if pos_of[i] not in skip]
        if complex_.coefficients == "Z":
            rows = []
            for i in sources:
                row: dict[int, int] = {}
                for j, c in zip(diff[i], coeffs[i]):
                    pos = pos_of[j]
                    row[pos] = row.get(pos, 0) + c
                if 0 in row.values():
                    row = {pos: c for pos, c in row.items() if c}
                if row:
                    rows.append(row)
            factors = invariant_factors(rows, cancelled)
            rank_between[m] = len(factors)
            tors = tuple(sorted(d for d in factors if d > 1))
            if tors:
                torsion_at[m - 1] = tors
        else:
            masks = []
            for i in sources:
                mask = 0
                for j in diff[i]:
                    mask ^= 1 << pos_of[j]
                if mask:
                    masks.append(mask)
            rank_between[m] = f2_rank(masks, cancelled)
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for m, indices in by_m.items():
        free = len(indices) - rank_between.get(m, 0) - rank_between.get(m + 1, 0)
        tors = torsion_at.get(m, ())
        if free or tors:
            out[m] = (free, tors)
    return out


def homology(complex_: ChainComplex) -> BigradedRanks:
    """Rank (and over Z, torsion) of homology at every bigrading."""
    gradings, diff = complex_.gradings, complex_.diff
    over_z = complex_.coefficients == "Z"
    coeffs = complex_.coeffs if over_z else None
    basis = range(len(complex_.labels))
    if not len(diff) == len(gradings) == len(basis):
        raise InvalidDifferential(
            f"complex has {len(basis)} labels, {len(gradings)} gradings and "
            f"{len(diff)} differential rows")
    if over_z and list(map(len, coeffs or ())) != list(map(len, diff)):
        raise InvalidDifferential("Z complex lacks a coefficient per term")
    for i, row in enumerate(diff):
        mi, ai = gradings[i]
        block = (mi - 1, ai)
        for j in row:
            if j not in basis:
                raise InvalidDifferential(
                    f"differential term {i} -> {j} leaves the basis "
                    f"0..{len(basis) - 1}")
            if gradings[j] != block and (coeffs is None or any(
                    c for k, c in zip(row, coeffs[i]) if k == j)):
                raise InvalidDifferential(
                    f"differential term {i} -> {j} leaves the (M-1, A) block")
    if complex_.d_squared():
        raise InvalidDifferential("differential does not square to zero")

    columns: dict[int, dict[int, list[int]]] = {}
    for i, (m, a) in enumerate(gradings):
        columns.setdefault(a, {}).setdefault(m, []).append(i)
    pos_of = {}
    for by_m in columns.values():
        for indices in by_m.values():
            for k, i in enumerate(indices):
                pos_of[i] = k

    blocks: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    try:
        for a in sorted(columns):
            for m, cell in _column_ranks(complex_, columns[a], pos_of).items():
                blocks[(m, a)] = cell
    except MemoryError as exc:
        raise OverflowGuard("elimination hit the memory ceiling") from exc
    return BigradedRanks(complex_.coefficients, blocks)


def poincare(ranks: BigradedRanks) -> dict[tuple[int, int], int]:
    """Free ranks as a Laurent polynomial in q (Maslov) and t (Alexander)."""
    return {ma: free for ma, (free, _) in ranks.blocks.items() if free}


def poincare_string(poly: dict[tuple[int, int], int]) -> str:
    if not poly:
        return "0"
    terms = []
    for m, a in sorted(poly, key=lambda ma: (-ma[1], -ma[0])):
        coeff = poly[(m, a)]
        bits = []
        if m:
            bits.append("q" if m == 1 else f"q^{m}")
        if a:
            bits.append("t" if a == 1 else f"t^{a}")
        if coeff != 1 or not bits:
            bits.insert(0, str(coeff))
        terms.append(" ".join(bits))
    return " + ".join(terms)


def extract_hat(tilde: BigradedRanks, n: int,
                top_half: bool = False) -> BigradedRanks:
    """Peel n-1 two-step tensor factors off tilde homology.

    The tilde homology of an n x n grid is the hat invariant tensored with
    n-1 copies of a rank-two piece spanning bigradings (0, 0) and (-1, -1),
    so its Poincare polynomial is divisible by (1 + 1/(q t))^(n-1).  The
    quotient's coefficients are the hat ranks.

    With ``top_half`` the table holds the tilde columns A >= -1 alone
    (``complexes.TOP_HALF_FLOOR``).  Dividing each diagonal from the top
    down gives the hat at A >= a from the tilde columns at A >= a, so the
    division stops at A = -1.  The symmetry HFK_d(s) = HFK_{d-2s}(-s)
    keeps each diagonal d - s, so on every diagonal the hat at A = -1
    must equal the hat at A = 1, else AsymmetryDetected.  That check
    stands in for the remainder check of the full division: one wrong
    tilde rank on a diagonal, at any A >= -1, moves the quotient at A = -1
    and at A = 1 by different amounts once n > 2.  The groups at A < 0 are
    then the mirror of those at A > 0.
    """
    if tilde.has_torsion:
        raise InexactDivision("tilde homology has torsion; cannot split off "
                              "free tensor factors")
    diagonals: dict[int, dict[int, int]] = {}
    for (m, a), (free, _) in tilde.blocks.items():
        if free:
            diagonals.setdefault(m - a, {})[a] = free
    blocks: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    floor = TOP_HALF_FLOOR if top_half else None
    for delta, diag in diagonals.items():
        for _ in range(n - 1):
            diag = _divide_once(diag, 1, floor)
            if not diag:
                break
        if top_half and any(diag.get(a, 0) != diag.get(-a, 0)
                            for a in range(floor, 0)):
            raise AsymmetryDetected(
                f"hat ranks at A < 0 on diagonal M - A = {delta} are not "
                "the mirror of those at A > 0")
        for a, coeff in diag.items():
            if coeff < 0:
                raise InexactDivision("tensor-factor quotient has a negative "
                                      "coefficient")
            if coeff and (a >= 0 or not top_half):
                blocks[(a + delta, a)] = (coeff, ())
                if top_half and a:
                    blocks[(delta - a, -a)] = (coeff, ())
    return BigradedRanks(tilde.coefficients, blocks)
