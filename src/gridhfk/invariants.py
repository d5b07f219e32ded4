"""Knot invariants read off the hat homology, and the move-invariance harness.

The Alexander polynomial is the graded Euler characteristic of the hat
groups, the genus is the width of the Alexander support, and fiberedness
is detected by the top group being a single free summand.  The harness
replays commutation and (de)stabilization moves and checks that the hat
rank table never changes.

The hat table is computed from the top half of the tilde complex and
mirrored, the column A = -1 checking the mirror, and then its graded
Euler characteristic must be the Alexander polynomial that the grid
determinant gives independently (``homology.certify_hat``, which the
``homology`` command also runs without loading this module); the
polynomial alone needs no homology.  The moves the harness replays come
from ``moves``.
"""

from __future__ import annotations

import random

from .complexes import DEFAULT_MAX_GRID, _check_grid_size, build_tilde_complex
from .errors import (
    AsymmetryDetected,
    IllegalCommutation,
    InvalidHomology,
    NotDestabilizable,
)
from .gradings import determinant_alexander
from .grid import Grid
from .homology import (
    BigradedRanks,
    _euler_by_alexander,
    certify_hat,
    extract_hat,
    homology,
)
from .moves import commute, destabilize, stabilize

__all__ = [
    "AlexanderPolynomial",
    "InvarianceReport",
    "alexander_polynomial",
    "apply_move",
    "check_invariance",
    "fibered",
    "genus",
    "grid_alexander_polynomial",
    "hat_homology",
    "legal_moves",
]

# A move descriptor is one of
#   ("commute", "row" | "col", index)
#   ("stabilize", row, variant)      variant in "abcd"
#   ("destabilize", row, col)
MoveDescriptor = tuple


class AlexanderPolynomial:
    """Symmetric Laurent polynomial in t, exponents descending.

    ``mod2`` marks coefficients reduced mod 2 (the best an F2-only
    pipeline can certify); such polynomials carry no overall sign.
    """

    __slots__ = ("coeffs", "mod2")

    def __init__(self, coeffs: tuple[tuple[int, int], ...],
                 mod2: bool = False):
        self.coeffs = coeffs
        self.mod2 = mod2

    def __eq__(self, other):
        if other.__class__ is not AlexanderPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs and self.mod2 == other.mod2

    def __hash__(self):
        return hash((self.coeffs, self.mod2))

    def __repr__(self):
        return (f"AlexanderPolynomial(coeffs={self.coeffs!r}, "
                f"mod2={self.mod2!r})")

    def coefficient(self, exponent: int) -> int:
        for a, c in self.coeffs:
            if a == exponent:
                return c
        return 0

    @property
    def degree(self) -> int:
        return max((abs(a) for a, _ in self.coeffs), default=0)

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for a, c in self.coeffs:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if a == 0:
                body = str(mag)
            else:
                power = "t" if a == 1 else f"t^{a}"
                body = power if mag == 1 else f"{mag}{power}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def alexander_polynomial(hat: BigradedRanks) -> AlexanderPolynomial:
    """Graded Euler characteristic of the hat groups, normalized to 1 at t=1.

    Raises AsymmetryDetected when the result is not symmetric under
    t <-> 1/t or does not take value +-1 at t = 1; both point at a bug
    upstream, not at the input knot.  Over F2 the coefficients are only
    determined mod 2 and the result is flagged.
    """
    return _normalized(_euler_by_alexander(hat), hat.coefficients == "F2")


def grid_alexander_polynomial(g: Grid, coefficients: str = "Z",
                              max_grid: int = DEFAULT_MAX_GRID
                              ) -> AlexanderPolynomial:
    """``alexander_polynomial(hat_homology(g, coefficients, max_grid))``
    from the grid determinant alone, refusing the same grids: n over
    ``max_grid``, then links, on the identity generator as the hat does.
    A Z hat with torsion would fail; this still gives Delta.
    """
    _check_grid_size(g, max_grid)
    return _normalized(determinant_alexander(g), coefficients == "F2")


def _normalized(chi: dict[int, int], mod2: bool) -> AlexanderPolynomial:
    """``chi`` checked for symmetry and value +-1 at t = 1, made 1 there."""
    if mod2:
        chi = {a: c % 2 for a, c in chi.items() if c % 2}
    for a, c in chi.items():
        if chi.get(-a, 0) != (c if not mod2 else c % 2):
            raise AsymmetryDetected(
                f"coefficient {c} at t^{a} but {chi.get(-a, 0)} at t^{-a}")
    at_one = sum(chi.values())
    if mod2:
        if at_one % 2 != 1:
            raise AsymmetryDetected(
                f"value at t=1 is {at_one % 2} mod 2, expected 1")
    else:
        if at_one not in (1, -1):
            raise AsymmetryDetected(
                f"value at t=1 is {at_one}, expected +-1 for a knot")
        if at_one == -1:
            chi = {a: -c for a, c in chi.items()}
    ordered = tuple(sorted(chi.items(), key=lambda item: -item[0]))
    return AlexanderPolynomial(ordered, mod2=mod2)


def genus(hat: BigradedRanks) -> int:
    """Highest Alexander grading carrying a nonzero group.

    Also checks the classical lower bound: the genus is at least the
    degree of the Alexander polynomial.  Raises InvalidHomology when the
    table is zero or breaks the bound.
    """
    if hat.total_rank <= 0:
        raise InvalidHomology("hat homology of a knot is never zero")
    top = max(a for (_, a), (free, torsion) in hat.blocks.items()
              if free or torsion)
    chi = _euler_by_alexander(hat)
    if hat.coefficients == "F2":
        chi = {a: c % 2 for a, c in chi.items() if c % 2}
    deg = max((abs(a) for a in chi), default=0)
    if top < deg:
        raise InvalidHomology(f"genus {top} below polynomial degree {deg}")
    return top


def fibered(hat: BigradedRanks) -> bool:
    """True iff the group in the top Alexander grading is a single Z.

    Needs the integer computation: free ranks alone cannot separate
    Z from Z + torsion, so an F2 table is refused.
    """
    if hat.coefficients != "Z":
        raise ValueError(
            "fiberedness needs integer homology; rerun with Z coefficients")
    top = genus(hat)
    free = sum(f for (_, a), (f, _) in hat.blocks.items() if a == top)
    torsion = any(t for (_, a), (_, t) in hat.blocks.items() if a == top)
    return free == 1 and not torsion


# ------------------------------------------------------------- move harness

def apply_move(g: Grid, move: MoveDescriptor) -> Grid:
    """The grid after ``move``, a (kind, first, second) descriptor."""
    if len(move) != 3:
        raise ValueError(f"a move descriptor has three fields, got {move!r}")
    kind = move[0]
    if kind == "commute":
        return commute(g, move[1], move[2])
    if kind == "stabilize":
        return stabilize(g, move[1], move[2])
    if kind == "destabilize":
        return destabilize(g, move[1], move[2])
    raise ValueError(f"unknown move kind {kind!r}")


def legal_moves(g: Grid,
                max_grid: int = DEFAULT_MAX_GRID) -> list[MoveDescriptor]:
    """Every move legal on ``g``, with stabilizations capped at ``max_grid``.

    The cap keeps randomly grown grids small enough that recomputing
    homology after each move stays cheap.
    """
    out: list[MoveDescriptor] = []
    for axis in ("row", "col"):
        for i in range(g.n):
            try:
                commute(g, axis, i)
            except IllegalCommutation:
                continue
            out.append(("commute", axis, i))
    if g.n < max_grid:
        for r in range(g.n):
            for variant in "abcd":
                out.append(("stabilize", r, variant))
    for r in range(g.n - 1):
        for c in range(g.n - 1):
            try:
                destabilize(g, r, c)
            except NotDestabilizable:
                continue
            out.append(("destabilize", r, c))
    return out


def hat_homology(g: Grid, coefficients: str = "F2",
                 max_grid: int = DEFAULT_MAX_GRID) -> BigradedRanks:
    """Hat rank table of the knot presented by ``g``.

    Built from the tilde columns A >= -1 alone, mirrored, and checked
    against the grid determinant.
    """
    tilde = homology(build_tilde_complex(g, coefficients, max_grid=max_grid,
                                         top_half=True))
    hat = extract_hat(tilde, g.n)
    certify_hat(g, hat)
    return hat


class InvarianceReport:
    """Hat tables along a move sequence, compared against the start."""

    __slots__ = ("start", "moves", "grids", "tables", "divergence")

    def __init__(self, start: Grid, moves: tuple[MoveDescriptor, ...],
                 grids: tuple[Grid, ...], tables: tuple[BigradedRanks, ...],
                 divergence: int | None):
        self.start = start
        self.moves = moves
        self.grids = grids
        self.tables = tables
        self.divergence = divergence

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        k = len(self.tables)
        if self.ok:
            return f"PASS: {k}/{k} HFK-hat tables identical"
        i = self.divergence
        return (f"FAIL: HFK-hat changed after move {i} {self.moves[i - 1]!r}: "
                f"expected {dict(sorted(self.tables[0].blocks.items()))}, "
                f"got {dict(sorted(self.tables[i].blocks.items()))}")


def check_invariance(g: Grid, moves, seed: int = 0, coefficients: str = "F2",
                     max_grid: int = DEFAULT_MAX_GRID) -> InvarianceReport:
    """Replay moves on ``g`` and verify the hat table never changes.

    ``moves`` is either an explicit sequence of move descriptors or an
    integer count, in which case that many legal moves are sampled with
    the given seed; a negative or bool count raises ValueError.  The
    table after every move is compared against the starting table; the
    report records the first divergence, which for a correct pipeline
    never occurs.  A grid over ``max_grid``, at the start or along an
    explicit move list, raises ResourceLimit before any table is built.
    """
    if isinstance(moves, int) and (isinstance(moves, bool) or moves < 0):
        raise ValueError(
            f"move count must be a non-negative int, got {moves!r}")
    _check_grid_size(g, max_grid)
    if isinstance(moves, int):
        rng = random.Random(seed)
        sampled: list[MoveDescriptor] = []
        cur = g
        for _ in range(moves):
            candidates = legal_moves(cur, max_grid)
            if not candidates:
                break
            mv = rng.choice(candidates)
            sampled.append(mv)
            cur = apply_move(cur, mv)
        descriptors = tuple(sampled)
    else:
        descriptors = tuple(tuple(m) for m in moves)

    grids = [g]
    for mv in descriptors:
        grids.append(apply_move(grids[-1], mv))
        _check_grid_size(grids[-1], max_grid)

    tables = [hat_homology(h, coefficients, max_grid=max_grid)
              for h in grids]

    divergence = None
    for i in range(1, len(tables)):
        if tables[i].blocks != tables[0].blocks:
            divergence = i
            break
    return InvarianceReport(start=g, moves=descriptors, grids=tuple(grids),
                            tables=tuple(tables), divergence=divergence)
