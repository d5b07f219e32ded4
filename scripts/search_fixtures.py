#!/usr/bin/env python3
"""Recover and verify the example grids frozen into the test suite.

Every fixture grid in the tests is pinned by independent data: a
component census, an Alexander polynomial, or a splice construction.
This script re-runs the searches that produced those grids and verifies
the frozen facts, so the fixtures can be reproduced from scratch.  It is
not imported by the package or the tests.

The Alexander-polynomial searches compare each candidate's grid
determinant (``gridhfk.gradings.determinant_alexander``) with the target
polynomial.  It rests on two shortcuts, re-checked here against the
package gradings at startup:

* A(x) decomposes as a constant plus a per-point table lookup, because
  the J-pairing is bilinear and only the x-against-markings term varies.
* (-1)^M(x) is a fixed global sign times the permutation sign of x,
  because every rectangle move is a transposition and drops M by 1.

Together they make the generator Euler characteristic
sum_x (-1)^M t^A = +-Delta(t) (1 - 1/t)^(n-1) a determinant of monomials,
computed without the n! sum.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")

from gridhfk.complexes import (
    Generator,
    build_tilde_complex,
    enumerate_generators,
    move_table,
)
from gridhfk.gradings import (
    alexander,
    determinant_alexander,
    euler_characteristic,
    maslov,
)
from gridhfk.grid import Grid, link_components
from gridhfk.homology import extract_hat, homology
from gridhfk.signs import solve_signs

# ---------------------------------------------------------------- censuses

# The 26-element component around 12340 of the 5x5 trefoil grid, keyed by
# Maslov grading.  This census pins the grid uniquely among all 5280
# candidates.
TREFOIL_C1 = {
    2: {"12340"},
    1: {"12304", "02341", "21340", "13240", "12430"},
    0: {"20134", "12034", "03124", "02314", "21304", "41203", "13204",
        "01423", "01342", "40231", "31240", "03241", "14230", "02431",
        "21430"},
    -1: {"21034", "31204", "03214", "04231", "01432"},
}

# Alexander polynomials, exponent -> coefficient (normalized, value 1 at
# t = 1).
DELTA = {
    "trefoil": {1: 1, 0: -1, -1: 1},
    "figure-eight": {1: -1, 0: 3, -1: -1},
    "twist-52": {1: 2, 0: -3, -1: 2},
    "torus-34": {3: 1, 2: -1, 0: 1, -2: -1, -3: 1},
    "granny": {2: 1, 1: -2, 0: 3, -1: -2, -2: 1},
}


def gen_to_colstring(x: Generator) -> str:
    """Digits by column: character ``i`` is the row met on vertical circle i."""
    inv = [0] * len(x)
    for r, c in enumerate(x):
        inv[c] = r
    return "".join(str(r) for r in inv)


def gen_from_colstring(s: str) -> Generator:
    rows = [int(ch) for ch in s]
    x = [0] * len(rows)
    for col, row in enumerate(rows):
        x[row] = col
    return tuple(x)


# ------------------------------------------------------- fast Euler char.

def j_pair(a, b) -> Fraction:
    """J on formal sums of ``((x, y), coefficient)`` terms, exactly: 1/2
    for each pair of points strictly north-east or south-west of each
    other, extended bilinearly."""
    return sum((cp * cq for (p, cp) in a for (q, cq) in b
                if (p[0] - q[0]) * (p[1] - q[1]) > 0), Fraction(0)) / 2


def linear_a_table(g: Grid):
    """Table L and constant K with A(x) = sum_r L[r][x[r]] + K."""
    n = g.n
    half = Fraction(1, 2)
    xs = [(c + half, r + half) for r, c in enumerate(g.x_cols)]
    os_ = [(c + half, r + half) for r, c in enumerate(g.o_cols)]
    q = [(p, 1) for p in xs] + [(p, -1) for p in os_]
    L = [[j_pair([((c, r), 1)], q) for c in range(n)] for r in range(n)]
    mid = [(p, -half) for p in xs + os_]
    K = j_pair(mid, q) - Fraction(n - 1, 2)
    return L, K


def perm_sign(p) -> int:
    seen = [False] * len(p)
    s = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def sanity_check() -> None:
    """Re-verify the two shortcuts and the determinant on a 4x4 grid."""
    g = Grid(4, (1, 2, 3, 0), (2, 3, 0, 1))
    L, K = linear_a_table(g)
    base = None
    chi: dict = collections.defaultdict(int)
    for x in enumerate_generators(g):
        a = sum(L[r][c] for r, c in enumerate(x)) + K
        assert a == alexander(g, x)
        rel = (-1) ** maslov(g, x) * perm_sign(x)
        if base is None:
            base = rel
        assert rel == base
        chi[a] += (-1) ** maslov(g, x)
    assert euler_characteristic(g) == {a: c for a, c in chi.items() if c}
    print("shortcut identities and the grid determinant verified on a "
          "4x4 grid")


# ------------------------------------------------------------ the searches

def find_trefoil() -> Grid:
    census_all = set().union(*TREFOIL_C1.values())
    top = gen_from_colstring("12340")
    matches = []
    perms5 = list(itertools.permutations(range(5)))
    for x_cols in perms5:
        for o_cols in perms5:
            if any(a == b for a, b in zip(x_cols, o_cols)):
                continue
            g = Grid(5, x_cols, o_cols)
            if link_components(g) != 1 or maslov(g, top) != 2:
                continue
            table = move_table(g, cls="XO")
            adj = collections.defaultdict(set)
            for i, row in enumerate(table.targets):
                for j in row:
                    adj[i].add(j)
                    adj[j].add(i)
            start = table.gens.index(top)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            names = {gen_to_colstring(table.gens[i]) for i in seen}
            if names != census_all:
                continue
            by_m: dict = {}
            for i in seen:
                by_m.setdefault(maslov(g, table.gens[i]), set()).add(
                    gen_to_colstring(table.gens[i]))
            if by_m == TREFOIL_C1:
                matches.append(g)
    assert len(matches) == 1, f"census pinned {len(matches)} grids"
    return matches[0]


def find_by_delta(n: int, name: str, limit: int | None = None) -> list[Grid]:
    """Knot grids with the named Alexander polynomial.

    Scans all grids with the X of row 0 in column 0 (every grid is a
    column translation of such a grid, and translations preserve the
    knot), comparing each knot's grid determinant with the target.
    """
    out = []
    for x_cols in itertools.permutations(range(n)):
        if x_cols[0] != 0:
            continue
        for o_cols in itertools.permutations(range(n)):
            if any(a == b for a, b in zip(x_cols, o_cols)):
                continue
            g = Grid(n, x_cols, o_cols)
            if link_components(g) != 1:
                continue
            if determinant_alexander(g) == DELTA[name]:
                out.append(g)
                if limit is not None and len(out) >= limit:
                    return out
    return out


def verify_knot(g: Grid, delta: dict, genus: int, top_rank: int) -> None:
    sa = solve_signs(g)
    ranks = homology(build_tilde_complex(g, "Z", sa))
    assert not ranks.has_torsion
    hat = extract_hat(ranks, g.n)
    chi: dict = collections.defaultdict(int)
    for (m, a), (free, _) in hat.blocks.items():
        chi[a] += (-1) ** m * free
    chi = {a: c for a, c in chi.items() if c}
    assert chi == delta or chi == {a: -c for a, c in delta.items()}, chi
    prof = hat.alexander_profile()
    assert max(a for a, c in prof.items() if c) == genus
    assert prof[genus] == top_rank
    print(f"  verified: X={g.x_cols} O={g.o_cols} genus={genus} "
          f"top rank={top_rank} hat total={hat.total_rank}")


def splice(g1: Grid, g2: Grid) -> Grid:
    """Connected sum: merge g1's top row into g2's bottom row.

    Requires an O in g1's top-right cell and an X in g2's bottom-left
    cell; the two markings are deleted and the adjacent strands fused.
    """
    n1, n2 = g1.n, g2.n
    assert g1.o_cols[n1 - 1] == n1 - 1, "need O in top-right cell of g1"
    assert g2.x_cols[0] == 0, "need X in bottom-left cell of g2"
    x_cols = list(g1.x_cols[:n1 - 1])
    o_cols = list(g1.o_cols[:n1 - 1])
    x_cols.append(g1.x_cols[n1 - 1])
    o_cols.append(g2.o_cols[0] + n1 - 1)
    for r in range(1, n2):
        x_cols.append(g2.x_cols[r] + n1 - 1)
        o_cols.append(g2.o_cols[r] + n1 - 1)
    return Grid(n1 + n2 - 1, tuple(x_cols), tuple(o_cols))


def shift_cols(g: Grid, s: int) -> Grid:
    return Grid(g.n, tuple((c + s) % g.n for c in g.x_cols),
                tuple((c + s) % g.n for c in g.o_cols))


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    sanity_check()

    t0 = time.time()
    print("searching 5x5 grids against the 26-element census...")
    trefoil = find_trefoil()
    print(f"  unique match: X={trefoil.x_cols} O={trefoil.o_cols} "
          f"({time.time()-t0:.1f}s)")
    verify_knot(trefoil, DELTA["trefoil"], genus=1, top_rank=1)

    print("(3,4)-torus knot: diagonal construction, shift 3 at n=7")
    torus = Grid(7, tuple(range(7)), tuple((c + 3) % 7 for c in range(7)))
    verify_knot(torus, DELTA["torus-34"], genus=3, top_rank=1)

    t0 = time.time()
    print("searching 6x6 grids for the figure-eight polynomial...")
    figs = find_by_delta(6, "figure-eight")
    print(f"  {len(figs)} candidates ({time.time()-t0:.1f}s); "
          f"first: X={figs[0].x_cols} O={figs[0].o_cols}")
    verify_knot(figs[0], DELTA["figure-eight"], genus=1, top_rank=1)

    t0 = time.time()
    print("searching 7x7 grids for the twist-knot polynomial 2t-3+2/t...")
    twists = find_by_delta(7, "twist-52", limit=1)
    print(f"  first match after {time.time()-t0:.1f}s: "
          f"X={twists[0].x_cols} O={twists[0].o_cols}")
    verify_knot(twists[0], DELTA["twist-52"], genus=1, top_rank=2)

    print("splice check: unknot # trefoil reproduces the trefoil ranks")
    unknot = Grid(2, (1, 0), (0, 1))  # O in the top-right cell
    composite = splice(unknot, trefoil)
    sa = solve_signs(composite)
    hat_c = extract_hat(homology(build_tilde_complex(composite, "Z", sa)),
                        composite.n)
    sa_t = solve_signs(trefoil)
    hat_t = extract_hat(homology(build_tilde_complex(trefoil, "Z", sa_t)),
                        trefoil.n)
    assert hat_c.blocks == hat_t.blocks
    print(f"  ok: X={composite.x_cols} O={composite.o_cols}")

    print("granny knot: trefoil # trefoil at n=9")
    left = shift_cols(trefoil, 3)  # puts the O in the top-right cell
    granny = splice(left, trefoil)
    assert link_components(granny) == 1
    print(f"  grid: X={granny.x_cols} O={granny.o_cols}")
    assert determinant_alexander(granny) == DELTA["granny"]
    print("  grid determinant gives (t - 1 + 1/t)^2")


if __name__ == "__main__":
    main()
