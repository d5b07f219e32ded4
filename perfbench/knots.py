"""Grid inputs of the benchmark: fixed knots and a seeded generator.

The generator is the benchmark's own, with its own one-component check,
so that a change to ``gridhfk.random_knot_grid`` cannot change a workload.
Grids travel as ``(n, x_cols, o_cols)`` tuples and reach the CLI inline
as ``n;X=...;O=...``.
"""

from __future__ import annotations

import random

# Knots the workloads always run, with the facts pinned for them.  The
# grids and facts of trefoil5, torus34 and twist52 are those recorded in
# tests/conftest.py (None marks a fact it does not pin).  knot8 is the
# seeded random 8x8 knot of the ROADMAP baseline table, whose hat
# homology is one group at (0, 0).  ``delta`` maps exponent to
# coefficient of the normalized Alexander polynomial.
FIXTURES = {
    "trefoil5": {
        "grid": (5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1)),
        "delta": {1: 1, 0: -1, -1: 1}, "genus": 1, "fibered": True,
        "total_rank": 3,
    },
    "torus34": {
        "grid": (7, (0, 1, 2, 3, 4, 5, 6), (3, 4, 5, 6, 0, 1, 2)),
        "delta": {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}, "genus": 3,
        "fibered": None, "total_rank": 5,
    },
    "twist52": {
        "grid": (7, (0, 1, 2, 3, 4, 6, 5), (2, 4, 6, 5, 0, 3, 1)),
        "delta": {1: 2, 0: -3, -1: 2}, "genus": 1, "fibered": False,
        "total_rank": None,
    },
    "knot8": {
        "grid": (8, (6, 4, 3, 1, 5, 0, 7, 2), (0, 1, 7, 6, 2, 3, 5, 4)),
        "delta": {0: 1}, "genus": 0, "fibered": True, "total_rank": 1,
    },
}


def components(x_cols, o_cols) -> int:
    """Link components: cycles of row r -> row of the O in column x_cols[r]."""
    n = len(x_cols)
    o_row_of_col = [0] * n
    for r, c in enumerate(o_cols):
        o_row_of_col[c] = r
    seen = [False] * n
    count = 0
    for start in range(n):
        if not seen[start]:
            count += 1
            r = start
            while not seen[r]:
                seen[r] = True
                r = o_row_of_col[x_cols[r]]
    return count


def random_knot(n: int, rng: random.Random):
    """A size-n knot grid drawn by rejection sampling."""
    cols = list(range(n))
    while True:
        x = tuple(rng.sample(cols, n))
        o = tuple(rng.sample(cols, n))
        if all(a != b for a, b in zip(x, o)) and components(x, o) == 1:
            return (n, x, o)


def seeded_knots(n: int, workload: str, seed: int):
    """Endless stream of size-n knot grids, fixed by workload name and seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    while True:
        yield random_knot(n, rng)


def inline(grid) -> str:
    n, x, o = grid
    return f"{n};X={','.join(map(str, x))};O={','.join(map(str, o))}"
