"""Independent checks of the CLI's JSON output, standard library only.

Nothing here imports gridhfk.  Every check rests on the generator Euler
characteristic chi(t) = sum over the n! generators x of (-1)^M(x) t^A(x),
computed from two shortcuts documented in scripts/search_fixtures.py:

* A is linear in the points: 4 A(x) = sum_r T[r][x[r]] + k4;
* (-1)^M(x) = eps * sign(x), because every rectangle is a transposition
  that drops M by one.  eps comes from M of the identity generator,
  counted directly from the J pairing.

So chi is eps times a determinant of monomials, expanded row by row over
the 2^n subsets of used columns.  Over a field the Euler characteristic of homology equals that of
the chain complex, and over Z it equals that of the free part, so:

* hat:    chi(hat table) * (1 - t^-1)^(n-1) = chi,
* minus:  chi(truncated table) = chi * (1 + t^-1 + ... + t^-(d-1))^n,
* poset:  the component homologies of grading a sum to the t^a
          coefficient of chi, and the grading has as many elements as
          there are generators with A = a.

Fixture knots are also checked against their pinned facts: Alexander
polynomial, genus, fiberedness and total rank.
"""

from __future__ import annotations

import json
from functools import lru_cache

Poly = dict  # exponent -> nonzero integer coefficient


def _pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, c in p.items():
        for b, d in q.items():
            out[a + b] = out.get(a + b, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _ppow(p: Poly, k: int) -> Poly:
    out: Poly = {0: 1}
    for _ in range(k):
        out = _pmul(out, p)
    return out


def a4_table(grid):
    """T and k4 with 4 A(x) = sum_r T[r][x[r]] + k4, all integers.

    A(x) = J(x, X - O) - J(X + O, X - O) / 2 - (n - 1) / 2.  A lattice
    point (c, r) pairs with a marking in cell (c', r') exactly when
    (c' >= c) == (r' >= r); J(X, X) counts the unordered pairs of X
    markings that sit south-west / north-east of each other.
    """
    n, x_cols, o_cols = grid

    def same_side(marks, r, c):
        return sum((mc >= c) == (mr >= r) for mr, mc in enumerate(marks))

    def aligned(marks):
        return sum(marks[r1] < marks[r2]
                   for r1 in range(n) for r2 in range(r1 + 1, n))

    table = [[2 * (same_side(x_cols, r, c) - same_side(o_cols, r, c))
              for c in range(n)] for r in range(n)]
    k4 = -2 * (aligned(x_cols) - aligned(o_cols)) - 2 * (n - 1)
    return table, k4


def maslov_direct(x, o_cols) -> int:
    """M(x) = J(x - O, x - O) + 1, counted pair by pair in doubled coordinates."""
    ps = [(2 * c, 2 * r) for r, c in enumerate(x)]
    qs = [(2 * c + 1, 2 * r + 1) for r, c in enumerate(o_cols)]

    def pairs(a, b):
        return sum((px - qx) * (py - qy) > 0 for px, py in a for qx, qy in b)

    twice_j = pairs(ps, ps) - 2 * pairs(ps, qs) + pairs(qs, qs)
    return twice_j // 2 + 1


@lru_cache(maxsize=64)
def generator_sums(grid) -> tuple[Poly, Poly]:
    """(chi, count): sum of (-1)^M t^A, and of t^A, over all generators."""
    n, _, o_cols = grid
    table, k4 = a4_table(grid)
    # dp[mask] holds (signed, unsigned) sums over the placements of rows
    # 0..popcount(mask)-1 into the columns of mask, in units of 4 A.
    dp = {0: ({k4: 1}, {k4: 1})}
    for r in range(n):
        nxt: dict[int, tuple[Poly, Poly]] = {}
        for mask, (signed, unsigned) in dp.items():
            for c in range(n):
                if mask >> c & 1:
                    continue
                # earlier rows sitting in larger columns: inversions added
                flip = -1 if bin(mask >> (c + 1)).count("1") % 2 else 1
                step = table[r][c]
                s_out, u_out = nxt.setdefault(mask | 1 << c, ({}, {}))
                for e, v in signed.items():
                    s_out[e + step] = s_out.get(e + step, 0) + flip * v
                for e, v in unsigned.items():
                    u_out[e + step] = u_out.get(e + step, 0) + v
        dp = nxt
    signed, unsigned = dp[(1 << n) - 1]
    eps = -1 if maslov_direct(tuple(range(n)), o_cols) % 2 else 1
    if any(e % 4 for e in unsigned):
        raise ValueError("Alexander grading is not integral: not a knot")
    chi = {e // 4: eps * v for e, v in signed.items() if v}
    count = {e // 4: v for e, v in unsigned.items()}
    return chi, count


def _table_chi(blocks) -> Poly:
    out: Poly = {}
    for b in blocks:
        sign = -1 if b["m"] % 2 else 1
        out[b["a"]] = out.get(b["a"], 0) + sign * b["free"]
    return {a: c for a, c in out.items() if c}


def _facts_problems(facts, chi_table: Poly, ranks_by_a: dict, total: int,
                    n_factors: int) -> list[str]:
    """Compare a table against pinned facts.

    The table is hat (n_factors = 0) or tilde, which is hat tensored with
    n_factors copies of a rank-two piece at (0, 0) and (-1, -1).  Either
    way its top Alexander grading is the genus and its rank there is the
    hat rank there.
    """
    problems = []
    want = _pmul(facts["delta"], _ppow({0: 1, -1: -1}, n_factors))
    if chi_table != want and chi_table != {a: -c for a, c in want.items()}:
        problems.append(f"Euler characteristic {chi_table} does not give "
                        f"the pinned Alexander polynomial {facts['delta']}")
    live = [a for a, r in ranks_by_a.items() if r]
    top = max(live) if live else None
    if top != facts["genus"]:
        problems.append(f"top Alexander grading {top}, pinned genus "
                        f"{facts['genus']}")
    if facts["fibered"] is not None and top is not None \
            and (ranks_by_a[top] == 1) != facts["fibered"]:
        problems.append(f"top group rank {ranks_by_a[top]} contradicts "
                        f"fibered={facts['fibered']}")
    if facts["total_rank"] is not None \
            and total != facts["total_rank"] << n_factors:
        problems.append(f"total rank {total}, pinned "
                        f"{facts['total_rank']} x 2^{n_factors}")
    return problems


def _ranks_by_a(blocks) -> dict:
    out: dict = {}
    for b in blocks:
        out[b["a"]] = out.get(b["a"], 0) + b["free"]
    return out


def _check_homology(job, out) -> list[str]:
    grid, n = job.grid, job.grid[0]
    chi, _ = generator_sums(grid)
    blocks = out["blocks"]
    problems = []
    if any(b["free"] < 0 for b in blocks):
        problems.append("negative rank")
    if out["total_rank"] != sum(b["free"] for b in blocks):
        problems.append("total_rank is not the sum of the ranks")
    got = _table_chi(blocks)
    if job.version == "hat":
        if _pmul(got, _ppow({0: 1, -1: -1}, n - 1)) != chi:
            problems.append("chi(hat) * (1 - 1/t)^(n-1) differs from the "
                            "generator Euler characteristic")
        # HFK_d(s) = HFK_{d-2s}(-s)
        free = {(b["m"], b["a"]): b["free"] for b in blocks if b["free"]}
        if any(free.get((m - 2 * a, -a)) != r for (m, a), r in free.items()):
            problems.append("hat table is not symmetric")
        if job.fixture:
            problems += _facts_problems(job.facts, got, _ranks_by_a(blocks),
                                        out["total_rank"], 0)
    else:
        d = job.truncation
        want = _pmul(chi, _ppow({-k: 1 for k in range(d)}, n))
        if got != want:
            problems.append("chi(minus table) differs from the generator "
                            "Euler characteristic times the U factors")
    return problems


def _check_poset(job, out) -> list[str]:
    grid, n = job.grid, job.grid[0]
    chi, count = generator_sums(grid)
    problems = []
    if not (out["parity"]["all_even"] and out["tower"]["ok"]
            and out["tower"]["del2_in_boundaries"] and out["el"]["ok"]):
        problems.append("poset structure check reported a failure")
    seen = set()
    blocks = []
    for entry in out["gradings"]:
        a = entry["alexander"]
        seen.add(a)
        comps = entry["components"]
        if entry["elements"] != count.get(a, 0):
            problems.append(f"A={a}: {entry['elements']} elements, "
                            f"{count.get(a, 0)} generators")
        if sum(c["size"] for c in comps) != entry["elements"]:
            problems.append(f"A={a}: component sizes do not sum up")
        here = [b for c in comps for b in c["homology"]]
        if any(b["a"] != a for b in here):
            problems.append(f"A={a}: component homology in another grading")
        if _table_chi(here).get(a, 0) != chi.get(a, 0):
            problems.append(f"A={a}: component Euler characteristic differs "
                            f"from the generator sum")
        blocks += here
    if seen != set(count):
        problems.append("poset gradings differ from the generator gradings")
    if job.fixture:
        problems += _facts_problems(job.facts, _table_chi(blocks),
                                    _ranks_by_a(blocks),
                                    sum(b["free"] for b in blocks), n - 1)
    return problems


def check(job, stdout: bytes) -> str | None:
    """None when ``stdout`` is a correct answer to ``job``, else the reason."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    n, x, o = job.grid
    if out.get("grid") != {"n": n, "x_cols": list(x), "o_cols": list(o)}:
        return "output names another grid"
    if out.get("coefficients") != job.coefficients:
        return "output has other coefficients"
    try:
        if job.version == "poset":
            problems = _check_poset(job, out)
        else:
            if (out.get("version"), out.get("truncation")) != \
                    (job.version, job.truncation):
                return "output has another version or truncation"
            problems = _check_homology(job, out)
    except (KeyError, TypeError) as exc:
        return f"output lacks a field: {exc!r}"
    return "; ".join(problems) or None
