"""Homology engine: block ranks, Smith form, hat extraction."""

import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPOSITE6, FIG8, TORUS34, TREFOIL5, TWIST52
from gridhfk.complexes import build_minus_complex, build_tilde_complex
from gridhfk.errors import (
    AsymmetryDetected,
    InexactDivision,
    InvalidDifferential,
)
from gridhfk.grid import Grid
from gridhfk.homology import (
    BigradedRanks,
    extract_hat,
    homology,
    poincare,
    poincare_string,
)
from gridhfk.linalg import f2_rank, invariant_factors
from gridhfk.moves import random_knot_grid
from gridhfk.smith import _dense_invariant_factors
from oracles import (
    complex_from_terms,
    full_extract_hat,
    invariant_form,
    reference_d_squared,
    smith_normal_form,
    terms,
)

UNKNOT2 = Grid(2, (0, 1), (1, 0))


def test_f2_rank_small():
    assert f2_rank([]) == 0
    assert f2_rank([0, 0]) == 0
    assert f2_rank([0b101, 0b011, 0b110]) == 2
    assert f2_rank([0b1, 0b10, 0b100]) == 3


def test_invariant_factors_diagonal():
    assert invariant_factors([{0: 2}, {1: 3}]) == [1, 6]
    assert invariant_factors([{0: 1}, {1: 1}]) == [1, 1]
    assert invariant_factors([{0: 2}, {0: 2}]) == [2]
    assert invariant_factors([]) == []
    # No unit entry: the whole matrix is the dense core.
    assert invariant_factors([{0: 2, 1: 4}, {0: 6, 1: 8}]) == [2, 4]
    # One unit pivot, then a 1x1 core [-2].
    assert invariant_factors([{0: 1, 1: 2}, {0: 2, 1: 2}]) == [1, 2]


def _snf_factors(rows, n_cols):
    """Nonzero diagonal of the dense Smith form: the oracle."""
    dense = [[row.get(c, 0) for c in range(n_cols)] for row in rows]
    d, _, _ = smith_normal_form(dense)
    return [d[i][i] for i in range(min(len(d), n_cols)) if d[i][i]]


@st.composite
def sparse_matrices(draw):
    """Sparse integer matrices up to 8x8 with entries in -3..3.

    About half of them have no +-1 entry at all, so the unit-pivot stage
    strips nothing and the dense core is the whole matrix.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    units = draw(st.booleans())
    values = st.sampled_from((-3, -2, -1, 1, 2, 3) if units else (-3, -2, 2, 3))
    rows = [draw(st.dictionaries(st.integers(0, n - 1), values, max_size=n))
            for _ in range(m)]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_invariant_factors_match_dense_smith_form(matrix):
    rows, n = matrix
    assert sorted(invariant_factors(rows)) == _snf_factors(rows, n)


def test_rewritten_unit_row_goes_back_in_the_queue():
    """Row 0 has no +-1 entry until the pivot of row 1 rewrites it to
    {1: 1}; only the pivot columns show that it was taken as a unit
    pivot and not left to the dense core."""
    cols = []
    assert invariant_factors([{0: 2, 1: 3}, {0: 1, 1: 1}], cols) == [1, 1]
    assert sorted(cols) == [0, 1]


@st.composite
def larger_sparse_matrices(draw):
    """Sparse integer matrices of 10-24 rows and columns, entries in -2..2.

    With at most five entries a row and twos among the units, a row often
    gains its first +-1 entry only after several pivots have rewritten it.
    """
    m = draw(st.integers(10, 24))
    n = draw(st.integers(10, 24))
    values = st.sampled_from((-2, -1, 1, 2))
    rows = [draw(st.dictionaries(st.integers(0, n - 1), values, max_size=5))
            for _ in range(m)]
    return rows, n


@settings(max_examples=200, deadline=None)
@given(larger_sparse_matrices())
def test_invariant_factors_and_pivot_columns_on_larger_matrices(matrix):
    """The factors match the dense Smith form, and the reported unit pivot
    columns carry unit-triangular pivot rows: restricted to those columns,
    the matrix has as many invariant factors as columns, all 1."""
    rows, n = matrix
    cols = []
    assert sorted(invariant_factors(rows, cols)) == _snf_factors(rows, n)
    assert len(set(cols)) == len(cols)
    if cols:
        restricted = [{k: row[c] for k, c in enumerate(cols) if c in row}
                      for row in rows]
        assert _snf_factors(restricted, len(cols)) == [1] * len(cols)


def _determinantal_factors(dense, n_cols):
    """Invariant factors as quotients of determinantal divisors.

    The k-th divisor is the gcd of all k x k minors; the k-th factor is
    it over the (k-1)-th, up to the rank, where the divisors vanish.
    Minors are taken by Laplace expansion along their first row.
    """
    @lru_cache(maxsize=None)
    def minor(rows, cols):
        if not rows:
            return 1
        top, rest = dense[rows[0]], rows[1:]
        return sum((-1) ** j * top[c] * minor(rest, cols[:j] + cols[j + 1:])
                   for j, c in enumerate(cols) if top[c])

    factors, prev = [], 1
    for k in range(1, min(len(dense), n_cols) + 1):
        divisor = 0
        for rows in combinations(range(len(dense)), k):
            for cols in combinations(range(n_cols), k):
                divisor = gcd(divisor, minor(rows, cols))
        if not divisor:
            break
        factors.append(divisor // prev)
        prev = divisor
    return factors


def test_invariant_factors_match_determinantal_divisors():
    """An oracle that shares no code with ``linalg``: seeded matrices up to
    6 x 6 with entries in -3..3, half of them with no +-1 entry, so the
    dense core runs on the whole matrix."""
    rng = random.Random(20261018)
    for trial in range(240):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        values = (-3, -2, 0, 0, 2, 3) if trial % 2 else (-3, -2, -1, 0, 0,
                                                          1, 2, 3)
        dense = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        assert invariant_factors(rows) == _determinantal_factors(dense, n), \
            dense


def test_unit_free_core_stays_small():
    """A 7 x 8 unit-free core whose entries grew past 800,000 bits when
    each column was cleared by repeated division with swaps."""
    rows = [{2: 3, 0: -2, 1: 2, 4: -2, 6: -2, 7: 3},
            {4: -3, 2: -3, 7: -2, 6: -3, 0: -2}, {2: -2, 5: -2, 1: 3}, {},
            {4: 3, 3: 3, 7: 3, 1: 3}, {3: -3, 2: 2, 1: -2, 5: 3},
            {2: 2, 3: 3, 5: -3, 1: 2, 4: -2}, {7: 3}]
    assert invariant_factors(rows) == [1, 1, 1, 1, 1, 3, 6]
    dense = [[row.get(c, 0) for c in range(8)] for row in rows]
    d, u, v = smith_normal_form(dense)
    assert d == _matmul(_matmul(u, dense), v)
    assert max(abs(e) for m in (u, v) for row in m for e in row) < 1 << 64


def _z_blocks(cx):
    """The boundary blocks (m, a) -> (m - 1, a) of a complex, as sparse rows.

    Yields ``((m, a), rows, len(C_{m-1, a}))``, one row per element of
    C_{m, a} in basis order.
    """
    by_ma: dict[tuple[int, int], list[int]] = {}
    for i, ma in enumerate(cx.gradings):
        by_ma.setdefault(ma, []).append(i)
    pos = {i: k for indices in by_ma.values() for k, i in enumerate(indices)}
    for (m, a), sources in sorted(by_ma.items()):
        targets = by_ma.get((m - 1, a))
        if targets:
            rows = [{pos[j]: c for j, c in terms(cx, i)} for i in sources]
            yield (m, a), rows, len(targets)


def test_invariant_factors_match_dense_smith_form_on_real_blocks():
    cx = build_minus_complex(TREFOIL5, 2, "Z")
    small = [(rows, n) for _, rows, n in _z_blocks(cx)
             if len(rows) * n <= 2500]
    assert len(small) >= 15
    for rows, n in small:
        assert invariant_factors(rows) == _snf_factors(rows, n)
        # Doubling one row leaves a unit-free row for the dense core.
        doubled = [{c: 2 * v for c, v in rows[0].items()}] + rows[1:]
        assert sorted(invariant_factors(doubled)) == _snf_factors(doubled, n)


def _det(mat):
    # Bareiss fraction-free determinant, enough for the oracle check.
    a = [list(r) for r in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_smith_normal_form_oracle():
    rng = random.Random(5)
    shapes = [(3, 3), (3, 4), (4, 3), (4, 4), (2, 5)]
    for m, n in shapes:
        for _ in range(6):
            b = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
            d, u, v = smith_normal_form(b)
            assert d == _matmul(_matmul(u, b), v)
            assert abs(_det(u)) == 1
            assert abs(_det(v)) == 1
            diag = [d[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0
            for x, y in zip(diag, diag[1:]):
                assert x >= 0
                if y:
                    assert x != 0 and y % x == 0
            assert _dense_invariant_factors(b) == [x for x in diag if x]


def _full_block_homology(cx):
    """Homology from every block eliminated in full, with no rows skipped:
    free rank |C_m| - r_m - r_{m+1}, torsion from the factors of block m."""
    dims: dict[tuple[int, int], int] = {}
    for ma in cx.gradings:
        dims[ma] = dims.get(ma, 0) + 1
    rank: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    for (m, a), rows, _ in _z_blocks(cx):
        if cx.coefficients == "Z":
            factors = invariant_factors(rows)
            rank[(m, a)] = len(factors)
            tors = tuple(sorted(d for d in factors if d > 1))
            if tors:
                torsion[(m - 1, a)] = tors
        else:
            rank[(m, a)] = f2_rank([sum(1 << c for c, v in row.items()
                                        if v & 1) for row in rows])
    blocks = {}
    for (m, a), dim in dims.items():
        free = dim - rank.get((m, a), 0) - rank.get((m + 1, a), 0)
        tors = torsion.get((m, a), ())
        if free or tors:
            blocks[(m, a)] = (free, tors)
    return blocks


@pytest.mark.parametrize("build", [
    lambda: build_minus_complex(TREFOIL5, 2, "Z"),
    lambda: build_minus_complex(TREFOIL5, 3, "Z"),
    lambda: build_tilde_complex(FIG8, "Z"),
    lambda: build_minus_complex(TREFOIL5, 3, "F2"),
], ids=["trefoil5-minus-d2-z", "trefoil5-minus-d3-z", "fig8-tilde-z",
        "trefoil5-minus-d3-f2"])
def test_homology_matches_full_block_oracle(build):
    """Skipping the rows the block above cancelled changes no group."""
    cx = build()
    assert homology(cx).blocks == _full_block_homology(cx)


def _counting(monkeypatch, name):
    """Wrap ``gridhfk.homology.<name>`` to count the rows it is handed.

    ``gridhfk.homology`` as an attribute is the function, so the module is
    taken from ``sys.modules``.
    """
    module = sys.modules["gridhfk.homology"]
    inner = getattr(module, name)
    seen = []

    def counted(rows, *args):
        rows = list(rows)
        seen.append(len(rows))
        return inner(rows, *args)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_blocks_skip_rows_cancelled_by_the_block_above(monkeypatch):
    """Each Maslov block hands elimination only the rows that the block
    above did not take as unit-pivot columns: at most 2,000 rows over Z
    at d = 2 and 15,000 over F2 at d = 3, of 3,537 and 28,046 in full."""
    z_rows = _counting(monkeypatch, "invariant_factors")
    f2_rows = _counting(monkeypatch, "f2_rank")
    homology(build_minus_complex(TREFOIL5, 2, "Z"))
    assert z_rows and not f2_rows
    assert sum(z_rows) <= 2000
    homology(build_minus_complex(TREFOIL5, 3, "F2"))
    assert f2_rows
    assert sum(f2_rows) <= 15000


def _random_torsion_complex(rng):
    """A seeded Z complex with known homology.

    A direct sum of pieces x -> k y (k in +-1, 2, 3, 4, 6) and free
    elements over 2-5 Maslov gradings and two Alexander gradings, then
    conjugated in each bigrading by elementary row and column operations
    with multipliers +-1 and +-2, and the basis shuffled.  Returns the
    complex and its expected blocks.
    """
    n_m = rng.randint(2, 5)
    gradings: list[tuple[int, int]] = []
    pieces = []  # (x, y, k): d x = k y
    free: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], list[int]] = {}
    for _ in range(rng.randint(1, 12)):
        a = rng.randint(0, 1)
        if rng.random() < 0.3:
            ma = (rng.randrange(n_m), a)
            gradings.append(ma)
            free[ma] = free.get(ma, 0) + 1
        else:
            m = rng.randint(1, n_m - 1)
            k = rng.choice((1, -1, 2, 3, 4, 6))
            pieces.append((len(gradings), len(gradings) + 1, k))
            gradings += [(m, a), (m - 1, a)]
            if abs(k) > 1:
                torsion.setdefault((m - 1, a), []).append(abs(k))
    n = len(gradings)
    matrix = [[0] * n for _ in range(n)]  # matrix[i][j]: coefficient of j in d i
    for x, y, k in pieces:
        matrix[x][y] = k
    by_ma: dict[tuple[int, int], list[int]] = {}
    for i, ma in enumerate(gradings):
        by_ma.setdefault(ma, []).append(i)
    for members in by_ma.values():
        if len(members) < 2:
            continue
        for _ in range(rng.randint(1, 3 * len(members))):
            p, q = rng.sample(members, 2)
            c = rng.choice((1, -1, 2, -2))
            # New basis element p + c q: row p += c row q, column q -= c
            # column p, so the differential is conjugated, not changed.
            matrix[p] = [x + c * y for x, y in zip(matrix[p], matrix[q])]
            for row in matrix:
                row[q] -= c * row[p]
    order = rng.sample(range(n), n)
    where = {old: new for new, old in enumerate(order)}
    gradings = [gradings[old] for old in order]
    diff = [[(where[j], c) for j, c in enumerate(matrix[old]) if c]
            for old in order]
    expected = {}
    for ma in set(free) | set(torsion):
        expected[ma] = (free.get(ma, 0), invariant_form(torsion.get(ma, ())))
    cx = complex_from_terms("Z", list(range(n)), gradings, diff)
    return cx, expected


def test_random_complexes_with_known_torsion():
    """Torsion survives the cancellation across blocks, in invariant-factor
    form: pieces 2 and 3 at one grading give (6,), not (2, 3)."""
    rng = random.Random(20261019)
    for _ in range(2000):
        cx, expected = _random_torsion_complex(rng)
        assert homology(cx).blocks == expected, (cx.gradings, cx.diff)
    assert invariant_form([2, 3]) == (6,)
    assert invariant_form([2, 4, 6]) == (2, 2, 12)


def test_unknot_tilde_homology():
    ranks = homology(build_tilde_complex(UNKNOT2))
    assert ranks.blocks == {(0, 0): (1, ()), (-1, -1): (1, ())}
    assert ranks.total_rank == 2
    assert not ranks.has_torsion


def test_trefoil_minus_d3_over_z_is_torsion_free_and_matches_f2():
    z_ranks = homology(build_minus_complex(TREFOIL5, 3, "Z"))
    assert len(z_ranks.blocks) == 21
    assert z_ranks.total_rank == 80
    assert not z_ranks.has_torsion
    f2_ranks = homology(build_minus_complex(TREFOIL5, 3, "F2"))
    assert z_ranks.blocks == f2_ranks.blocks


def test_zero_differential_two_generators():
    cx = complex_from_terms("F2", ["x", "y"],
                            [(0, 0), (-1, -1)], [[], []])
    ranks = homology(cx)
    assert ranks.free(0, 0) == 1 and ranks.free(-1, -1) == 1


def test_identity_block_is_acyclic():
    cx = complex_from_terms("F2", ["x", "y"],
                            [(1, 0), (0, 0)], [[(1, 1)], []])
    assert homology(cx).blocks == {}


def test_torsion_reported_not_dropped():
    cx = complex_from_terms("Z", ["x", "y"],
                            [(1, 0), (0, 0)], [[(1, 2)], []])
    ranks = homology(cx)
    assert ranks.blocks == {(0, 0): (0, (2,))}
    assert ranks.has_torsion
    with pytest.raises(InexactDivision):
        extract_hat(ranks, 2)


def test_f2_rank_at_least_z_free_rank():
    # Universal coefficients: over F2 the same complex can only gain rank,
    # and it agrees exactly when there is no torsion.
    labels = ["x", "y"]
    gradings = [(1, 0), (0, 0)]
    for coeff, expect_free, expect_tors in [(1, 0, ()), (2, 0, (2,)),
                                            (0, 1, ())]:
        z_cx = complex_from_terms("Z", labels, gradings,
                                  [[(1, coeff)] if coeff else [], []])
        f_cx = complex_from_terms("F2", labels, gradings,
                                  [[(1, coeff)] if coeff else [], []])
        z_ranks = homology(z_cx)
        f_ranks = homology(f_cx)
        assert z_ranks.free(0, 0) == expect_free
        assert z_ranks.torsion(0, 0) == expect_tors
        for ma in set(z_ranks.blocks) | set(f_ranks.blocks):
            assert f_ranks.free(*ma) >= z_ranks.free(*ma)
            if not z_ranks.has_torsion:
                assert f_ranks.free(*ma) == z_ranks.free(*ma)


def test_basis_reorder_invariance():
    rng = random.Random(11)
    g = random_knot_grid(4, rng)
    cx = build_tilde_complex(g)
    base = homology(cx).blocks

    order = list(range(len(cx.labels)))
    rng.shuffle(order)
    inv = {old: new for new, old in enumerate(order)}
    labels = [cx.labels[i] for i in order]
    gradings = [cx.gradings[i] for i in order]
    diff = [[(inv[j], c) for j, c in terms(cx, i)] for i in order]
    shuffled = complex_from_terms(cx.coefficients, labels, gradings, diff)
    assert homology(shuffled).blocks == base


def test_sign_conjugation_invariance():
    # Flipping the sign of basis vectors conjugates the differential by a
    # diagonal +-1 matrix; homology must not move.
    cx = complex_from_terms("Z", list("abcd"),
                            [(1, 0), (0, 0), (0, 0), (-1, 0)],
                            [[(1, 1), (2, 1)], [(3, 1)], [(3, -1)], []])
    base = homology(cx).blocks
    rng = random.Random(3)
    for _ in range(5):
        eps = [rng.choice((1, -1)) for _ in cx.labels]
        diff = [[(j, c * eps[i] * eps[j]) for j, c in terms(cx, i)]
                for i in range(len(cx.diff))]
        flipped = complex_from_terms("Z", cx.labels, cx.gradings, diff)
        assert homology(flipped).blocks == base


def test_rank_bounded_by_block_dimension():
    rng = random.Random(7)
    g = random_knot_grid(4, rng)
    cx = build_tilde_complex(g)
    dims: dict[tuple[int, int], int] = {}
    for ma in cx.gradings:
        dims[ma] = dims.get(ma, 0) + 1
    ranks = homology(cx)
    for ma, (free, _) in ranks.blocks.items():
        assert 0 <= free <= dims[ma]


# A term off the (M-1, A) block, and a chain x -> y -> z with d^2 != 0.
CORRUPTED = {
    "off_block": complex_from_terms("F2", ["x", "y"],
                                    [(0, 0), (0, 0)], [[(1, 1)], []]),
    "d_squared": complex_from_terms("Z", ["x", "y", "z"],
                                    [(2, 0), (1, 0), (0, 0)],
                                    [[(1, 1)], [(2, 1)], []]),
}


@pytest.mark.parametrize("target", [2, -1])
def test_differential_target_outside_the_basis_raises(target):
    cx = complex_from_terms("Z", ["x", "y"],
                            [(1, 0), (0, 0)], [[(target, 1)], []])
    with pytest.raises(InvalidDifferential, match=f"0 -> {target} "):
        homology(cx)


@pytest.mark.parametrize("gradings, diff", [
    ([(1, 0), (0, 0)], [[(1, 1)]]),
    ([(1, 0)], [[(1, 1)], []]),
    ([(1, 0), (0, 0), (0, 0)], [[(1, 1)], []]),
], ids=["short_diff", "short_gradings", "long_gradings"])
def test_lengths_that_differ_from_the_labels_raise(gradings, diff):
    """Two labels x -> y: a row or grading too few or too many is named."""
    cx = complex_from_terms("Z", ["x", "y"], gradings, diff)
    with pytest.raises(InvalidDifferential,
                       match=f"2 labels, {len(gradings)} gradings and "
                             f"{len(diff)} differential rows"):
        homology(cx)


def test_d_squared_lists_each_nonzero_entry():
    """Paths x -> y -> z and x -> w -> z: Z keeps their sum, F2 cancels it."""
    diff = [[(1, 1), (2, 1)], [(3, 1)], [(3, 1)], [(4, 2)], []]
    gradings = [(3, 0), (2, 0), (2, 0), (1, 0), (0, 0)]
    labels = ["x", "y", "w", "z", "v"]
    over_z = complex_from_terms("Z", labels, gradings, diff)
    over_f2 = complex_from_terms("F2", labels, gradings, diff)
    assert over_z.d_squared() == {(0, 3): 2, (1, 4): 2, (2, 4): 2}
    assert over_f2.d_squared() == {}
    assert CORRUPTED["d_squared"].d_squared() == {(0, 2): 1}
    for cx in (over_z, over_f2, *CORRUPTED.values()):
        assert cx.d_squared() == reference_d_squared(cx)


def test_f2_d_squared_counts_path_parity():
    """Three paths to one endpoint leave 1 over F2; two cancel, even when
    a row repeats a target."""
    gradings = [(2, 0), (1, 0), (1, 0), (1, 0), (0, 0), (0, 0)]
    rows = [[(1, 1), (2, 1), (3, 1)], [(4, 1), (5, 1)], [(4, 1)],
            [(4, 1), (5, 1), (5, 1), (5, 1)], [], []]
    cx = complex_from_terms("F2", "abcdef", gradings, rows)
    assert cx.d_squared() == {(0, 4): 1} == reference_d_squared(cx)


@st.composite
def _small_complexes(draw):
    """Random rows over 1..8 elements, repeated targets and zero
    coefficients allowed, over either ring."""
    size = draw(st.integers(1, 8))
    coefficients = draw(st.sampled_from(["F2", "Z"]))
    term = st.tuples(st.integers(0, size - 1), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(term, max_size=5), min_size=size,
                         max_size=size))
    return complex_from_terms(coefficients, range(size), [(0, 0)] * size,
                              rows)


@settings(max_examples=300, deadline=None)
@given(_small_complexes())
def test_d_squared_matches_the_reference_on_random_complexes(cx):
    assert cx.d_squared() == reference_d_squared(cx)


@pytest.mark.parametrize("build", [
    lambda: build_tilde_complex(FIG8),
    lambda: build_tilde_complex(FIG8, "Z"),
    lambda: build_tilde_complex(TREFOIL5, top_half=True),
    lambda: build_tilde_complex(TREFOIL5, "Z", top_half=True),
    lambda: build_minus_complex(TREFOIL5, 2),
    lambda: build_minus_complex(TREFOIL5, 2, "Z"),
], ids=["fig8-tilde-f2", "fig8-tilde-z", "trefoil5-hat-f2", "trefoil5-hat-z",
        "trefoil5-minus-d2-f2", "trefoil5-minus-d2-z"])
def test_d_squared_matches_the_reference_on_real_complexes(build):
    """Zero on the complex as built; with one term dropped from every
    tenth row, the same nonzero entries as the reference."""
    cx = build()
    assert cx.d_squared() == reference_d_squared(cx) == {}
    for i in range(0, len(cx.diff), 10):
        if cx.diff[i]:
            cx.diff[i] = cx.diff[i][1:]
            if cx.coeffs is not None:
                cx.coeffs[i] = cx.coeffs[i][1:]
    broken = cx.d_squared()
    assert broken and broken == reference_d_squared(cx)


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_differential_raises(name):
    with pytest.raises(InvalidDifferential):
        homology(CORRUPTED[name])


def test_corrupted_differential_raises_under_optimize():
    """The guards are not asserts: ``python -O`` keeps them."""
    script = (
        "import sys\n"
        "from gridhfk.complexes import ChainComplex\n"
        "from gridhfk.errors import InvalidDifferential\n"
        "from gridhfk.homology import homology\n"
        "assert False, 'asserts must be stripped here'\n"
    )
    for name in sorted(CORRUPTED):
        cx = CORRUPTED[name]
        script += (
            f"cx = ChainComplex({cx.coefficients!r}, 'tilde', {cx.labels!r}, "
            f"{cx.gradings!r}, {cx.diff!r}, {cx.coeffs!r})\n"
            "try:\n"
            "    homology(cx)\n"
            "except InvalidDifferential:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit(1)\n"
        )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_extract_hat_unknot():
    """Also on every fixture up to n = 7: the top-half division of the
    full tilde table is the full division's hat, over both rings.  A
    table whose quotient is not its own mirror raises."""
    ranks = homology(build_tilde_complex(UNKNOT2))
    hat = extract_hat(ranks, 2)
    assert hat.blocks == {(0, 0): (1, ())}
    for g in (UNKNOT2, TREFOIL5, FIG8, COMPOSITE6, TORUS34, TWIST52):
        for coefficients in ("F2", "Z"):
            tilde = homology(build_tilde_complex(g, coefficients))
            assert extract_hat(tilde, g.n) == full_extract_hat(tilde, g.n)
    with pytest.raises(AsymmetryDetected, match="mirror"):
        extract_hat(BigradedRanks("F2", {(0, 0): (1, ())}), 2)


def test_extract_hat_inexact():
    with pytest.raises(InexactDivision):
        full_extract_hat(BigradedRanks("F2", {(0, 0): (1, ())}), 2)
    with pytest.raises(InexactDivision):
        full_extract_hat(BigradedRanks("F2", {(0, 0): (1, ()),
                                              (-1, -1): (1, ()),
                                              (-2, -2): (1, ())}), 2)


def test_poincare_polynomial():
    ranks = homology(build_tilde_complex(UNKNOT2))
    poly = poincare(ranks)
    assert poly == {(0, 0): 1, (-1, -1): 1}
    assert poincare_string(poly) == "1 + q^-1 t^-1"
    assert poincare_string({}) == "0"
    assert poincare_string({(0, 0): 1}) == "1"
    assert poincare_string({(-2, -1): 3, (1, 1): 1}) == "q t + 3 q^-2 t^-1"


def test_alexander_profile():
    ranks = homology(build_tilde_complex(UNKNOT2))
    assert ranks.alexander_profile() == {0: 1, -1: 1}
