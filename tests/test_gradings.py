"""Gradings: pairing values, identities, cut independence, normalization."""

import itertools
import random
from fractions import Fraction

from conftest import KNOT8, TREFOIL5
from gridhfk.complexes import (
    build_minus_complex,
    enumerate_generators,
    move_table,
)
from gridhfk.errors import NonIntegralAlexander
from gridhfk.gradings import alexander, bigrading, maslov
from gridhfk.grid import Grid, random_knot_grid
from oracles import (
    domain_index,
    j_pair,
    maslov_index,
    multiplicities,
    rectangle_coeffs,
    staircase_domain,
    verify_boundary,
)

UNKNOT2 = Grid(2, (0, 1), (1, 0))


def test_j_pair_points():
    assert j_pair((0, 0), (1, 1)) == Fraction(1, 2)
    assert j_pair((0, 0), (1, 0)) == 0
    assert j_pair((0, 0), (0, 1)) == 0
    assert j_pair((1, 1), (0, 0)) == Fraction(1, 2)
    assert j_pair((0, 0), (0, 0)) == 0


def test_j_pair_formal_sums():
    a = [((0, 0), 1), ((1, 1), -1)]
    b = [((2, 2), 2)]
    # J((0,0),(2,2)) = J((1,1),(2,2)) = 1/2, so the difference cancels.
    assert j_pair(a, b) == 0
    assert j_pair(a, [((2, 2), 1), ((0, 1), 1)]) == j_pair(a, (2, 2)) + j_pair(a, (0, 1))
    assert j_pair([((Fraction(1, 2), 0), 1)], (1, 1)) == Fraction(1, 2)


def test_unknot_gradings():
    assert maslov(UNKNOT2, (0, 1)) == 0
    assert maslov(UNKNOT2, (1, 0)) == -1
    assert alexander(UNKNOT2, (0, 1)) == 0
    assert alexander(UNKNOT2, (1, 0)) == -1


def _maslov_reference(g, x):
    """M via the public pairing on formal sums, no integer shortcuts."""
    pts = [((c, r), 1) for r, c in enumerate(x)]
    os_ = [((c + Fraction(1, 2), r + Fraction(1, 2)), -1)
           for r, c in enumerate(g.o_cols)]
    return j_pair(pts + os_, pts + os_) + 1


def _alexander_reference(g, x):
    pts = [((c, r), 1) for r, c in enumerate(x)]
    half = Fraction(1, 2)
    x_pts = [(c + half, r + half) for r, c in enumerate(g.x_cols)]
    o_pts = [(c + half, r + half) for r, c in enumerate(g.o_cols)]
    mid = [(p, -half) for p in x_pts + o_pts]
    q = [(p, 1) for p in x_pts] + [(p, -1) for p in o_pts]
    return j_pair(pts + mid, q) - Fraction(g.n - 1, 2)


def test_gradings_match_pairing_reference():
    """The per-grid tables agree with the J pairing on every generator."""
    rng = random.Random(21)
    grids = [UNKNOT2, random_knot_grid(3, rng), random_knot_grid(4, rng),
             TREFOIL5] + [random_knot_grid(n, rng) for n in (3, 4, 5, 5)]
    for g in grids:
        for x in enumerate_generators(g):
            assert _maslov_reference(g, x) == maslov(g, x)
            assert _alexander_reference(g, x) == alexander(g, x)


def test_gradings_match_pairing_reference_knot8():
    rng = random.Random(8)
    for _ in range(500):
        x = tuple(rng.sample(range(8), 8))
        assert maslov(KNOT8, x) == _maslov_reference(KNOT8, x)
        assert alexander(KNOT8, x) == _alexander_reference(KNOT8, x)


def test_alexander_non_integral_on_links():
    hopf = Grid(4, (0, 1, 2, 3), (2, 3, 0, 1))
    hits = 0
    for x in enumerate_generators(hopf):
        try:
            alexander(hopf, x)
        except NonIntegralAlexander:
            hits += 1
    assert hits > 0


def _shift_rows(g, x, s):
    n = g.n
    xc = [0] * n
    oc = [0] * n
    gen = [0] * n
    for r in range(n):
        xc[(r + s) % n] = g.x_cols[r]
        oc[(r + s) % n] = g.o_cols[r]
        gen[(r + s) % n] = x[r]
    return Grid(n, tuple(xc), tuple(oc)), tuple(gen)


def _shift_cols(g, x, s):
    n = g.n
    xc = tuple((c + s) % n for c in g.x_cols)
    oc = tuple((c + s) % n for c in g.o_cols)
    gen = tuple((c + s) % n for c in x)
    return Grid(n, xc, oc), gen


def test_gradings_independent_of_cut():
    rng = random.Random(33)
    for n in (3, 4, 5):
        g = random_knot_grid(n, rng)
        gens = enumerate_generators(g)
        for _ in range(10):
            x = gens[rng.randrange(len(gens))]
            m, a = maslov(g, x), alexander(g, x)
            for s in range(1, n):
                g2, x2 = _shift_rows(g, x, s)
                assert (maslov(g2, x2), alexander(g2, x2)) == (m, a)
                g3, x3 = _shift_cols(g, x, s)
                assert (maslov(g3, x3), alexander(g3, x3)) == (m, a)


def test_alexander_normalization_symmetric():
    # The signed generator count sum(x) (-1)^M(x) t^A(x) must factor as
    # +/- t^k (1 - 1/t)^(n-1) P(t) with P symmetric (P(t) == P(1/t)) and
    # k == 0.  Any shift in the absolute Alexander lift would show up as
    # k != 0, so this pins the normalization of A.
    rng = random.Random(17)
    for n in (3, 4, 5):
        for _ in range(4):
            g = random_knot_grid(n, rng)
            counts: dict[int, int] = {}
            for x in enumerate_generators(g):
                m, a = bigrading(g, x)
                counts[a] = counts.get(a, 0) + (-1) ** m
            # divide by (1 - 1/t) a total of n-1 times
            for _ in range(n - 1):
                quot: dict[int, int] = {}
                carry = 0
                for a in sorted(counts, reverse=True):
                    carry += counts[a]
                    if carry:
                        quot[a] = carry
                counts = quot
                assert carry == 0, "not divisible by (1 - 1/t)"
            degs = sorted(counts)
            assert degs, g
            assert degs[0] == -degs[-1], (g, counts)
            for a in degs:
                assert counts[a] == counts[-a], (g, counts)


def test_minus_gradings_shift_by_u():
    """x U^k sits at (M(x) - 2|k|, A(x) - |k|) in the minus complex."""
    cx = build_minus_complex(TREFOIL5, 2)
    assert len(cx.labels) == 120 * 2 ** 5
    for (x, k), ma in zip(cx.labels, cx.gradings):
        assert ma == (maslov(TREFOIL5, x) - 2 * sum(k),
                      alexander(TREFOIL5, x) - sum(k))


def rect_moves_from(g, x):
    """Empty rectangles out of ``x`` with their target generators."""
    table = move_table(g)
    i = table.gens.index(x)
    return [(table.rects[rid], table.gens[j])
            for rid, j in zip(table.rids[i], table.targets[i])]


def test_empty_rectangles_have_index_one():
    rng = random.Random(2)
    for n in (3, 4, 5):
        g = random_knot_grid(n, rng)
        gens = enumerate_generators(g)
        for x in (gens[0], gens[len(gens) // 2], gens[-1]):
            for rect, y in rect_moves_from(g, x):
                assert maslov_index(rectangle_coeffs(rect), n, x, y) == 1


def test_index_and_grading_identities_on_domains():
    """mu(D) = M(x) - M(y) + 2 sum nO(D); A drop = sum(nX) - sum(nO)."""
    rng = random.Random(8)
    for n in (3, 4, 5):
        g = random_knot_grid(n, rng)
        gens = enumerate_generators(g)
        for _ in range(25):
            x = gens[rng.randrange(len(gens))]
            y = gens[rng.randrange(len(gens))]
            d = staircase_domain(g, x, y)
            assert verify_boundary(d)
            mu = domain_index(d)
            assert mu.denominator == 1
            n_o = sum(multiplicities(d, g.o_cols))
            n_x = sum(multiplicities(d, g.x_cols))
            assert maslov(g, x) - maslov(g, y) == mu - 2 * n_o
            assert alexander(g, x) - alexander(g, y) == n_x - n_o


def test_maslov_spread_of_full_symmetric_group():
    # All 2x2 generators and 3x3 generators have the expected M range.
    g3 = Grid(3, (0, 1, 2), (2, 0, 1))
    ms = sorted(maslov(g3, x) for x in itertools.permutations(range(3)))
    assert ms[0] <= -1 and ms[-1] >= 0
