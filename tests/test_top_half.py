"""Top-half hat and the grid determinant.

The hat path builds the tilde columns A >= -1 alone, divides them down
to A = -1, checks the column A = -1 against the mirror of A = 1, mirrors
the rest, and checks the result against the Alexander polynomial of the
grid determinant.  The oracle is the full path: every tilde column, then
``extract_hat`` with its remainder check.
"""

import collections
import random

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    COMPOSITE6,
    FIG8,
    GRANNY9,
    KNOT8,
    TORUS34,
    TREFOIL5,
    TWIST52,
    UNKNOT2,
    knot_grids,
)
from gridhfk import complexes
from gridhfk.complexes import (
    TOP_HALF_FLOOR,
    MoveTable,
    build_tilde_complex,
    enumerate_generators,
    move_table,
)
from gridhfk.errors import (
    AsymmetryDetected,
    InvalidHomology,
    NonIntegralAlexander,
    ResourceLimit,
)
from gridhfk.gradings import (
    _generator_sums,
    alexander,
    determinant_alexander,
    euler_characteristic,
    maslov,
    top_generators,
)
from gridhfk.grid import Grid, random_knot_grid, stabilize
from gridhfk.homology import BigradedRanks, extract_hat, homology
from gridhfk.invariants import (
    alexander_polynomial,
    certify_hat,
    check_invariance,
    grid_alexander_polynomial,
    hat_homology,
)
from gridhfk.poset import alexander_range, poset_stats
from gridhfk.signs import solve_signs

HOPF = Grid(4, (0, 1, 2, 3), (2, 3, 0, 1))
# three-component links, on which every Alexander grading is an integer
SPLIT_UNLINK3 = Grid(6, (0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4))
TORUS33 = Grid(6, (0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2))

PINNED_DELTA = {
    "unknot2": (UNKNOT2, {0: 1}),
    "trefoil5": (TREFOIL5, {1: 1, 0: -1, -1: 1}),
    "fig8": (FIG8, {1: -1, 0: 3, -1: -1}),
    "torus34": (TORUS34, {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}),
    "twist52": (TWIST52, {1: 2, 0: -3, -1: 2}),
    "composite6": (COMPOSITE6, {1: 1, 0: -1, -1: 1}),
    "granny9": (GRANNY9, {2: 1, 1: -2, 0: 3, -1: -2, -2: 1}),
    "knot8": (KNOT8, {0: 1}),
}


def full_hat(g, coefficients="F2"):
    """The oracle: every tilde column, divided with the remainder check."""
    signs = solve_signs(g) if coefficients == "Z" else None
    tilde = homology(build_tilde_complex(g, coefficients, signs))
    return extract_hat(tilde, g.n)


def nontrivial_knots(n, k, seed):
    """``k`` random n x n knot grids whose hat is not a single group."""
    rng = random.Random(seed)
    out = []
    while len(out) < k:
        g = random_knot_grid(n, rng)
        if determinant_alexander(g) != {0: 1}:
            out.append(g)
    return out


# ------------------------------------------------------------ determinant

@pytest.mark.parametrize("name", sorted(PINNED_DELTA))
def test_determinant_gives_the_pinned_alexander_polynomial(name):
    g, delta = PINNED_DELTA[name]
    assert determinant_alexander(g) == delta


def test_determinant_is_the_generator_sum():
    """The row sums give, per A, the signed and the plain generator count."""
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 5, 6, 7):
        g = random_knot_grid(n, rng)
        chi, count = collections.Counter(), collections.Counter()
        for x in enumerate_generators(g):
            a = alexander(g, x)
            chi[a] += (-1) ** maslov(g, x)
            count[a] += 1
        assert euler_characteristic(g) == {a: c for a, c in chi.items() if c}
        assert _generator_sums(g) == {a: (chi[a], count[a]) for a in count}


def test_determinant_refuses_links():
    with pytest.raises(NonIntegralAlexander):
        euler_characteristic(HOPF)


def test_alexander_range_matches_the_generator_scan():
    """The range from the row sums is the one the n! scan gave."""
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6, 6):
        g = random_knot_grid(n, rng)
        grades = [alexander(g, x) for x in enumerate_generators(g)]
        low, high = min(grades), max(grades)
        assert alexander_range(g) == range(low, high + 1)
        assert alexander_range(g, "minus", 2) == range(low - n, high + 1)


def test_alexander_range_refusals():
    with pytest.raises(NonIntegralAlexander):
        alexander_range(HOPF)
    with pytest.raises(ResourceLimit):
        alexander_range(TREFOIL5, max_grid=4)
    with pytest.raises(ResourceLimit):
        alexander_range(GRANNY9, "minus", 2, max_grid=8)


@pytest.mark.parametrize("name", sorted(PINNED_DELTA))
def test_grid_alexander_polynomial_is_the_pinned_delta(name):
    g, delta = PINNED_DELTA[name]
    poly = grid_alexander_polynomial(g)
    assert poly.as_dict() == delta and not poly.mod2


@pytest.mark.parametrize("name, coefficients", [
    (name, "F2") for name in ("unknot2", "trefoil5", "fig8", "torus34",
                              "twist52", "composite6")] + [
    (name, "Z") for name in ("unknot2", "trefoil5", "fig8", "composite6")])
def test_grid_alexander_polynomial_matches_the_hat_route(name, coefficients):
    g, _ = PINNED_DELTA[name]
    hat = alexander_polynomial(hat_homology(g, coefficients))
    assert grid_alexander_polynomial(g, coefficients) == hat
    assert all(type(c) is int for _, c in hat.coeffs)


def test_grid_alexander_polynomial_refuses_what_the_hat_route_refuses():
    with pytest.raises(NonIntegralAlexander, match="Alexander grading"):
        grid_alexander_polynomial(HOPF)
    with pytest.raises(ResourceLimit, match="ceiling"):
        grid_alexander_polynomial(TORUS34, max_grid=6)


def test_certificate_accepts_the_hat_and_its_negative_sign():
    hat = full_hat(TREFOIL5)
    certify_hat(TREFOIL5, hat)
    # shifting every Maslov grading by one negates chi; Delta is only
    # determined up to sign
    shifted = {(m + 1, a): v for (m, a), v in hat.blocks.items()}
    certify_hat(TREFOIL5, BigradedRanks("F2", shifted))


@pytest.mark.parametrize("g", [TREFOIL5, FIG8], ids=["trefoil5", "fig8"])
def test_certificate_refuses_one_changed_rank(g):
    hat = hat_homology(g, "F2")
    for ma, (free, tors) in hat.blocks.items():
        changed = dict(hat.blocks)
        changed[ma] = (free + 1, tors)
        with pytest.raises(InvalidHomology):
            certify_hat(g, BigradedRanks("F2", changed))


def bump(blocks, *bigradings):
    """``blocks`` with one more free rank at each bigrading."""
    out = dict(blocks)
    for ma in bigradings:
        free, tors = out.get(ma, (0, ()))
        out[ma] = (free + 1, tors)
    return out


@pytest.mark.parametrize("g", [TREFOIL5, FIG8], ids=["trefoil5", "fig8"])
def test_a_lost_differential_rank_passes_the_certificate_not_the_mirror(g):
    """A differential that loses one rank out of (M, A) raises the homology
    at (M, A) and (M - 1, A) together.  chi does not see that; the column
    A = -1 of the top half does, wherever the pair sits."""
    hat = hat_homology(g, "F2")
    for m, a in hat.blocks:
        certify_hat(g, BigradedRanks("F2", bump(hat.blocks, (m, a),
                                                (m - 1, a))))
    tilde = homology(build_tilde_complex(g, "F2", top_half=True))
    assert min(a for _, a in tilde.blocks) == TOP_HALF_FLOOR
    for m, a in tilde.blocks:
        lost = BigradedRanks("F2", bump(tilde.blocks, (m, a), (m - 1, a)))
        with pytest.raises(AsymmetryDetected, match="mirror"):
            extract_hat(lost, g.n, top_half=True)


# ------------------------------------------------------------ the subset

def test_top_generators_are_those_at_or_above_the_floor():
    rng = random.Random(11)
    grids = [random_knot_grid(n, rng) for n in (2, 3, 4, 5, 5, 6, 6, 7)]
    for g in grids + [TREFOIL5, FIG8, TORUS34, TWIST52]:
        for floor in (1, 0, -1, -3):
            assert top_generators(g, floor) == [
                x for x in enumerate_generators(g) if alexander(g, x) >= floor]


def test_top_generators_match_the_row_sums_per_alexander_grading():
    """The branch and bound against the row DP, an independent count.

    Up to n = 8, past the brute-force check above, each floor from the
    lowest A to 1 lists exactly the DP's count in every grading it keeps.
    """
    rng = random.Random(12)
    for n in range(2, 9):
        for _ in range(2):
            g = random_knot_grid(n, rng)
            sums = _generator_sums(g)
            for floor in sorted({1, 0, -1, min(sums)}):
                got = collections.Counter(
                    alexander(g, x) for x in top_generators(g, floor))
                assert got == {a: count for a, (_, count) in sums.items()
                               if a >= floor}, (g, floor)


def test_top_generators_refuse_links():
    with pytest.raises(NonIntegralAlexander, match="multi-component link"):
        top_generators(HOPF, 0)


@pytest.mark.parametrize("g", [SPLIT_UNLINK3, TORUS33],
                         ids=["split-unlink3", "torus33"])
def test_knot_invariants_refuse_odd_links(g):
    """Integral gradings do not make a knot: the component count refuses."""
    assert type(alexander(g, tuple(range(6)))) is int  # the probe passes
    for call in (lambda: top_generators(g, 0),
                 lambda: hat_homology(g),
                 lambda: hat_homology(g, "Z"),
                 lambda: grid_alexander_polynomial(g),
                 lambda: euler_characteristic(g),
                 lambda: alexander_range(g),
                 lambda: poset_stats(g),
                 lambda: check_invariance(g, 1)):
        with pytest.raises(NonIntegralAlexander,
                           match="the grid presents a 3-component link, "
                                 "not a knot"):
            call()


def test_top_half_table_is_the_full_table_restricted():
    g = TORUS34
    full = move_table(g, cls="XO")
    top = move_table(g, cls="XO", top_half=True)
    assert {rid: (r, r.x_rows, r.o_rows) for rid, r in top.rects.items()} \
        == {rid: (r, r.x_rows, r.o_rows) for rid, r in full.rects.items()}
    position = {x: i for i, x in enumerate(full.gens)}
    for i, x in enumerate(top.gens):
        k = position[x]
        assert top.rids[i] == full.rids[k]
        assert [top.gens[j] for j in top.targets[i]] == \
            [full.gens[j] for j in full.targets[k]]


def test_top_half_table_only_for_marking_free_moves():
    with pytest.raises(ValueError, match="Alexander grading"):
        move_table(TREFOIL5, cls="X", top_half=True)


def test_knot8_subset_pinned():
    """knot8 has 1,005 generators at A >= 0 of 40,320, and 3,671 at -1."""
    assert len(top_generators(KNOT8, 0)) == 1005
    assert len(top_generators(KNOT8, -1)) == 1005 + 3671
    assert len(move_table(KNOT8, cls="XO", top_half=True).gens) == 4676


@pytest.fixture
def builds(monkeypatch):
    """(class, generators) of each move table built during the test."""
    out = []

    class Counting(MoveTable):
        def __init__(self, g, cls="", gens=None):
            super().__init__(g, cls, gens)
            out.append((cls, len(self.gens)))

    monkeypatch.setattr(complexes, "MoveTable", Counting)
    return out


def test_hat_path_builds_only_the_top_half_table(builds):
    assert hat_homology(KNOT8, "F2").blocks == {(0, 0): (1, ())}
    assert builds == [("XO", 4676)]


def test_z_hat_path_builds_only_the_top_half_table(builds):
    """The signs come from the closed form, move by move: no full table."""
    assert hat_homology(FIG8, "Z").total_rank == 5
    top = len(top_generators(FIG8, TOP_HALF_FLOOR))
    assert builds == [("XO", top)]


# ------------------------------------------------------------ the oracle

FIXTURES = [UNKNOT2, TREFOIL5, FIG8, TORUS34, TWIST52, COMPOSITE6, KNOT8]


@pytest.mark.parametrize("g", FIXTURES,
                         ids=["unknot2", "trefoil5", "fig8", "torus34",
                              "twist52", "composite6", "knot8"])
def test_top_half_hat_matches_the_full_path_f2(g):
    assert hat_homology(g, "F2").blocks == full_hat(g).blocks


@pytest.mark.parametrize("g", [TREFOIL5, FIG8], ids=["trefoil5", "fig8"])
def test_top_half_hat_matches_the_full_path_z(g):
    assert hat_homology(g, "Z").blocks == full_hat(g, "Z").blocks


def test_granny_top_half_hat():
    """The full path at n = 9 is out of test budget; its table is pinned."""
    assert hat_homology(GRANNY9, "F2").blocks == {
        (4, 2): (1, ()), (3, 1): (2, ()), (2, 0): (3, ()),
        (1, -1): (2, ()), (0, -2): (1, ())}


@pytest.mark.parametrize("g", nontrivial_knots(6, 2, 3)
                         + nontrivial_knots(7, 1, 4),
                         ids=["random6a", "random6b", "random7"])
def test_top_half_hat_matches_the_full_path_on_random_knots(g):
    assert hat_homology(g, "F2").blocks == full_hat(g).blocks


STABILIZED8 = [stabilize(TORUS34, 2, "a"), stabilize(TWIST52, 4, "c"),
               stabilize(stabilize(FIG8, 1, "b"), 5, "d")]


@pytest.mark.parametrize("g", STABILIZED8,
                         ids=["torus34", "twist52", "fig8-twice"])
def test_top_half_hat_matches_the_full_path_on_stabilized_grids(g):
    assert g.n == 8
    assert hat_homology(g, "F2").blocks == full_hat(g).blocks


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_grids())
def test_top_half_hat_matches_the_full_path_property(g):
    assert hat_homology(g, "F2").blocks == full_hat(g).blocks
