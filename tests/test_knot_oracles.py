"""Tables against exact answers: connected sums, split unions and torus
knots.

The hat of a connected sum is the tensor product of its factors' hats
(Ozsvath-Szabo, Kunneth formula for connected sums), with (M, A) adding
and, over Z, the Tor terms one Maslov grading up.  The link Floer
homology of a split union of l knots is the tensor product of theirs
with l - 1 factors of rank two (Ozsvath-Szabo, arXiv:math/0512286), and
the tilde complex of an n grid adds n - l more, so the tilde rank of a
split union of three knots is 4 times the product of the knots' tilde
ranks.  A connected sum is fibered exactly when both summands are
(Gabai).  Torus knots are L-space knots, so Delta fixes their hat: one
group Z in each grading of Delta, with Maslov gradings read off the
staircase.  These are the tier-1 cases past n = 9.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    FIG8,
    GRANNY9,
    TREFOIL5,
    TWIST52,
    UNKNOT2,
    connected_sum,
    knot_grids,
    split_union,
    torus_grid,
)
from gridhfk.complexes import build_tilde_complex
from gridhfk.grid import link_components
from gridhfk.homology import BigradedRanks, homology
from gridhfk.invariants import (
    alexander_polynomial,
    fibered,
    genus,
    grid_alexander_polynomial,
    hat_homology,
)
from oracles import invariant_form


def tensor_hat(h1: BigradedRanks, h2: BigradedRanks) -> BigradedRanks:
    """The Kunneth formula on two hat tables of one ring.

    Each group is a list of cyclic orders, 0 for Z: Z/d (x) Z/e is
    Z/gcd(d, e), and so is Tor(Z/d, Z/e), one Maslov grading up.
    """
    orders = defaultdict(list)
    for (m1, a1), (free1, tors1) in h1.blocks.items():
        for (m2, a2), (free2, tors2) in h2.blocks.items():
            for d in [0] * free1 + list(tors1):
                for e in [0] * free2 + list(tors2):
                    orders[(m1 + m2, a1 + a2)].append(gcd(d, e))
                    if d and e:
                        orders[(m1 + m2 + 1, a1 + a2)].append(gcd(d, e))
    blocks = {}
    for ma, cyclic in orders.items():
        free = cyclic.count(0)
        tors = invariant_form([k for k in cyclic if k > 1])
        if free or tors:
            blocks[ma] = (free, tors)
    return BigradedRanks(h1.coefficients, blocks)


def _times(p, q) -> dict[int, int]:
    """The product of two Alexander polynomials, as exponent -> coefficient."""
    out: dict[int, int] = defaultdict(int)
    for a, c in p.coeffs:
        for b, d in q.coeffs:
            out[a + b] += c * d
    return {a: c for a, c in out.items() if c}


def _check_sum(g1, g2, coefficients, max_grid=9, row1=0, row2=0):
    """The sum is a knot, its hat the tensor product, Delta the product."""
    g = connected_sum(g1, g2, row1, row2)
    assert link_components(g) == 1
    hat = hat_homology(g, coefficients, max_grid)
    factors = hat_homology(g1, coefficients), hat_homology(g2, coefficients)
    assert hat == tensor_hat(*factors)
    delta = _times(*map(grid_alexander_polynomial, (g1, g2)))
    assert grid_alexander_polynomial(g, max_grid=max_grid).as_dict() == delta
    if coefficients == "F2":
        delta = {a: 1 for a, c in delta.items() if c % 2}
    assert alexander_polynomial(hat).as_dict() == delta
    return hat, factors


@st.composite
def _factor_pairs(draw):
    """Two knot grids with n1 + n2 <= 9, and a row of each to join at."""
    g1 = draw(knot_grids(max_n=7))
    g2 = draw(knot_grids(max_n=9 - g1.n))
    return (g1, g2, draw(st.integers(0, g1.n - 1)),
            draw(st.integers(0, g2.n - 1)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(_factor_pairs(), st.sampled_from(["F2", "Z"]))
def test_connected_sum_hat_is_the_tensor_product(pair, coefficients):
    g1, g2, row1, row2 = pair
    _check_sum(g1, g2, coefficients, row1=row1, row2=row2)


@pytest.mark.parametrize("coefficients", ["F2", "Z"])
def test_trefoil_sum_is_the_granny_at_n10(coefficients):
    """trefoil5 # trefoil5 has granny9's Delta and hat, one size up; over
    Z this checks the closed-form signs past n = 9."""
    hat, _ = _check_sum(TREFOIL5, TREFOIL5, coefficients, max_grid=10)
    assert hat == hat_homology(GRANNY9, coefficients)
    assert str(grid_alexander_polynomial(connected_sum(TREFOIL5, TREFOIL5),
                                         max_grid=10)) \
        == "t^2 - 2t + 3 - 2t^-1 + t^-2"


@pytest.mark.parametrize("g1, g2", [(TREFOIL5, FIG8), (FIG8, FIG8)],
                         ids=["trefoil5-fig8-n11", "fig8-fig8-n12"])
def test_connected_sums_past_n10(g1, g2):
    """The hat over F2, and the genus adds."""
    hat, factors = _check_sum(g1, g2, "F2", max_grid=12)
    assert genus(hat) == sum(map(genus, factors))


@pytest.mark.parametrize("g1, g2, expected", [(TREFOIL5, FIG8, True),
                                              (TREFOIL5, TWIST52, False)],
                         ids=["trefoil5-fig8-n11", "trefoil5-twist52-n12"])
def test_connected_sum_fiberedness_past_n10(g1, g2, expected):
    """Over Z: a connected sum is fibered exactly when both summands are
    (Gabai), and the genus adds."""
    g = connected_sum(g1, g2)
    assert link_components(g) == 1
    hat = hat_homology(g, "Z", max_grid=12)
    factors = [hat_homology(f, "Z") for f in (g1, g2)]
    assert fibered(hat) is expected
    assert all(map(fibered, factors)) is expected
    assert genus(hat) == sum(map(genus, factors)) == 2


def _tilde_rank(g, coefficients) -> int:
    return homology(build_tilde_complex(g, coefficients)).total_rank


def _check_split_union(grids, coefficients) -> int:
    """Three knots' split union: its tilde rank is 4 times the product of
    the knots' tilde ranks."""
    g = split_union(*grids)
    assert link_components(g) == len(grids) == 3
    rank = _tilde_rank(g, coefficients)
    product = 1
    for factor in grids:
        product *= _tilde_rank(factor, coefficients)
    assert rank == 4 * product
    return rank


@st.composite
def _split_factors(draw):
    """Three knot grids with n1 + n2 + n3 <= 7."""
    g1 = draw(knot_grids(max_n=3))
    g2 = draw(knot_grids(max_n=5 - g1.n))
    g3 = draw(knot_grids(max_n=7 - g1.n - g2.n))
    return g1, g2, g3


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(_split_factors(), st.sampled_from(["F2", "Z"]))
def test_split_union_tilde_rank_is_four_times_the_product(grids,
                                                          coefficients):
    _check_split_union(grids, coefficients)


@pytest.mark.parametrize("coefficients", ["F2", "Z"])
def test_three_component_unlink_tilde_rank(coefficients):
    """unknot2 three times at n = 6: two marking-free rectangles join the
    same pair of generators, and the two terms must sum."""
    assert _check_split_union([UNKNOT2] * 3, coefficients) == 32


def staircase(delta) -> dict[tuple[int, int], tuple[int, tuple]]:
    """The hat of the mirror of a positive L-space knot with Alexander
    polynomial ``delta``.

    Delta's terms alternate in sign from +1 at the top exponent n_0.  The
    positive knot has one Z at each (m_i, n_i), with m_0 = 0, and from an
    even i to i + 1 the grading falls by 2(n_i - n_{i+1}) - 1, from an
    odd one by 1.  The mirror negates both gradings.
    """
    exps = [a for a, _ in delta.coeffs]
    assert [c for _, c in delta.coeffs] == \
        [(-1) ** i for i in range(len(exps))]
    m, blocks = 0, {}
    for i, a in enumerate(exps):
        if i:
            m -= 2 * (exps[i - 1] - a) - 1 if i % 2 else 1
        blocks[(-m, -a)] = (1, ())
    return blocks


@pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7),
                                  (4, 5)])
@pytest.mark.parametrize("coefficients", ["F2", "Z"])
def test_torus_knot_hat_is_the_staircase(p, q, coefficients):
    g = torus_grid(p, q)
    blocks = staircase(grid_alexander_polynomial(g))
    assert all(m >= 0 for m, _ in blocks)
    assert hat_homology(g, coefficients).blocks == blocks
