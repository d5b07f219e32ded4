"""Alexander polynomial, genus, fiberedness, and move invariance."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from gridhfk.complexes import move_table
from gridhfk.errors import AsymmetryDetected, InvalidHomology, ResourceLimit
from gridhfk.grid import Grid, random_knot_grid
from gridhfk.homology import BigradedRanks
from gridhfk.invariants import (
    AlexanderPolynomial,
    alexander_polynomial,
    apply_move,
    check_invariance,
    fibered,
    genus,
    hat_homology,
    legal_moves,
)


def test_alexander_unknot():
    hat = hat_homology(UNKNOT2, "Z")
    delta = alexander_polynomial(hat)
    assert delta.as_dict() == {0: 1}
    assert str(delta) == "1"
    assert not delta.mod2


def test_alexander_trefoil():
    delta = alexander_polynomial(hat_homology(TREFOIL5, "Z"))
    assert delta.as_dict() == {1: 1, 0: -1, -1: 1}
    assert str(delta) == "t - 1 + t^-1"


def test_alexander_torus34():
    delta = alexander_polynomial(hat_homology(TORUS34, "Z"))
    assert delta.as_dict() == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}
    assert str(delta) == "t^3 - t^2 + 1 - t^-2 + t^-3"


def test_alexander_figure_eight():
    delta = alexander_polynomial(hat_homology(FIG8, "Z"))
    assert delta.as_dict() == {1: -1, 0: 3, -1: -1}
    assert str(delta) == "-t + 3 - t^-1"


def test_alexander_twist_knot():
    delta = alexander_polynomial(hat_homology(TWIST52, "Z"))
    assert delta.as_dict() == {1: 2, 0: -3, -1: 2}
    assert str(delta) == "2t - 3 + 2t^-1"


def test_alexander_mod2_flagged():
    delta = alexander_polynomial(hat_homology(TREFOIL5, "F2"))
    assert delta.mod2
    assert delta.as_dict() == {1: 1, 0: 1, -1: 1}


def test_alexander_mod2_drops_even_coefficients():
    # 2t - 3 + 2/t reduces to the constant 1 mod 2.
    delta = alexander_polynomial(hat_homology(TWIST52, "F2"))
    assert delta.mod2
    assert delta.as_dict() == {0: 1}


def test_alexander_rejects_asymmetric_table():
    bad = BigradedRanks("Z", {(0, 1): (1, ())})
    with pytest.raises(AsymmetryDetected):
        alexander_polynomial(bad)


def test_alexander_rejects_wrong_value_at_one():
    bad = BigradedRanks("Z", {(0, 0): (2, ())})
    with pytest.raises(AsymmetryDetected):
        alexander_polynomial(bad)


def test_alexander_normalization_flips_sign():
    # A table whose raw Euler characteristic is -1 at t = 1.
    flipped = BigradedRanks("Z", {(1, 1): (1, ()), (0, 0): (1, ()), (1, -1): (1, ())})
    delta = alexander_polynomial(flipped)
    assert sum(delta.as_dict().values()) == 1


def test_polynomial_rendering():
    p = AlexanderPolynomial(((2, 1), (1, -2), (0, 3), (-1, -2), (-2, 1)))
    assert str(p) == "t^2 - 2t + 3 - 2t^-1 + t^-2"
    assert p.degree == 2
    assert p.coefficient(1) == -2
    assert p.coefficient(5) == 0
    assert str(AlexanderPolynomial(())) == "0"


def test_genus_values():
    assert genus(hat_homology(UNKNOT2, "F2")) == 0
    assert genus(hat_homology(TREFOIL5, "F2")) == 1
    assert genus(hat_homology(FIG8, "Z")) == 1
    assert genus(hat_homology(TWIST52, "Z")) == 1
    assert genus(hat_homology(TORUS34, "Z")) == 3


def test_fibered_values():
    assert fibered(hat_homology(UNKNOT2, "Z")) is True
    assert fibered(hat_homology(TREFOIL5, "Z")) is True
    assert fibered(hat_homology(FIG8, "Z")) is True
    # top Alexander group has rank 2, matching the leading coefficient 2
    assert fibered(hat_homology(TWIST52, "Z")) is False


def test_fibered_refuses_f2():
    with pytest.raises(ValueError):
        fibered(hat_homology(TREFOIL5, "F2"))


def test_composite_presents_the_trefoil():
    assert hat_homology(COMPOSITE6, "Z").blocks == \
        hat_homology(TREFOIL5, "Z").blocks


def test_granny_euler_characteristic():
    """Splice of two trefoils has the granny-knot Alexander polynomial.

    Full homology at n = 9 is out of test budget.  Instead the graded
    Euler characteristic sum_x (-1)^M t^A is evaluated as a 9x9
    determinant of monomials: the Alexander grading is linear in the
    generator entries and the Maslov parity matches the permutation
    sign, both of which are cross-checked here against the package
    gradings on a random sample before being trusted for the full sum.
    """
    from gridhfk.gradings import alexander, maslov

    g = GRANNY9
    n = g.n
    marks_x = [(c, r) for r, c in enumerate(g.x_cols)]
    marks_o = [(c, r) for r, c in enumerate(g.o_cols)]

    def same_side(c, r, marks):
        return sum(1 for mc, mr in marks if (mc < c) == (mr < r))

    # 4 * A(x) = sum_r table[r][x[r]] + k4, all integers
    table = [[2 * (same_side(c, r, marks_x) - same_side(c, r, marks_o))
              for c in range(n)] for r in range(n)]

    def aligned(marks):
        return sum(1 for i in range(n) for j in range(i + 1, n)
                   if (marks[i][0] < marks[j][0]) == (marks[i][1] < marks[j][1]))

    k4 = -2 * (aligned(marks_x) - aligned(marks_o)) - 2 * (n - 1)

    rng = random.Random(99)
    base_parity = None
    for _ in range(200):
        x = tuple(rng.sample(range(n), n))
        assert sum(table[r][c] for r, c in enumerate(x)) + k4 == \
            4 * alexander(g, x)
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if x[i] > x[j])
        rel = (maslov(g, x) + inversions) % 2
        if base_parity is None:
            base_parity = rel
        assert rel == base_parity

    # chi as det[t^table[r][c]] by minor expansion over column masks
    memo = {(1 << n) - 1: {0: 1}}

    def det_from(mask):
        if mask in memo:
            return memo[mask]
        r = bin(mask).count("1")
        acc = {}
        j = 0
        for c in range(n):
            if mask >> c & 1:
                continue
            sub = det_from(mask | 1 << c)
            sign = -1 if j & 1 else 1
            for a, coeff in sub.items():
                key = a + table[r][c]
                acc[key] = acc.get(key, 0) + sign * coeff
            j += 1
        memo[mask] = {a: c0 for a, c0 in acc.items() if c0}
        return memo[mask]

    chi = {}
    for a4, coeff in det_from(0).items():
        assert (a4 + k4) % 4 == 0
        chi[(a4 + k4) // 4] = coeff

    # (t - 1 + 1/t)^2 * (1 - 1/t)^8, up to overall sign
    target = {2: 1, 1: -2, 0: 3, -1: -2, -2: 1}
    for _ in range(8):
        nxt = {}
        for a, c in target.items():
            nxt[a] = nxt.get(a, 0) + c
            nxt[a - 1] = nxt.get(a - 1, 0) - c
        target = {a: c for a, c in nxt.items() if c}
    assert chi == target or chi == {a: -c for a, c in target.items()}


# ---------------------------------------------------------------- moves

def test_legal_moves_cover_all_kinds():
    # The bare trefoil torus form admits no commutation (all marking
    # pairs interleave), so grow it once first.
    grown = apply_move(TREFOIL5, ("stabilize", 0, "a"))
    moves = legal_moves(grown, max_grid=7)
    kinds = {m[0] for m in moves}
    assert kinds == {"commute", "stabilize", "destabilize"}
    # every stabilization of every row appears below the cap
    stabs = [m for m in moves if m[0] == "stabilize"]
    assert len(stabs) == 6 * 4
    assert ("destabilize", 0, 0) in moves


def test_legal_moves_torus_form_has_no_commutation():
    assert all(m[0] != "commute" for m in legal_moves(TREFOIL5, max_grid=5))


def test_legal_moves_respect_grid_cap():
    moves = legal_moves(TREFOIL5, max_grid=5)
    assert all(m[0] != "stabilize" for m in moves)


def test_apply_move_round_trips():
    g = stab = apply_move(TREFOIL5, ("stabilize", 2, "a"))
    assert stab.n == 6
    back = apply_move(g, ("destabilize", 2, TREFOIL5.x_cols[2]))
    assert back.x_cols == TREFOIL5.x_cols and back.o_cols == TREFOIL5.o_cols


@pytest.mark.parametrize("move", [
    ("stabilize", 0), ("commute", "row"), ("destabilize",), (),
    ("stabilize", 0, "a", "extra"),
])
def test_apply_move_refuses_a_descriptor_without_three_fields(move):
    """Short descriptors raised a bare IndexError; a long one was applied."""
    for call in (lambda: apply_move(TREFOIL5, move),
                 lambda: check_invariance(TREFOIL5, [move])):
        with pytest.raises(ValueError, match=re.escape(repr(move))):
            call()


def test_invariance_trefoil_random_moves():
    report = check_invariance(TREFOIL5, 3, seed=7)
    assert report.ok
    assert len(report.moves) == 3
    assert report.summary() == "PASS: 4/4 HFK-hat tables identical"


def test_invariance_explicit_stabilizations():
    report = check_invariance(UNKNOT2, [("stabilize", 0, "a"),
                                        ("stabilize", 1, "c")])
    assert report.ok
    assert report.tables[0].blocks == {(0, 0): (1, ())}
    assert [g.n for g in report.grids] == [2, 3, 4]


def test_invariance_refuses_stabilization_past_max_grid(monkeypatch):
    """An explicit move list is checked whole before any table is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built before the size check")

    monkeypatch.setattr("gridhfk.invariants.hat_homology", refuse)
    with pytest.raises(ResourceLimit, match="grid size 4 exceeds the ceiling 3"):
        check_invariance(UNKNOT2, [("stabilize", 0, "a"),
                                   ("stabilize", 1, "c")], max_grid=3)
    with pytest.raises(ResourceLimit, match="grid size 5 exceeds the ceiling 4"):
        check_invariance(TREFOIL5, 1, max_grid=4)


def test_invariance_defaults_to_the_shared_grid_ceiling():
    """``check_invariance`` and ``legal_moves`` take the ceiling of
    ``hat_homology``, so a grid the hat accepts is not refused here."""
    assert check_invariance(GRANNY9, 0).ok
    assert ("stabilize", 0, "a") in legal_moves(KNOT8)
    assert ("stabilize", 0, "a") not in legal_moves(GRANNY9)


@pytest.mark.parametrize("count", [-2, True, False])
def test_invariance_refuses_a_negative_or_bool_move_count(count):
    with pytest.raises(ValueError, match="move count"):
        check_invariance(TREFOIL5, count)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_grids(max_n=5), st.data())
def test_legal_moves_apply_and_keep_the_hat_property(g, data):
    """Every listed move applies, and a drawn one keeps the hat table."""
    moves = legal_moves(g, 6)
    grown = [apply_move(g, mv) for mv in moves]
    assert all(h.n in (g.n - 1, g.n, g.n + 1) for h in grown)
    h = data.draw(st.sampled_from(grown))
    assert hat_homology(h).blocks == hat_homology(g).blocks


def test_invariance_report_flags_divergence():
    # Hand the harness two different knots as if a move related them.
    table_t = hat_homology(TREFOIL5, "F2")
    table_u = hat_homology(UNKNOT2, "F2")
    from gridhfk.invariants import InvarianceReport
    report = InvarianceReport(start=TREFOIL5, moves=(("stabilize", 0, "a"),),
                              grids=(TREFOIL5, UNKNOT2),
                              tables=(table_t, table_u), divergence=1)
    assert not report.ok
    assert report.summary().startswith("FAIL")


def test_stabilization_doubles_tilde_rank():
    from gridhfk.complexes import build_tilde_complex
    from gridhfk.homology import homology

    base = homology(build_tilde_complex(TREFOIL5)).total_rank
    grown = apply_move(TREFOIL5, ("stabilize", 1, "b"))
    assert homology(build_tilde_complex(grown)).total_rank == 2 * base


def test_invariance_random_grids_property():
    rng = random.Random(20260814)
    for _ in range(6):
        g = random_knot_grid(rng.randrange(3, 6), rng)
        report = check_invariance(g, 2, seed=rng.randrange(10 ** 6))
        assert report.ok, report.summary()


def test_invariance_z_coefficients():
    report = check_invariance(TREFOIL5, [("stabilize", 0, "a"),
                                         ("commute", "row", 5)],
                              coefficients="Z")
    assert report.ok


@pytest.mark.parametrize("blocks", [
    {},
    {(0, 0): (1, ()), (-2, -2): (1, ())},
], ids=["zero", "below_degree"])
def test_genus_refuses_impossible_tables(blocks):
    with pytest.raises(InvalidHomology):
        genus(BigradedRanks("F2", blocks))


def test_knot8_f2_hat():
    """n = 8: the hat reads the 1,005 generators at A >= 0 of 40,320, and
    the 3,671 at A = -1 that check them.

    The full marking-free table, which it no longer builds, holds 131,520
    of the 836,352 moves.
    """
    assert hat_homology(KNOT8, "F2").blocks == {(0, 0): (1, ())}
    assert len(move_table(KNOT8, cls="XO", top_half=True).gens) == 4676
    assert sum(map(len, move_table(KNOT8, cls="XO").moves)) == 131_520
