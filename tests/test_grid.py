"""Grid model: parsing, validation, components, symmetries, moves."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import knot_grids
from gridhfk.errors import GridFormatError, IllegalCommutation, NotDestabilizable
from gridhfk.grid import (
    Grid,
    apply_symmetry,
    commute,
    destabilize,
    grid_from_json,
    link_components,
    markings,
    parse_grid,
    random_knot_grid,
    serialize_grid,
    stabilize,
)

UNKNOT2 = Grid(2, (0, 1), (1, 0))
# Two disjoint unknots in diagonal 2x2 blocks.
SPLIT4 = Grid(4, (0, 1, 2, 3), (1, 0, 3, 2))


def test_parse_round_trip():
    text = "5\nX: 0 1 2 3 4\nO: 2 3 4 0 1\n"
    g = parse_grid(text)
    assert g.n == 5
    assert g.x_cols == (0, 1, 2, 3, 4)
    assert serialize_grid(g) == text
    assert parse_grid(serialize_grid(g)) == g


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_grids(max_n=8))
def test_text_and_json_forms_round_trip(g):
    assert parse_grid(serialize_grid(g)) == g
    assert grid_from_json(json.dumps(g.to_json_dict())) == g


def test_parse_inline():
    g = parse_grid("2;X=0,1;O=1,0")
    assert g == UNKNOT2


@pytest.mark.parametrize("text,fragment", [
    ("2\nX: 0 1\n", "3 non-empty lines"),
    ("two\nX: 0 1\nO: 1 0\n", "not an integer"),
    ("2\nX: 0 0\nO: 1 0\n", "not a permutation"),
    ("2\nX: 0 1 1\nO: 1 0\n", "expected 2 columns"),
    ("2\nX: 0 2\nO: 1 0\n", "out of range"),
    ("2\nX: 0 1\nO: 0 1\n", "share the cell"),
    ("1\nX: 0\nO: 0\n", "at least 2"),
    ("2;X=0,1", "3 ';'-separated fields"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GridFormatError) as err:
        parse_grid(text)
    assert fragment in str(err.value)


def test_markings_count_and_positions():
    ms = markings(UNKNOT2)
    assert len(ms) == 4
    xs = [m for m in ms if m.kind == "X"]
    assert xs[0].position == (0.5, 0.5)
    assert xs[1].position == (1.5, 1.5)


def test_link_components():
    assert link_components(UNKNOT2) == 1
    assert link_components(SPLIT4) == 2
    # Hopf-link style 4x4 torus grid: x and o offset by 2 with gcd 2.
    hopf = Grid(4, (0, 1, 2, 3), (2, 3, 0, 1))
    assert link_components(hopf) == 2


def test_symmetry_group_relations():
    rng = random.Random(11)
    for _ in range(20):
        g = random_knot_grid(5, rng)
        assert apply_symmetry(apply_symmetry(g, "R90"), "R90") == apply_symmetry(g, "R180")
        assert apply_symmetry(apply_symmetry(g, "R180"), "R180") == g
        assert apply_symmetry(apply_symmetry(g, "R90"), "R270") == g
        assert apply_symmetry(apply_symmetry(g, "Rh"), "Rh") == g
        assert apply_symmetry(apply_symmetry(g, "Rv"), "Rv") == g
        for name in ("R90", "R180", "R270", "Rh", "Rv"):
            assert link_components(apply_symmetry(g, name)) == 1


def test_commute_unlinked_pairs():
    # Rows 0 and 1 of this grid hold markings in columns (0,2) and (3,4):
    # disjoint arcs, so commuting is legal.
    g = Grid(5, (0, 3, 1, 2, 4), (2, 4, 3, 0, 1))
    h = commute(g, "row", 0)
    assert h.x_cols == (3, 0, 1, 2, 4)
    assert h.o_cols == (4, 2, 3, 0, 1)
    assert commute(h, "row", 0) == g
    assert link_components(h) == link_components(g)


def test_commute_rejects_interleaving():
    # Rows 0 and 1 hold markings in columns (0,2) and (1,4): interleaved.
    g = Grid(5, (0, 1, 2, 3, 4), (2, 4, 3, 0, 1))
    with pytest.raises(IllegalCommutation):
        commute(g, "row", 0)


def test_commute_rejects_shared_column():
    g = Grid(5, (0, 3, 1, 2, 4), (3, 4, 0, 1, 2))
    with pytest.raises(IllegalCommutation) as err:
        commute(g, "row", 0)
    assert "share" in str(err.value)


def test_commute_wraps_cyclically():
    rng = random.Random(5)
    hits = 0
    for _ in range(50):
        g = random_knot_grid(5, rng)
        try:
            h = commute(g, "row", 4)  # rows 4 and 0
        except IllegalCommutation:
            continue
        hits += 1
        assert h.x_cols[4] == g.x_cols[0] and h.x_cols[0] == g.x_cols[4]
        assert link_components(h) == 1
    assert hits > 0


def test_commute_columns():
    rng = random.Random(7)
    done = 0
    for _ in range(60):
        g = random_knot_grid(5, rng)
        for c in range(5):
            try:
                h = commute(g, "col", c)
            except IllegalCommutation:
                continue
            done += 1
            assert commute(h, "col", c) == g
            assert link_components(h) == 1
    assert done > 20


def test_stabilize_variants_all_valid():
    rng = random.Random(3)
    for _ in range(10):
        g = random_knot_grid(4, rng)
        for row in range(4):
            for variant in "abcd":
                h = stabilize(g, row, variant)
                assert h.n == 5
                assert link_components(h) == 1


def test_stabilize_then_destabilize_is_identity():
    rng = random.Random(4)
    for _ in range(10):
        g = random_knot_grid(5, rng)
        for row in (0, 2, 4):
            for variant in "abcd":
                h = stabilize(g, row, variant)
                back = destabilize(h, row, g.x_cols[row])
                assert back == g, (g, row, variant)


def test_stabilize_c_d_are_r180_of_a_b():
    rng = random.Random(9)
    for _ in range(10):
        g = random_knot_grid(4, rng)
        for row in range(4):
            for v_new, v_old in (("c", "a"), ("d", "b")):
                rot = apply_symmetry(g, "R180")
                built = apply_symmetry(stabilize(rot, g.n - 1 - row, v_old), "R180")
                assert built == stabilize(g, row, v_new), (g, row, v_new)


def test_destabilize_rejects_unknot2():
    with pytest.raises(NotDestabilizable):
        destabilize(UNKNOT2, 0, 0)


def test_destabilize_rejects_plain_corner():
    g = Grid(3, (0, 1, 2), (2, 0, 1))
    # Corner (0,0) is a genuine stabilization picture and collapses to the
    # unknot; the other corners hold a single X and must be rejected.
    assert destabilize(g, 0, 0) == UNKNOT2
    for row, col in ((0, 1), (1, 0)):
        with pytest.raises(NotDestabilizable):
            destabilize(g, row, col)
    with pytest.raises(NotDestabilizable):
        destabilize(g, 0, 2)  # would need wrap-around


def test_random_grid_is_knot():
    rng = random.Random(0)
    for n in (2, 3, 4, 5, 6):
        g = random_knot_grid(n, rng)
        assert g.n == n
        assert link_components(g) == 1
