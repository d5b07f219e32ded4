"""Package surface: the exported names and the contracts of the value classes."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gridhfk
from gridhfk import (
    AlexanderPolynomial,
    BigradedRanks,
    Grid,
    GridFormatError,
    Marking,
    Rectangle,
    homology,
)
from gridhfk.complexes import ChainComplex

# Every name ``gridhfk/__init__.py`` exported when all of its submodules
# loaded with the package.
PUBLIC = """
    AsymmetryDetected EmptyInterval GridFormatError IllegalCommutation
    InexactDivision InvalidDifferential InvalidHomology NonIntegralAlexander
    NotDestabilizable OverflowGuard ResourceLimit UnsatisfiableSigns
    Grid Marking apply_symmetry commute destabilize grid_from_json
    link_components markings parse_grid random_knot_grid serialize_grid
    stabilize
    alexander bigrading determinant_alexander euler_characteristic maslov
    top_generators
    ChainComplex Domain Rectangle build_minus_complex build_tilde_complex
    connecting_domain enumerate_generators
    BigradedRanks extract_hat homology poincare_string
    SignAssignment move_sign solve_signs
    AlexanderPolynomial InvarianceReport alexander_polynomial apply_move
    certify_hat check_invariance fibered genus grid_alexander_polynomial
    hat_homology legal_moves
    ELLabel GridPoset alexander_range build_poset components
    del2_lands_in_boundaries del_tower el_increasing_chain_check el_label
    interval maximal_chains poset_stats tower_sum
    __version__
""".split()


@pytest.mark.parametrize("name", PUBLIC)
def test_every_exported_name_still_imports(name):
    namespace: dict = {}
    exec(f"from gridhfk import {name}", namespace)
    assert namespace[name] is getattr(gridhfk, name)
    assert name in dir(gridhfk)


def test_package_homology_is_the_function():
    assert callable(gridhfk.homology) and gridhfk.homology is homology
    assert gridhfk.homology.__module__ == "gridhfk.homology"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gridhfk.no_such_name  # noqa: B018


def test_lazy_names_load_their_module_on_first_use():
    code = ("import sys, gridhfk\n"
            "lazy = ('gridhfk.moves', 'gridhfk.closed_signs', 'gridhfk.signs',\n"
            "        'gridhfk.smith', 'gridhfk.invariants', 'gridhfk.poset')\n"
            "print([m in sys.modules for m in lazy])\n"
            "gridhfk.genus\n"
            "print([m in sys.modules for m in lazy])\n"
            "gridhfk.connecting_domain\n"
            "print([m in sys.modules for m in lazy])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[False, False, False, False, False, False]",
        "[True, False, False, False, True, False]",
        "[True, False, False, False, True, True]"]


# ------------------------------------------------------------ value classes

def test_equal_grids_hash_equal_and_stay_immutable():
    a = Grid(5, (0, 1, 2, 3, 4), (2, 3, 4, 0, 1))
    b = Grid(5, tuple([0, 1, 2, 3, 4]), tuple([2, 3, 4, 0, 1]))
    c = Grid(5, (0, 1, 2, 3, 4), (3, 4, 0, 1, 2))
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and a != (5, a.x_cols, a.o_cols)
    assert repr(a) == "Grid(n=5, x_cols=(0, 1, 2, 3, 4), o_cols=(2, 3, 4, 0, 1))"
    with pytest.raises(AttributeError):
        a.n = 6
    with pytest.raises(AttributeError):
        del a.x_cols


@pytest.mark.parametrize("args,message", [
    ((1, (0,), (0,)), "grid size must be at least 2, got 1"),
    ((3, (0, 1), (1, 2, 0)), "X row count 2 does not match size 3"),
    ((3, (0, 1, 2), (1, 1, 0)),
     "O columns [1, 1, 0] are not a permutation of 0..2"),
    ((3, (0, 1, 2), (1, 0, 2)), "row 2: X and O share the cell in column 2"),
])
def test_bad_grids_raise_grid_format_error(args, message):
    with pytest.raises(GridFormatError) as err:
        Grid(*args)
    assert str(err.value) == message


def test_marking_is_a_named_triple():
    m = Marking("O", 2, 3)
    assert (m.kind, m.row, m.col, m.position) == ("O", 2, 3, (3.5, 2.5))
    assert m == Marking("O", 2, 3) != Marking("X", 2, 3)


def test_rectangle_equality_ignores_the_marking_rows():
    a = Rectangle(5, 1, 2, 3, 1, (2,), ())
    b = Rectangle(5, 1, 2, 3, 1, (), (2,))
    assert a == b and hash(a) == hash(b)
    assert a != Rectangle(5, 1, 2, 3, 2, (2,), ())
    assert a != Rectangle(6, 1, 2, 3, 1, (2,), ())
    assert (a.key, a.top, a.id) == ((1, 2, 3, 1), 3, ((1 * 5 + 2) * 4 + 2) * 4)


def test_bigraded_ranks_compare_by_ring_and_blocks():
    blocks = {(0, 0): (1, ()), (1, 1): (0, (2,))}
    a = BigradedRanks("Z", blocks)
    assert a == BigradedRanks("Z", dict(blocks))
    assert a != BigradedRanks("F2", dict(blocks))
    assert a != BigradedRanks("Z", {(0, 0): (1, ())})
    with pytest.raises(TypeError):
        hash(a)


def test_alexander_polynomials_compare_by_coefficients_and_flag():
    coeffs = ((1, 1), (0, -1), (-1, 1))
    p = AlexanderPolynomial(coeffs)
    assert p == AlexanderPolynomial(coeffs, mod2=False)
    assert hash(p) == hash(AlexanderPolynomial(coeffs))
    assert p != AlexanderPolynomial(coeffs, mod2=True)
    assert p != AlexanderPolynomial(((1, 1), (0, 1), (-1, 1)))
    assert str(p) == "t - 1 + t^-1"


def test_chain_complex_is_unhashable():
    cx = ChainComplex("F2", "tilde", [(0, 1)], [(0, 0)], [[]])
    with pytest.raises(TypeError):
        hash(cx)


def test_no_assert_statements_in_the_package():
    """Invariants raise typed errors from ``errors.py``: ``python -O``
    strips ``assert`` statements, and the check with them."""
    found = []
    for path in sorted(Path(gridhfk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
