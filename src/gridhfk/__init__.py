"""Knot Floer homology of grid diagrams, with a poset laboratory.

Eager: ``errors``, ``grid`` (the grid and its parsers), ``gradings``,
``complexes``, ``homology`` (with ``certify_hat``) and ``linalg`` (F2
rank and the unit pivots over Z) load with the package, since every
command needs them; ``gridhfk.homology`` is the function, not the
submodule.

On first use: the names of ``moves`` (grid moves, symmetries, the text
writer, random grids), ``closed_signs`` (the closed-form signs of the Z
complexes), ``signs`` (the sign solver), ``invariants`` and ``poset``
load when asked for: ``from gridhfk import genus`` imports
``gridhfk.invariants`` then.  ``smith``, the dense Smith core, loads
only when unit pivots leave one.  A command that never asks for these
modules never compiles them.
"""

from __future__ import annotations

from .errors import (
    AsymmetryDetected,
    EmptyInterval,
    GridFormatError,
    IllegalCommutation,
    InexactDivision,
    InvalidDifferential,
    InvalidHomology,
    NonIntegralAlexander,
    NotDestabilizable,
    OverflowGuard,
    ResourceLimit,
    UnsatisfiableSigns,
)
from .grid import Grid, grid_from_json, link_components, parse_grid
from .gradings import (
    alexander,
    bigrading,
    determinant_alexander,
    euler_characteristic,
    maslov,
    top_generators,
)
from .complexes import (
    ChainComplex,
    Rectangle,
    build_minus_complex,
    build_tilde_complex,
    enumerate_generators,
)
from .homology import (
    BigradedRanks,
    certify_hat,
    extract_hat,
    homology,
    poincare_string,
)

# name -> submodule that defines it, imported by ``__getattr__``
_LAZY = {name: module for module, names in (
    ("moves", "Marking apply_symmetry commute destabilize markings "
              "random_knot_grid serialize_grid stabilize"),
    ("closed_signs", "move_sign"),
    ("signs", "SignAssignment solve_signs"),
    ("invariants", "AlexanderPolynomial InvarianceReport alexander_polynomial "
                   "apply_move check_invariance fibered genus "
                   "grid_alexander_polynomial hat_homology legal_moves"),
    ("poset", "Domain ELLabel GridPoset alexander_range build_poset "
              "components connecting_domain del2_lands_in_boundaries "
              "del_tower el_increasing_chain_check el_label interval "
              "maximal_chains poset_stats tower_sum"),
) for name in names.split()}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
