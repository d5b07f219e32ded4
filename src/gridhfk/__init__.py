"""Knot Floer homology of grid diagrams, with a poset laboratory.

The errors, grids, gradings, complexes and homology load with the
package, since every command needs them; ``gridhfk.homology`` is the
function, not the submodule.  The names of ``signs``, ``invariants`` and
``poset`` load on first use: ``from gridhfk import genus`` imports
``gridhfk.invariants`` then, and a command that never asks for them never
compiles those modules.
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
from .grid import (
    Grid,
    Marking,
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
    Domain,
    Rectangle,
    build_minus_complex,
    build_tilde_complex,
    connecting_domain,
    enumerate_generators,
)
from .homology import BigradedRanks, extract_hat, homology, poincare_string

# name -> submodule that defines it, imported by ``__getattr__``
_LAZY = {name: module for module, names in (
    ("signs", "SignAssignment move_sign solve_signs"),
    ("invariants", "AlexanderPolynomial InvarianceReport alexander_polynomial "
                   "apply_move certify_hat check_invariance fibered genus "
                   "grid_alexander_polynomial hat_homology legal_moves"),
    ("poset", "ELLabel GridPoset alexander_range build_poset components "
              "del2_lands_in_boundaries del_tower el_increasing_chain_check "
              "el_label interval maximal_chains poset_stats tower_sum"),
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
