"""Knot Floer homology of grid diagrams, with a poset laboratory."""

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
    bigrading_with_u,
    determinant_alexander,
    euler_characteristic,
    j_pair,
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
from .signs import SignAssignment, move_sign, solve_signs
from .invariants import (
    AlexanderPolynomial,
    InvarianceReport,
    alexander_polynomial,
    apply_move,
    certify_hat,
    check_invariance,
    fibered,
    genus,
    grid_alexander_polynomial,
    hat_homology,
    legal_moves,
)
from .poset import (
    ELLabel,
    GridPoset,
    alexander_range,
    build_poset,
    components,
    del2_lands_in_boundaries,
    del_tower,
    el_increasing_chain_check,
    el_label,
    interval,
    maximal_chains,
    poset_stats,
    tower_sum,
)

__version__ = "0.1.0"
