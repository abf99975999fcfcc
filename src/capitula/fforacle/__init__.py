"""Brute-force ground truth over function fields: places of F_q(t),
Artin-Schreier and Kummer covers, zeta functions, and certified divisor
class groups with Galois action."""

from .corpus import CorpusEntry, corpus, corpus_entry
from .curves import (
    BasePlace,
    Cover,
    INFINITE,
    LocalData,
    RamifiedPlace,
    as_reduce,
    curve_from_json,
    curve_to_json,
    genus,
    local_invariants,
    parse_base_place,
    ramification_data,
    splitting,
)
from .gf import GF, extension
from .picard import (
    OracleConfig,
    PicardData,
    PlaceAbove,
    SClassGroup,
    base_class_number,
    capitulation_kernel_order,
    check_s_bases,
    delta_prime,
    galois_invariants,
    invariants_of,
    picard_group,
    profile_and_s_classes,
    realize_profile,
    s_class_group,
    strongly_ambiguous_order,
)
from .poly import Poly, RationalFunc, monic_irreducibles, parse_poly, render_poly
from .zeta import base_change, count_points, l_polynomial, zeta_functional_equation_holds
