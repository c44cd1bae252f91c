"""Exact computations for multiarrangements of lines and planes.

Exponents and bases of derivation modules of 2-multiarrangements,
exhaustive verification of the multiplicity-lattice structure, the
connection-induced shift map, and freeness of central 3-arrangements
through restriction and characteristic polynomials.  All arithmetic is
exact (rationals or prime fields); nothing uses floats.
"""

__version__ = "0.1.0"

from .exactalg import (
    GF,
    QQ,
    BinaryForm,
    FpElement,
    LinearForm2,
    Matrix,
    PrimeField,
    RationalField,
    binary_form_divides,
    divisibility_constraints,
)
from .multiarr2 import (
    Arrangement2,
    Derivation2,
    Exponents2,
    basis,
    defining_form,
    exponents,
    is_balanced,
    lower_degree_basis,
    nonbalanced_exponents,
    saito_criterion,
    saito_det,
    untangent_forms,
)
from .lattice import (
    ComponentReport,
    ComponentTag,
    LatticeClassification,
    LatticeRegion,
    classify,
    component_of,
    lattice_distance,
    verify_lemma_one,
    verify_theorem_limit,
    verify_theorem_str,
)
from .shift import (
    ShiftCertificate,
    is_am_euler,
    nabla,
    nabla_descent_check,
    proposition_next_check,
    shift_isomorphism_check,
)
from .arr3 import (
    AffineArrangement2,
    Arrangement3,
    CharPoly,
    FreenessVerdict,
    chamber_count,
    char_poly,
    cone,
    decone,
    intersection_lattice,
    is_free,
    pb3_membership,
    thm_fc_check,
    thm_rest2_check,
    thm_rest_check,
    ziegler_restriction,
)
