"""Simplicial support complexes and exact Betti numbers for monomial ideal squares."""

from .complexes import (
    SimplicialComplex,
    f_vector,
    quasi_forest_order,
)
from .homology import (
    DEFAULT_LIMITS,
    HomologyLimits,
    PrimeField,
    RATIONALS,
    RationalField,
    ResourceLimit,
    parse_field,
)
from .l2 import (
    BoundTable,
    DeletionRecord,
    bound_table,
    deletion_face_bound,
    l2_of_ideal,
    l2_skeleton,
    pairs_of,
    skeleton_face_bound,
    taylor_face_bound,
)
from .labeled import (
    BettiTable,
    LabeledComplex,
    NotQuasiForest,
    SupportReport,
    UnsupportedComplex,
    betti_numbers,
    supports_resolution_homological,
    supports_resolution_quasitree,
    taylor_complex,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    ParseError,
    VariableMismatch,
    VariableTable,
    format_ideal,
    format_monomial,
    lcm_lattice,
    minimalize,
    parse_generators,
    parse_ideal,
    parse_monomial,
)

__version__ = "0.1.0"
