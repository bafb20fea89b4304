"""latslice: exact-arithmetic lattice models of bundle modifications on the
projective line, the block-matrix slice correspondence, minuscule tensor
combinatorics, and finite-field fiber counting."""

from .countlab import (
    CountReport,
    FiberQuery,
    count_chain_fiber,
    count_slice_fiber,
    fit_q_polynomial,
    step_choices,
    verify_suite,
)
from .fields import GF, QQ, Field
from .lattice import (
    ColouredDivisor,
    HeckeType,
    Lattice,
    LatticeChain,
    colength,
    contains,
    divisor_of_pair,
    factorize,
    hecke_type_at,
    intersect,
    lattice_sum,
    quotient_basis_trivial,
    splitting_type,
    standard_lattice,
    validate_chain,
)
from .poly import Poly, poly_gcd
from .polymatrix import (
    PolyMatrix,
    column_reduce,
    det,
    hermite_basis,
    invariant_factors,
    is_unimodular,
    smith_normal_form,
)
from .reptheory import (
    Partition,
    WeightSeq,
    dominance_leq,
    dual_weight,
    gaussian_binomial,
    invariant_dim,
    pieri_add,
    root_lattice_check,
)
from .slicecorr import (
    Flag,
    SliceMatrix,
    SlicePoint,
    base_point,
    chain_to_slice,
    slice_to_chain,
    validate_point,
)

__version__ = "0.1.0"
