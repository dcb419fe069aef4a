"""Workbench for the filter calculus of MV-algebras.

Finite algebras are handled exhaustively (elements as indices, subsets as
bitmasks); the dense rational chain is handled symbolically with exact
Fraction endpoints.  See the README for the calculus itself.
"""

from .core import (
    AxiomReport,
    MvAlgebra,
    QuotientAlgebra,
    check_mv_axioms,
    congruence_cosets,
    is_linear,
    iter_mask,
    make_lukasiewicz_chain,
    make_product,
    mask_of,
    quotient_by,
)
from .errors import InvalidArgument, InvariantViolation, MvError, ResourceLimit
from .filters import (
    enumerate_implication_filters,
    enumerate_lattice_filters,
    enumerate_up_sets,
    implication_filter_generated,
    is_implication_filter,
    is_lattice_filter,
    is_prime_implication_filter,
    is_prime_lattice_filter,
    is_up_closed,
    principal_generator,
    successor_structure,
    up_closure,
)
from .calculus import (
    boundary_coset,
    is_convex,
    j_down,
    j_up,
    kernel,
    kernel_rel,
    phi,
    set_plus,
    sqto,
    sqto_fast,
    sqto_full,
    subordinate,
    tensor_up,
)
from .spectra import (
    HatAlgebra,
    PrimeSpectrum,
    build_hat,
    hat_eta,
    hat_otimes,
    iota,
    prime_spectrum,
)
from .densechain import (
    BOTTOM_FILTER,
    TOP,
    Cut,
    Kind,
    closed_cut,
    cut_plus,
    cut_sqto,
    open_cut,
    oracle_plus,
    oracle_sqto,
)
from .verify import Report, StatementResult, run_dense, run_finite

__all__ = [name for name in dir() if not name.startswith("_")]
