"""Exact combinatorics of parameterized tropical curves: obstruction
complexes over Z with base change, fans and stacky lattice data, and the
correspondence counts with full hypothesis checking."""

from .exactla import (
    CoeffGroup,
    FGAbelianGroup,
    GroupSize,
    Sublattice,
    base_change,
    cokernel_group,
    kernel_basis,
    snf,
)
from .tropgraph import TropicalCurve, curve, genus, modify, stabilize, validate
from .paramcurve import (
    AffineConstraintSet,
    ParamTropicalCurve,
    check_constraint,
    constraint_set,
    contract_zero_slope,
    degree,
    edge_geometry,
    extend_parameterization,
    param_curve,
    rank,
    tropical_j,
)
from .complexes import (
    ComplexSpec,
    build_matrix,
    compute,
    contraction_transport,
    regularity,
    six_term_check,
    sizes_over,
    subdivision_transport,
)
from .fanmodel import build_K, fan_model, gamma_tr, ramification, refine_to_fan
from .stacky import is_dm, node_stack, stacky_data
from .counting import (
    correspondence_count,
    elliptic_count,
    moduli_dimension,
    reduction_torsor,
    stacky_multiplier,
)

__version__ = "0.1.0"
