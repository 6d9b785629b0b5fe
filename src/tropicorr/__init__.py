"""Exact combinatorics of parameterized tropical curves: obstruction
complexes over Z with base change, fans and stacky lattice data, and the
correspondence counts with full hypothesis checking.

The names below make up the library API.  Each resolves on first use, so
``import tropicorr`` loads no submodule until one of them is read."""

import importlib

# home module -> the names it exports at package level
_HOMES = {
    "exactla": ("CoeffGroup", "FGAbelianGroup", "GroupSize", "Sublattice",
                "cokernel_group"),
    "tropgraph": ("TropicalCurve", "curve", "genus", "modify", "stabilize",
                  "validate"),
    "paramcurve": ("AffineConstraintSet", "ParamTropicalCurve",
                   "check_constraint", "constraint_set", "degree",
                   "edge_geometry", "extend_parameterization", "is_dm",
                   "param_curve", "tropical_j"),
    "complexes": ("ComplexSpec", "compute", "rank", "regularity",
                  "sizes_over"),
    "fanmodel": ("build_K", "gamma_tr", "ramification", "refine_to_fan"),
    "stacky": ("node_stack", "stacky_data"),
    "counting": ("correspondence_count", "elliptic_count", "moduli_dimension",
                 "stacky_multiplier"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
