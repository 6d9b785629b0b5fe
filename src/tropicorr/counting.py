"""The enumerative layer: torsor sizes and the exact correspondence counts.

Every function here needs a balanced input and raises NotBalanced
otherwise, even where stabilization would prune the faulty part.
Counts are evaluated on the stabilization and emitted only when every
hypothesis of the corresponding counting theorem holds; outside those
hypotheses the formulas are unproven, so a violated hypothesis is an error
naming the offending flag, never a silent zero.  The hypotheses are checked
in ``CountHypotheses.CHECK_ORDER`` and the first that fails ends the count,
before any complex a later flag reads is built.  So a zero-slope cycle edge
ends an elliptic count at ``no_zero_slope_bounded`` or earlier, while the
(beta, A, j) complex itself (``complex --elliptic``) raises
ZeroSlopeCycleEdge.
"""

from __future__ import annotations

from typing import NamedTuple

from . import complexes as cx
from . import paramcurve as pc
from . import stacky, tropgraph
from .errors import (
    CrossCheckFailed,
    GenusNotOne,
    HypothesisFailed,
    ObstructionNonzero,
)
from .exactla import CoeffGroup, GroupSize, base_change
from .paramcurve import AffineConstraintSet, ParamTropicalCurve


def moduli_dimension(p: ParamTropicalCurve) -> int:
    """Dimension of the base of the reduction torsor: the product of the
    genus-zero moduli at the stabilization's vertices."""
    pc.require_balanced(p)
    p_st = pc.stabilize_param(p)
    return sum(max(tropgraph.valency(p_st.curve, v) - 3, 0)
               for v in p_st.curve.finite_vertices)


def reduction_torsor(p: ParamTropicalCurve,
                     constraints: AffineConstraintSet | None,
                     char_p: int) -> GroupSize:
    """Size of the group acting simply transitively on the (constrained)
    reductions over each point of the moduli base: E^1_{k*} of the
    stabilization.  Requires the k*-obstruction to vanish."""
    pc.require_balanced(p)
    if pc.zero_slope_bounded_count(p):
        raise ObstructionNonzero("zero-slope bounded edges present")
    p_st = pc.stabilize_param(p)
    rep = cx.compute(p_st, cx.ComplexSpec("b", constraints))
    e1, e2 = cx.sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(char_p))
    if not e2.is_trivial:
        raise ObstructionNonzero(f"E2 over k* has size {e2}")
    return e1


def stacky_multiplier(p: ParamTropicalCurve) -> int:
    """Product of the bounded-edge multiplicities of the stabilization: the
    number of stacky structures over each plain reduction."""
    pc.require_balanced(p)
    p_st = pc.stabilize_param(p)
    out = 1
    for e in p_st.curve.bounded_edges():
        out *= pc.edge_geometry(p_st, e.id).multiplicity
    return out


class CountHypotheses(NamedTuple):
    """The flags of a returned count, all True (``elliptic_regular`` is None
    on a plain count): a count raises at the first that fails."""

    trivalent: bool
    satisfies_A: bool
    codim_match: bool
    no_zero_slope_bounded: bool
    char_ok: bool
    regular: bool
    elliptic_regular: bool | None = None

    CHECK_ORDER = ("trivalent", "satisfies_A", "codim_match",
                   "no_zero_slope_bounded", "char_ok", "regular",
                   "elliptic_regular")


class CountResult(NamedTuple):
    count: int
    torsor_order: int        # |E^1_{k*}(Gamma, A)| (elliptic: the full count)
    stacky_factor: int       # product of the bounded-edge multiplicities
    hypotheses: CountHypotheses
    cross_checks: tuple[str, ...]


def _hypotheses(p_st, constraints, char_p, elliptic):
    """Check the hypotheses in CHECK_ORDER and raise HypothesisFailed at the
    first that fails, evaluating no later one.  Satisfaction of the
    constraint is decided before them all, as it rejects bad input;
    simplicity only when ``regular`` reads it.  Returns the all-True record
    and the stacky report over Z the last flag was read from: (beta, A),
    or (beta, A, j) when elliptic; the counts reuse it."""
    problems = pc._satisfaction(p_st, constraints)
    reports = []

    def regular(j):
        reports.append(cx.compute(p_st, cx.ComplexSpec("beta", constraints,
                                                       elliptic=j)))
        return base_change(reports[-1].E2, CoeffGroup.field(char_p),
                           "tensor").is_trivial

    checks = {
        "trivalent": lambda: all(tropgraph.valency(p_st.curve, v) == 3
                                 for v in p_st.curve.finite_vertices),
        "satisfies_A": lambda: not problems,
        "codim_match": lambda: pc.rank(p_st) == constraints.codim + elliptic,
        "no_zero_slope_bounded": lambda: not pc.zero_slope_bounded_count(p_st),
        "char_ok": lambda: stacky.is_dm(p_st, char_p),
        "regular": lambda: (pc._simple(p_st, constraints)
                            and regular(False)),
        "elliptic_regular": lambda: regular(True),
    }
    flags = CountHypotheses.CHECK_ORDER[:None if elliptic else -1]
    for flag in flags:
        if not checks[flag]():
            raise HypothesisFailed(flag)
    return CountHypotheses(**dict.fromkeys(flags, True)), reports[-1]


def correspondence_count(p: ParamTropicalCurve,
                         constraints: AffineConstraintSet,
                         char_p: int = 0) -> CountResult:
    """Number of algebraic curves over a residue field of characteristic
    char_p matching the (stabilized) tropical curve under the constraint:

        |CE^1_{k*}(Gamma, A)| = |E^1_{k*}(Gamma, A)| * prod l(e).

    Three routes must agree: the k*-order law, |E^2(Gamma,A)| times the
    stacky multiplier, and the order of CE^2(Gamma,A) read off the
    invariant factors of the assembled matrix.
    """
    pc.require_balanced(p)
    p_st = pc.stabilize_param(p)
    hyp, ce_rep = _hypotheses(p_st, constraints, char_p, elliptic=False)

    e_rep = cx.compute(p_st, cx.ComplexSpec("b", constraints))
    e1_kstar, _ = cx.sizes_over(e_rep.E1_rank, e_rep.E2,
                                CoeffGroup.units(char_p))
    torsor = e1_kstar.finite_order
    mult = stacky_multiplier(p_st)
    if torsor is None:
        raise CrossCheckFailed("torsor_finite", f"E1 over k* is {e1_kstar}")
    route_kstar = torsor * mult
    route_e2 = e_rep.E2.torsion_order * mult if e_rep.E2.rank == 0 else None
    route_snf = ce_rep.E2.torsion_order if ce_rep.E2.rank == 0 else None
    if not route_kstar == route_e2 == route_snf:
        raise CrossCheckFailed(
            "count_routes",
            f"k* {route_kstar}, E2 {route_e2}, direct SNF {route_snf}")
    checks = (
        f"|E1_kstar| * prod l(e) = {torsor} * {mult} = {route_kstar}",
        f"|E2(Gamma,A)| * prod l(e) = {e_rep.E2.torsion_order} * {mult}",
        f"|CE2(Gamma,A)| by direct SNF = {route_snf}",
    )
    return CountResult(route_snf, torsor, mult, hyp, checks)


def elliptic_count(p: ParamTropicalCurve,
                   constraints: AffineConstraintSet,
                   char_p: int = 0) -> CountResult:
    """Number of elliptic curves with fixed j-invariant matching the
    genus-one tropical curve under the constraint: |CE^1_{k*}(Gamma, A, j)|,
    evaluated as the order of CE^2(Gamma, A, j) and cross-checked against
    the Tor route."""
    if tropgraph.genus(p.curve) != 1:
        raise GenusNotOne(f"genus is {tropgraph.genus(p.curve)}")
    pc.require_balanced(p)
    p_st = pc.stabilize_param(p)
    hyp, rep = _hypotheses(p_st, constraints, char_p, elliptic=True)

    if rep.E2.rank or rep.E1_rank:
        raise CrossCheckFailed(
            "elliptic_finite",
            f"CE(Gamma,A,j): E1 rank {rep.E1_rank}, E2 {rep.E2}")
    route_snf = rep.E2.torsion_order
    # |Tor(CE^2(...,j), k*)|
    route_tor = cx.sizes_over(rep.E1_rank, rep.E2,
                              CoeffGroup.units(char_p))[0].finite_order
    if route_snf != route_tor:
        raise CrossCheckFailed("elliptic_routes",
                               f"direct SNF {route_snf}, Tor {route_tor}")
    checks = (
        f"|CE2(Gamma,A,j)| by direct SNF = {route_snf}",
        f"|CE1_kstar(Gamma,A,j)| via Tor = {route_tor}",
    )
    return CountResult(route_snf, route_snf, 1, hyp, checks)
