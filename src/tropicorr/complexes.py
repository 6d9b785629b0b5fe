"""The obstruction complexes of a parameterized tropical curve.

Both complexes map the domain (sum over finite vertices v of N, coordinates
x_v) + (one y_e per bounded edge e of nonzero primitive slope s_e) to the
sum over bounded edges of N.  The n rows of an edge init -> target, in its
default orientation, are x_target - x_init + coef s_e y_e, with coef = 1 in
the plain variant (E) and l(e) in the stacky one (CE); a loop has no x
terms.  E^1/E^2 (resp. CE^1/CE^2) are the kernel and cokernel.  Constraint
i appends P_i x_v, P_i presenting N -> N/L_i at its vertex v; the elliptic
augmentation appends one row summing the y_e of the cycle.

``compute`` checks balancing and satisfaction, then reduces over Z in tree
coordinates (``_reduce``) on the curve's frame (``_frame``); a count or
``regularity`` builds one frame for all its complexes.  The spanning forest
of the bounded edges (``bounded_forest``) is rooted at the first finite
vertex; each tree edge's n rows hold +-1 on its child's x columns, so the
unimodular substitution x_child = x_parent -+ coef s_e y_e turns them into
n(|V| - 1) unit rows, invariant factors 1 with no elimination.  The frame
holds each vertex's signed tree path to the root, and only the rows that can
carry an obstruction reach ``invariant_factors``: per non-tree edge and
coordinate k, its own y entry and +-coef s_e[k] on its fundamental cycle
(its ends' paths subtracted); per constraint row a, a on x_root and +-coef
<a, s_e> along its vertex's path; the j-row.  That is n g + sum corank L_i
(+1) rows, none for an unconstrained genus-0 curve; the unit rows enter
only the row count.  The dense full matrix (``ComplexReport.matrix``) is
assembled only when read, and nothing in the library reads it.  A
coefficient group enters only at the final base change, ``sizes_over``:
E^1_G and E^2_G for the counts, E^2_G for the regularity verdicts.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import paramcurve as pc
from .errors import ConstraintUnsatisfied, NonUnitMultiplicity, ZeroSlopeCycleEdge
from .exactla import (
    CoeffGroup,
    FGAbelianGroup,
    GroupSize,
    Mat,
    Record,
    cokernel_group,
)
from .paramcurve import AffineConstraintSet, ParamTropicalCurve


class ComplexSpec(Record):
    _fields = ("variant", "constraints", "elliptic")  # "b" -> E, "beta" -> CE

    def __init__(self, variant: str = "beta",
                 constraints: AffineConstraintSet | None = None,
                 elliptic: bool = False):
        if variant not in ("b", "beta"):
            raise ValueError("variant must be 'b' or 'beta'")
        self.__dict__.update(variant=variant, constraints=constraints,
                             elliptic=elliptic)


def _frame(p: ParamTropicalCurve):
    """What every complex of a balanced curve shares: the domain's
    dimension; the y column of each bounded edge of nonzero slope, by id;
    the edges off the tree as (init, target, y column or None); each finite
    vertex's tree path, leaf first, as (y column, sign) per step where
    x_v = x_parent + sign coef s_e y_e; the number of tree edges; and per
    variant, coef s_e by y column."""
    n, bounded = p.lattice_rank, p.curve.bounded_edges()
    geo = {e.id: g for e in bounded if (g := pc.edge_geometry(p, e.id)).slope}
    start = n * len(p.curve.finite_vertices)
    ycol = dict(zip(geo, range(start, start + len(geo))))
    weights = {"b": {ycol[eid]: g.slope for eid, g in geo.items()}, "beta": {
        ycol[eid]: tuple(g.multiplicity * s for s in g.slope)
        for eid, g in geo.items()}}
    paths, tree = {}, set()
    for v, link in p.curve.bounded_forest.items():      # parents first
        paths[v] = ()
        if link is not None:
            parent, e = link
            tree.add(e.id)
            c, sign = ycol.get(e.id), -1 if pc._orient(e)[1] == v else 1
            paths[v] = paths[parent] if c is None else (
                (c, sign),) + paths[parent]
    off_tree = [(*pc._orient(e), ycol.get(e.id)) for e in bounded
                if e.id not in tree]
    return start + len(geo), ycol, off_tree, paths, len(tree), weights


def _spec_part(p: ParamTropicalCurve, spec: ComplexSpec, ycol, weights):
    """The spec's checks after satisfaction, in order; then each constraint
    as (vertex, P_i), the variant's weights and the j-row's columns."""
    constraints = []
    if spec.constraints is not None:
        constraints = [(vfin, con.presentation) for (_, vfin), con in zip(
            pc.marked_pairs(p, len(spec.constraints)), spec.constraints.items)]
    cycle = ()
    if spec.elliptic:
        heavy = [f"edge {e.id} has l(e) = {m}" for e in p.curve.bounded_edges()
                 if (m := pc.edge_geometry(p, e.id).multiplicity) > 1]
        if spec.variant == "b" and heavy:
            raise NonUnitMultiplicity("elliptic plain variant needs unit "
                                      "multiplicities; " + ", ".join(heavy))
        cycle = [e.id for e in pc.tropgraph.cycle_edges(p.curve)]
        for eid in cycle:
            if pc.edge_geometry(p, eid).slope is None:
                raise ZeroSlopeCycleEdge(f"cycle edge {eid} has zero slope")
    return constraints, weights[spec.variant], sorted(ycol[e] for e in cycle)


class ComplexReport(Record):
    """The complex over Z (E1_rank, E2) from one transform-free reduction
    of its tree-reduced rows; ``sizes_over`` base-changes it to any
    coefficient group.  n_rows and domain_dim give the full matrix's shape.
    Equality and repr leave out the source curve, which only ``matrix``
    reads."""

    _fields = ("spec", "domain_dim", "n_rows", "E1_rank", "E2")

    def __init__(self, source: ParamTropicalCurve, spec: ComplexSpec,
                 domain_dim: int, n_rows: int, E1_rank: int,
                 E2: FGAbelianGroup):
        self.__dict__.update(source=source, spec=spec, domain_dim=domain_dim,
                             n_rows=n_rows, E1_rank=E1_rank, E2=E2)

    @property
    def matrix(self) -> Mat:
        """The full matrix, dense, assembled from the source curve on each
        read.  Nothing in the library reads it; the benchmark's tracer
        (``bench/tracing.py``) keys each traced ``compute`` by it."""
        p, n = self.source, self.source.lattice_rank
        dim, ycol, _, _, _, weights = _frame(p)
        constraints, weight, jrow = _spec_part(p, self.spec, ycol, weights)
        vcol = {v: n * i for i, v in enumerate(p.curve.finite_vertices)}
        rows = []
        for e in p.curve.bounded_edges():
            init, target = pc._orient(e)
            for k in range(n):
                row = [0] * dim
                row[vcol[init] + k] -= 1
                row[vcol[target] + k] += 1      # so a loop has no x terms
                if e.id in ycol:
                    row[ycol[e.id]] = weight[ycol[e.id]][k]
                rows.append(row)
        for vfin, proj in constraints:
            for a in proj:
                rows.append([0] * dim)
                rows[-1][vcol[vfin]:vcol[vfin] + n] = a
        if jrow:
            rows.append([int(j in jrow) for j in range(dim)])
        return tuple(map(tuple, rows))


def _size(free_rank: int = 0, kdim: int = 0, order: int = 1) -> GroupSize:
    return GroupSize(free_rank, kdim, None if free_rank or kdim else order)


def sizes_over(e1_rank: int, e2: FGAbelianGroup, g: CoeffGroup):
    """(E^1_G, E^2_G) sizes via the universal-coefficient sequence
    0 -> E^1 (x) G -> E^1_G -> Tor(E^2, G) -> 0 and E^2_G = E^2 (x) G,
    read off E^2's canonical form (E^1 is free).  Tor(-, Z) = Tor(-, Q) = 0
    and Z/d (x) Q = 0; Z/d (x) k = Tor(Z/d, k) = k when p | d, else 0;
    Z/d (x) k* = 0 (k* is divisible) and Tor(Z/d, k*) = mu_d, of order
    the prime-to-p part of d."""
    if g.kind == "Z":
        return _size(e1_rank), _size(e2.rank, order=e2.torsion_order)
    if g.kind == "kstar":
        mu = e2.torsion_order
        while g.p and mu % g.p == 0:
            mu //= g.p
        return _size(e1_rank, order=mu), _size(e2.rank)
    t = sum(d % g.p == 0 for d in e2.torsion) if g.kind == "field" and g.p else 0
    return _size(kdim=e1_rank + t), _size(kdim=e2.rank + t)


def _check(p: ParamTropicalCurve, constraints: AffineConstraintSet | None):
    """``compute``'s checks before its reduction, in order: balancing, then
    satisfaction of the constraint."""
    pc.require_balanced(p)
    if constraints and (problems := pc._unsatisfied(p, constraints)):
        raise ConstraintUnsatisfied("; ".join(problems))


def compute(p: ParamTropicalCurve, spec: ComplexSpec) -> ComplexReport:
    _check(p, spec.constraints)
    return _reduce(p, _frame(p), spec)


def _reduce(p: ParamTropicalCurve, frame, spec: ComplexSpec) -> ComplexReport:
    """The complex of spec on p's frame, p having passed ``_check``."""
    dim, ycol, off_tree, paths, n_tree, weights = frame
    constraints, weight, jrow = _spec_part(p, spec, ycol, weights)
    n, rows = p.lattice_rank, []
    for init, target, own in off_tree:
        cycle = dict(paths[target])     # the fundamental cycle, signed
        for col, s in paths[init]:
            cycle[col] = cycle.get(col, 0) - s
        if own is not None:
            cycle[own] = 1
        rows += ({col: m * weight[col][k] for col, m in cycle.items()
                  if m and weight[col][k]} for k in range(n))
    for vfin, proj in constraints:
        for a in proj:
            row = {k: x for k, x in enumerate(a) if x}      # on x_root
            for col, m in paths[vfin]:
                if x := m * sum(map(mul, a, weight[col])):
                    row[col] = x
            rows.append(row)
    if jrow:
        rows.append(dict.fromkeys(jrow, 1))
    e2 = cokernel_group(rows)
    # rank-nullity, the full matrix adding n unit rows per tree edge
    n_rows = len(rows) + n * n_tree
    return ComplexReport(p, spec, dim, n_rows, dim - (n_rows - e2.rank), e2)


class RegularityVerdict(NamedTuple):
    g_regular: bool
    elliptically_regular: bool | None
    obstruction: GroupSize


def regularity(p: ParamTropicalCurve, constraints: AffineConstraintSet | None,
               group: CoeffGroup, elliptic: bool = False) -> RegularityVerdict:
    """G-regularity is the vanishing of the stacky obstruction CE^2_G; the
    elliptic variant asks the same of the j-augmented complex."""
    _check(p, constraints)
    frame = _frame(p)
    ce = _reduce(p, frame, ComplexSpec("beta", constraints))
    obstruction = sizes_over(ce.E1_rank, ce.E2, group)[1]
    if not elliptic:
        return RegularityVerdict(obstruction.is_trivial, None, obstruction)
    ce_j = _reduce(p, frame, ComplexSpec("beta", constraints, elliptic=True))
    ell = sizes_over(ce_j.E1_rank, ce_j.E2, group)[1]
    return RegularityVerdict(obstruction.is_trivial, ell.is_trivial, ell)
