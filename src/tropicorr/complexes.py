"""The obstruction complexes of a parameterized tropical curve.

Both complexes map the domain (sum over finite vertices v of N, coordinates
x_v) + (one y_e per bounded edge e of nonzero primitive slope s_e) to the
sum over bounded edges of N.  The n rows of an edge init -> target, in its
default orientation, are x_target - x_init + coef s_e y_e, with coef = 1 in
the plain variant (E) and l(e) in the stacky one (CE); a loop has no x
terms.  E^1/E^2 (resp. CE^1/CE^2) are the kernel and cokernel.  Constraint
i appends P_i x_v, P_i presenting N -> N/L_i at its vertex v; the elliptic
augmentation appends one row summing the y_e of the cycle.

``compute`` reduces over Z in tree coordinates, on the curve's frame
(``_frame``), built once and shared by the complexes of a count.  The
spanning forest of the bounded edges (``bounded_forest``) is rooted at the
first finite vertex; each tree edge's n rows hold +-1 on its child's x
columns, so the unimodular substitution x_child = x_parent -+ coef s_e y_e
turns them into n(|V| - 1) unit rows, invariant factors 1 with no
elimination.  The frame holds each vertex's signed tree path to the root,
and only the rows that can carry an obstruction reach ``invariant_factors``:
per non-tree edge and coordinate k, its own y entry and +-coef s_e[k] on
its fundamental cycle (its ends' paths subtracted); per constraint row a,
a on x_root and +-coef <a, s_e> along its vertex's path; the j-row.  That
is n g + sum corank L_i (+1) rows, none for an unconstrained genus-0
curve.  The full rows (``_assemble``, from the frame's layout, edges and
weights, never its paths) and the dense matrix are built only when read.
A coefficient group enters only at the final base change, ``sizes_over``
for E^1_G and E^2_G and ``base_change`` for the regularity verdicts.
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
    base_change,
    cokernel_group,
    combine_sizes,
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


class ComplexLayout(NamedTuple):
    """Index bookkeeping for the assembled matrix."""

    vertices: tuple[str, ...]       # finite vertices, column blocks of width n
    slope_edges: tuple[str, ...]    # bounded edges with nonzero slope, one column each
    n: int

    @property
    def domain_dim(self) -> int:
        return self.n * len(self.vertices) + len(self.slope_edges)


def _frame(p: ParamTropicalCurve):
    """What every complex of a balanced curve shares: the layout; each
    bounded edge as (id, init, target, y column or None at zero slope); the
    edges off the tree; each finite vertex's tree path, leaf first, as
    (y column, sign) per step where x_v = x_parent + sign coef s_e y_e; and
    per variant, coef s_e by y column."""
    n, bounded = p.lattice_rank, p.curve.bounded_edges()
    geo = {e.id: g for e in bounded if (g := pc.edge_geometry(p, e.id)).slope}
    layout = ComplexLayout(tuple(p.curve.finite_vertices), tuple(geo), n)
    col = dict(zip(geo, range(n * len(layout.vertices), layout.domain_dim)))
    weights = {"b": {col[eid]: g.slope for eid, g in geo.items()}, "beta": {
        col[eid]: tuple(g.multiplicity * s for s in g.slope)
        for eid, g in geo.items()}}
    edges = tuple((e.id, *pc._orient(e), col.get(e.id)) for e in bounded)
    paths, tree = {}, set()
    for v, link in p.curve.bounded_forest.items():      # parents first
        paths[v] = ()
        if link is not None:
            parent, e = link
            tree.add(e.id)
            c, sign = col.get(e.id), -1 if pc._orient(e)[1] == v else 1
            paths[v] = paths[parent] if c is None else (
                (c, sign),) + paths[parent]
    off_tree = [e for e in edges if e[0] not in tree]
    return layout, edges, off_tree, paths, weights


def _spec_part(p: ParamTropicalCurve, spec: ComplexSpec, edges, weights):
    """The spec's checks after balancing, in order; then each constraint as
    (vertex, P_i), the variant's weights and the j-row's columns."""
    constraints = []
    if spec.constraints is not None:
        # the count's last verdict, so a count decides it once
        if problems := pc._last_satisfaction(p, spec.constraints):
            raise ConstraintUnsatisfied("; ".join(problems))
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
    return constraints, weights[spec.variant], sorted(
        c for e, _, _, c in edges if e in cycle)


def _assemble(p: ParamTropicalCurve, spec: ComplexSpec):
    """The full rows, each the sorted tuple of its nonzeros (col, value)."""
    layout, edges, _, _, weights = _frame(p)  # compute checked balancing
    constraints, weight, jrow = _spec_part(p, spec, edges, weights)
    vcol = {v: layout.n * i for i, v in enumerate(layout.vertices)}
    rows = []
    for _, init, target, col in edges:
        ends = (sorted(((vcol[init], -1), (vcol[target], 1)))
                if init != target else ())
        for k in range(layout.n):
            row = [(c + k, s) for c, s in ends]
            if col is not None and weight[col][k]:
                row.append((col, weight[col][k]))
            rows.append(tuple(row))
    for vfin, proj in constraints:
        rows.extend(tuple((vcol[vfin] + k, x) for k, x in enumerate(prow) if x)
                    for prow in proj)
    if jrow:
        rows.append(tuple((col, 1) for col in jrow))
    return tuple(rows), layout


def _dense(rows, ncols: int) -> Mat:
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row:
            dense[j] = x
    return tuple(map(tuple, out))


class ComplexReport(Record):
    """The complex over Z (E1_rank, E2) from one transform-free reduction
    of its tree-reduced rows; ``sizes_over`` base-changes it to any
    coefficient group.  n_rows counts the rows of the full matrix.
    Equality and repr leave out the source curve."""

    _fields = ("spec", "layout", "n_rows", "E1_rank", "E2")

    def __init__(self, source: ParamTropicalCurve, spec: ComplexSpec,
                 layout: ComplexLayout, n_rows: int, E1_rank: int,
                 E2: FGAbelianGroup):
        self.__dict__.update(source=source, spec=spec, layout=layout,
                             n_rows=n_rows, E1_rank=E1_rank, E2=E2)

    @property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The full rows, assembled on each read; counts never read them."""
        return _assemble(self.source, self.spec)[0]

    @property
    def matrix(self) -> Mat:
        """The dense matrix, built on each read."""
        return _dense(self.rows, self.layout.domain_dim)


def sizes_over(e1_rank: int, e2: FGAbelianGroup, g: CoeffGroup):
    """(E^1_G, E^2_G) sizes via the universal-coefficient sequence
    0 -> E^1 (x) G -> E^1_G -> Tor(E^2, G) -> 0 and E^2_G = E^2 (x) G."""
    e1_free = base_change(FGAbelianGroup(e1_rank), g, "tensor")
    e1_tor = base_change(e2, g, "tor")
    return combine_sizes(e1_free, e1_tor), base_change(e2, g, "tensor")


# (curve, frame) of the curve ``compute`` last reduced, which the complexes
# of a count share: one tuple, matched by identity (held, so never reused)
_last_frame = (None, None)


def compute(p: ParamTropicalCurve, spec: ComplexSpec) -> ComplexReport:
    global _last_frame
    pc.require_balanced(p)
    last, frame = _last_frame
    if last is not p:
        _last_frame = p, (frame := _frame(p))
    layout, edges, off_tree, paths, weights = frame
    constraints, weight, jrow = _spec_part(p, spec, edges, weights)
    rows = []
    for _, init, target, own in off_tree:
        cycle = dict(paths[target])     # the fundamental cycle, signed
        for col, s in paths[init]:
            cycle[col] = cycle.get(col, 0) - s
        if own is not None:
            cycle[own] = 1
        rows += ({col: m * weight[col][k] for col, m in cycle.items()
                  if m and weight[col][k]} for k in range(layout.n))
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
    n_rows = len(rows) + layout.n * (len(edges) - len(off_tree))
    e1_rank = layout.domain_dim - (n_rows - e2.rank)
    return ComplexReport(p, spec, layout, n_rows, e1_rank, e2)


class RegularityVerdict(NamedTuple):
    g_regular: bool
    elliptically_regular: bool | None
    obstruction: GroupSize


def regularity(p: ParamTropicalCurve, constraints: AffineConstraintSet | None,
               group: CoeffGroup, elliptic: bool = False) -> RegularityVerdict:
    """G-regularity is the vanishing of the stacky obstruction CE^2_G; the
    elliptic variant asks the same of the j-augmented complex."""
    ce = compute(p, ComplexSpec("beta", constraints))
    obstruction = base_change(ce.E2, group, "tensor")
    if not elliptic:
        return RegularityVerdict(obstruction.is_trivial, None, obstruction)
    ce_j = compute(p, ComplexSpec("beta", constraints, elliptic=True))
    ell = base_change(ce_j.E2, group, "tensor")
    return RegularityVerdict(obstruction.is_trivial, ell.is_trivial, ell)
