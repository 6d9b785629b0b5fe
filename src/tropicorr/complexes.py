"""The obstruction complexes of a parameterized tropical curve.

Both complexes map the domain (sum over finite vertices v of N, coordinates
x_v) + (one y_e per bounded edge e of nonzero primitive slope s_e) to the
sum over bounded edges of N.  The n rows of an edge init -> target, in its
default orientation, are x_target - x_init + coef s_e y_e, with coef = 1 in
the plain variant (E) and l(e) in the stacky one (CE); a loop has no x
terms.  E^1/E^2 (resp. CE^1/CE^2) are the kernel and cokernel.  Constraint
i appends P_i x_v, P_i presenting N -> N/L_i at its vertex v; the elliptic
augmentation appends one row summing the y_e of the cycle.

``compute`` reduces over Z in tree coordinates.  The BFS spanning tree of
the bounded edges (``TropicalCurve.bounded_forest``) is rooted at the first
finite vertex.  Each tree edge's n rows
hold +-1 on its child's x columns, so the unimodular substitution
x_child = x_parent -+ coef s_e y_e turns them into unit rows: n(|V| - 1)
invariant factors 1, with no elimination.  Only the cycle space, the
constraints and the j-row can carry an obstruction, so only these rows
reach ``invariant_factors``: per non-tree edge and coordinate k, its own y
entry and +-coef s_e[k] on each tree edge of its fundamental cycle; per
constraint row a, a on x_root and +-coef <a, s_e> along the tree path to
its vertex; the j-row.  That is n g + sum corank L_i (+1) rows, none for an
unconstrained genus-0 curve; E^1's rank follows from the full row count.
The full rows (``_assemble``) and the dense matrix are built only when read.
A coefficient group enters only at the final base change, ``sizes_over``
for E^1_G and E^2_G and ``base_change`` for the regularity verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import paramcurve as pc
from .errors import ConstraintUnsatisfied, NonUnitMultiplicity, ZeroSlopeCycleEdge
from .exactla import (
    CoeffGroup,
    FGAbelianGroup,
    GroupSize,
    Mat,
    base_change,
    cokernel_group,
    combine_sizes,
)
from .paramcurve import AffineConstraintSet, ParamTropicalCurve


@dataclass(frozen=True)
class ComplexSpec:
    variant: str = "beta"                      # "b" -> E, "beta" -> CE
    constraints: AffineConstraintSet | None = None
    elliptic: bool = False

    def __post_init__(self):
        if self.variant not in ("b", "beta"):
            raise ValueError("variant must be 'b' or 'beta'")


@dataclass(frozen=True)
class ComplexLayout:
    """Index bookkeeping for the assembled matrix."""

    vertices: tuple[str, ...]       # finite vertices, column blocks of width n
    slope_edges: tuple[str, ...]    # bounded edges with nonzero slope, one column each
    n: int

    @property
    def domain_dim(self) -> int:
        return self.n * len(self.vertices) + len(self.slope_edges)


def _terms(p: ParamTropicalCurve, spec: ComplexSpec):
    """The complex written down once, for both routes: the layout, each
    bounded edge as (id, init, target, y column, coef * slope; both None at
    zero slope), each constraint as (vertex, P_i), the j-row's columns."""
    pc.require_balanced(p)
    constraints = []
    if spec.constraints is not None:
        # the count's last verdict, so a count decides it once
        problems = pc._last_satisfaction(p, spec.constraints)
        if problems:
            raise ConstraintUnsatisfied("; ".join(problems))
        constraints = [(vfin, con.presentation) for (_, vfin), con in zip(
            pc.marked_pairs(p, len(spec.constraints)), spec.constraints.items)]
    n = p.lattice_rank
    bounded = p.curve.bounded_edges()
    geo = {e.id: pc.edge_geometry(p, e.id) for e in bounded}
    cycle = ()
    if spec.elliptic:
        heavy = [f"edge {eid} has l(e) = {g.multiplicity}"
                 for eid, g in geo.items() if g.multiplicity > 1]
        if spec.variant == "b" and heavy:
            raise NonUnitMultiplicity(
                "elliptic plain variant needs unit multiplicities; "
                + ", ".join(heavy))
        cycle = [e.id for e in pc.tropgraph.cycle_edges(p.curve)]
        for eid in cycle:
            if geo[eid].slope is None:
                raise ZeroSlopeCycleEdge(f"cycle edge {eid} has zero slope")
    layout = ComplexLayout(tuple(p.curve.finite_vertices), tuple(
        e.id for e in bounded if geo[e.id].slope is not None), n)
    ecol = dict(zip(layout.slope_edges,
                    range(n * len(layout.vertices), layout.domain_dim)))
    edges = []
    for e in bounded:
        g = geo[e.id]
        coef = g.multiplicity if spec.variant == "beta" else 1
        edges.append((e.id, *pc._orient(e), ecol.get(e.id), None if g.slope
                      is None else tuple(coef * s for s in g.slope)))
    return layout, edges, constraints, sorted(ecol[eid] for eid in cycle)


def _assemble(p: ParamTropicalCurve, spec: ComplexSpec):
    """The full rows, each the sorted tuple of its nonzeros (col, value)."""
    layout, edges, constraints, jrow = _terms(p, spec)
    vcol = {v: layout.n * i for i, v in enumerate(layout.vertices)}
    rows = []
    for _, init, target, col, weight in edges:
        ends = (sorted(((vcol[init], -1), (vcol[target], 1)))
                if init != target else ())
        for k in range(layout.n):
            row = [(c + k, s) for c, s in ends]
            if col is not None and weight[k]:
                row.append((col, weight[k]))
            rows.append(tuple(row))
    for vfin, proj in constraints:
        rows.extend(tuple((vcol[vfin] + k, x) for k, x in enumerate(prow) if x)
                    for prow in proj)
    if jrow:
        rows.append(tuple((col, 1) for col in jrow))
    return tuple(rows), layout


def _reduced(p: ParamTropicalCurve, layout, edges, constraints, jrow):
    """The rows left beside the tree's unit pivots, as {col: value} dicts."""
    weight = {col: w for _, _, _, col, w in edges if col is not None}
    ends = {eid: (target, col) for eid, _, target, col, _ in edges}
    up = p.curve.bounded_forest
    tree = {link[1].id for link in up.values() if link}

    def carried(v, s, acc):
        """acc[col] += s * sign along the tree path from v to the root,
        where x_v = x_parent + sign weight y_col."""
        while up[v] is not None:
            parent, e = up[v]
            target, col = ends[e.id]
            if col is not None:
                acc[col] = acc.get(col, 0) + (-s if target == v else s)
            v = parent
        return acc

    rows = []
    for eid, init, target, own, w in edges:
        if eid not in tree:
            path = carried(init, -1, carried(target, 1, {}))
            for k in range(layout.n):
                row = {col: m * weight[col][k] for col, m in path.items()
                       if m and weight[col][k]}
                if own is not None and w[k]:
                    row[own] = w[k]
                rows.append(row)
    for vfin, proj in constraints:
        path = carried(vfin, 1, {})
        for a in proj:
            row = {k: x for k, x in enumerate(a) if x}      # on x_root
            for col, m in path.items():
                if x := m * sum(map(mul, a, weight[col])):
                    row[col] = x
            rows.append(row)
    if jrow:
        rows.append(dict.fromkeys(jrow, 1))
    return rows


def _dense(rows, ncols: int) -> Mat:
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row:
            dense[j] = x
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class ComplexReport:
    """The complex over Z (E1_rank, E2) from one transform-free reduction
    of its tree-reduced rows; ``sizes_over`` base-changes it to any
    coefficient group."""

    source: ParamTropicalCurve = field(repr=False, compare=False)
    spec: ComplexSpec
    layout: ComplexLayout
    n_rows: int                   # rows of the full matrix
    E1_rank: int
    E2: FGAbelianGroup

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


def compute(p: ParamTropicalCurve, spec: ComplexSpec) -> ComplexReport:
    layout, edges, constraints, jrow = terms = _terms(p, spec)
    e2 = cokernel_group(_reduced(p, *terms))
    n_rows = (layout.n * len(edges) + sum(len(a) for _, a in constraints)
              + bool(jrow))
    # rank-nullity: the matrix has rank rows - rank E^2
    e1_rank = layout.domain_dim - (n_rows - e2.rank)
    return ComplexReport(p, spec, layout, n_rows, e1_rank, e2)


@dataclass(frozen=True)
class RegularityVerdict:
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
