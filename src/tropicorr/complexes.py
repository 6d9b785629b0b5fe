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
from .errors import (
    ConstraintUnsatisfied,
    CrossCheckFailed,
    GenusNotOne,
    NonUnitMultiplicity,
    NotASubdivision,
    ZeroSlopeCycleEdge,
)
from .exactla import (
    CoeffGroup,
    FGAbelianGroup,
    GroupSize,
    Mat,
    Sublattice,
    base_change,
    cokernel_group,
    combine_sizes,
    identity,
    kernel_basis,
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
        # check_constraint's last report, so a count decides it once
        problems = pc._constraint_report(p, spec.constraints).problems
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


def build_matrix(p: ParamTropicalCurve, spec: ComplexSpec) -> Mat:
    """The integer matrix of the chosen complex (see the module docstring
    for the row/column layout)."""
    rows, layout = _assemble(p, spec)
    return _dense(rows, layout.domain_dim)


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

    @property
    def E1_lattice(self) -> Sublattice:
        """The kernel inside the domain Z^domain_dim.  It needs the SNF
        transforms, so it is computed on each read, never by ``compute``."""
        dim = self.layout.domain_dim
        if not self.n_rows:   # no rows: the kernel is the whole domain
            return Sublattice(dim, identity(dim))
        return Sublattice(dim, kernel_basis(self.matrix))


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


def _field_dim(size: GroupSize) -> int:
    if size.free_rank:
        raise ValueError("not a vector space")
    return size.kdim


def six_term_check(p: ParamTropicalCurve,
                   constraints: AffineConstraintSet | None,
                   group: CoeffGroup) -> dict:
    """Dimension ledger of the comparison sequence

    0 -> sum mu_l(e)(G) -> CE^1_G -> E^1_G -> sum G/l(e)G -> CE^2_G -> E^2_G -> 0

    over a field G; returns the six dimensions and raises
    CrossCheckFailed unless the alternating sum vanishes.
    """
    if group.kind not in ("Q", "field"):
        raise ValueError("six-term ledger needs a field of coefficients")
    p_char = 0 if group.kind == "Q" else group.p
    mults = [pc.edge_geometry(p, e.id).multiplicity
             for e in p.curve.bounded_edges()]
    mults = [m for m in mults if m > 0]
    mu = sum(1 for m in mults if p_char and m % p_char == 0)
    quot = mu  # dim ker(l: G -> G) = dim G/lG for a field
    ce = compute(p, ComplexSpec("beta", constraints))
    ee = compute(p, ComplexSpec("b", constraints))
    ce1, ce2 = sizes_over(ce.E1_rank, ce.E2, group)
    e1, e2 = sizes_over(ee.E1_rank, ee.E2, group)
    ledger = {
        "mu": mu,
        "CE1": _field_dim(ce1),
        "E1": _field_dim(e1),
        "quot": quot,
        "CE2": _field_dim(ce2),
        "E2": _field_dim(e2),
    }
    alternating = (ledger["mu"] - ledger["CE1"] + ledger["E1"]
                   - ledger["quot"] + ledger["CE2"] - ledger["E2"])
    if alternating != 0:
        raise CrossCheckFailed("six_term_ledger", f"alternating sum {ledger}")
    ledger["alternating_sum"] = alternating
    return ledger


# ---------------------------------------------------------------------------
# transport under subdivision and contraction


def subdivision_transport(p: ParamTropicalCurve, p_sub: ParamTropicalCurve,
                          constraints: AffineConstraintSet | None = None) -> dict:
    """Compare the complexes of a curve and one of its subdivisions.

    The cokernels agree and the kernel rank grows by one per new vertex on a
    nonzero-slope edge, in the plain, stacky, constrained, and (genus one)
    elliptic variants alike.
    """
    new = pc.subdivision_new_vertices(p_sub, p)
    for v, eid in new:
        if pc.edge_geometry(p, eid).slope is None:
            raise NotASubdivision(
                f"new vertex {v} subdivides zero-slope edge {eid}")
    out = {"new_vertices": len(new), "ok": True, "checks": {}}
    specs = {"E": ComplexSpec("b", constraints), "CE": ComplexSpec("beta", constraints)}
    if pc.tropgraph.genus(p.curve) == 1 and _cycle_has_slopes(p) and _cycle_has_slopes(p_sub):
        specs["CEj"] = ComplexSpec("beta", constraints, elliptic=True)
    for name, spec in specs.items():
        small = compute(p, spec)
        big = compute(p_sub, spec)
        same_e2 = small.E2 == big.E2
        offset_ok = big.E1_rank == small.E1_rank + len(new)
        out["checks"][name] = {"E2_equal": same_e2, "E1_offset_ok": offset_ok}
        out["ok"] = out["ok"] and same_e2 and offset_ok
    return out


def _cycle_has_slopes(p):
    try:
        cycle = pc.tropgraph.cycle_edges(p.curve)
    except GenusNotOne:
        return False
    return all(pc.edge_geometry(p, e.id).slope is not None for e in cycle)


def contraction_transport(p: ParamTropicalCurve,
                          constraints: AffineConstraintSet | None = None) -> dict:
    """Compare a curve with its zero-slope contraction: E^1/CE^1 keep their
    canonical form, and the obstruction rank grows by n per contracted
    independent cycle.  For genus one preserved by the contraction the
    j-augmented complexes agree entirely."""
    pbar, _ = pc.contract_zero_slope(p)
    g = pc.tropgraph.genus(p.curve)
    gbar = pc.tropgraph.genus(pbar.curve)
    n = p.lattice_rank
    out = {"genus_drop": g - gbar, "ok": True, "checks": {}}
    for name, spec in (("E", ComplexSpec("b", constraints)),
                       ("CE", ComplexSpec("beta", constraints))):
        full = compute(p, spec)
        small = compute(pbar, spec)
        e1_iso = full.E1_rank == small.E1_rank
        rank_ok = full.E2.rank == small.E2.rank + n * (g - gbar)
        torsion_ok = full.E2.torsion == small.E2.torsion
        out["checks"][name] = {"E1_iso": e1_iso, "E2_rank_ok": rank_ok,
                               "E2_torsion_equal": torsion_ok}
        out["ok"] = out["ok"] and e1_iso and rank_ok and torsion_ok
    if g == 1 and gbar == 1 and _cycle_has_slopes(p) and _cycle_has_slopes(pbar):
        spec = ComplexSpec("beta", constraints, elliptic=True)
        full = compute(p, spec)
        small = compute(pbar, spec)
        same = (full.E1_rank == small.E1_rank and full.E2 == small.E2)
        out["checks"]["CEj"] = {"canonical_forms_equal": same}
        out["ok"] = out["ok"] and same
    return out
