from dataclasses import replace
from fractions import Fraction

import pytest

from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
    tropical_line,
    two_vertex_curve,
)
from oracles import det, mat_mul, quotient_form_dims
from tropicorr.complexes import (
    ComplexSpec,
    build_matrix,
    compute,
    contraction_transport,
    regularity,
    six_term_check,
    sizes_over,
    subdivision_transport,
)
from tropicorr.errors import (
    ConstraintUnsatisfied,
    GenusNotOne,
    NotASubdivision,
    ZeroSlopeCycleEdge,
)
from tropicorr.exactla import CoeffGroup, FGAbelianGroup, shape
from tropicorr.paramcurve import (
    ParamTropicalCurve,
    check_constraint,
    constraint_set,
    extend_parameterization,
    param_curve,
)
from tropicorr import tropgraph
from tropicorr.tropgraph import SubdivideBounded, TropicalCurve, curve, cycle_edges

F = Fraction
Z = CoeffGroup.integers()
Q = CoeffGroup.rationals()


def rename_vertices(p, mapping):
    c = p.curve
    edges = tuple(
        type(e)(e.id, (mapping.get(e.ends[0], e.ends[0]),
                       mapping.get(e.ends[1], e.ends[1])), e.length)
        for e in c.edges)
    c2 = TropicalCurve(tuple(mapping.get(v, v) for v in c.finite_vertices),
                       tuple(mapping.get(v, v) for v in c.infinite_vertices),
                       edges)
    return ParamTropicalCurve(c2, p.lattice_rank,
                              {mapping.get(v, v): h for v, h in p.h.items()})


def test_single_vertex_no_bounded_edges():
    p = tropical_line()
    rep = compute(p, ComplexSpec("b"))
    assert rep.matrix == () and rep.layout.domain_dim == 2
    assert rep.E1_rank == 2
    assert rep.E2.is_trivial


def test_two_vertex_kernel():
    p = two_vertex_curve()
    rep = compute(p, ComplexSpec("b"))
    assert rep.E1_rank == 3
    assert rep.E2.is_trivial


def test_line2pts_constrained_unimodular():
    p, a = line_through_two_points()
    mat = build_matrix(p, ComplexSpec("b", a))
    assert shape(mat) == (8, 8)
    assert abs(det(mat)) == 1
    rep = compute(p, ComplexSpec("b", a))
    assert rep.E1_rank == 0 and rep.E2.is_trivial
    e1_kstar, _ = sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(0))
    assert e1_kstar.finite_order == 1


def test_doubled_line_stacky_obstruction():
    p, a = doubled_line()
    rep = compute(p, ComplexSpec("beta", a))
    assert rep.E2 == FGAbelianGroup(0, (2, 2))
    assert abs(det(rep.matrix)) == 4
    e1_kstar, _ = sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(0))
    assert e1_kstar.finite_order == 4


def test_constraint_must_be_satisfied():
    p, a = line_through_two_points()
    bad = constraint_set([((), (5, 5)), ((), (1, 1))], 2)
    with pytest.raises(ConstraintUnsatisfied):
        build_matrix(p, ComplexSpec("b", bad))
    # compute raises the same message on a fresh curve object and on one
    # that already holds the verdict of check_constraint
    messages = []
    for q in (replace(p), p):
        if q is p:
            assert check_constraint(q, bad).problems
        for spec in (ComplexSpec("b", bad), ComplexSpec("beta", bad)):
            with pytest.raises(ConstraintUnsatisfied) as err:
                compute(q, spec)
            messages.append(str(err.value))
    assert set(messages) == {"constraint 0: h(v1) not on the translate"}
    assert compute(p, ComplexSpec("b", a)).E2.is_trivial


def test_regularity_examples():
    p, a = line_through_two_points()
    assert regularity(p, a, CoeffGroup.field(0)).g_regular
    dbl, da = doubled_line()
    assert not regularity(dbl, da, CoeffGroup.field(2)).g_regular
    assert regularity(dbl, da, CoeffGroup.field(3)).g_regular


def test_regularity_elliptic():
    p, a = triangle_elliptic()
    v = regularity(p, a, CoeffGroup.field(0), elliptic=True)
    assert v.g_regular and v.elliptically_regular
    v3 = regularity(p, a, CoeffGroup.field(3), elliptic=True)
    assert v3.g_regular and not v3.elliptically_regular


def test_elliptic_complex_pinned():
    # direct SNF of the 15x15 cycle-augmented matrix; |det| = 9 is an
    # independent route to the same order
    p, a = triangle_elliptic()
    rep = compute(p, ComplexSpec("beta", a, elliptic=True))
    assert shape(rep.matrix) == (15, 15)
    assert rep.E1_rank == 0
    assert rep.E2 == FGAbelianGroup(0, (9,))
    assert abs(det(rep.matrix)) == 9


def test_elliptic_requires_genus_one():
    p, a = line_through_two_points()
    with pytest.raises(GenusNotOne):
        compute(p, ComplexSpec("beta", a, elliptic=True))


def test_elliptic_zero_slope_cycle_rejected():
    c = curve(["v", "w"], ["a", "b"],
              [("l1", ("v", "w"), 1), ("l2", ("v", "w"), 1),
               ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)])
    p = param_curve(c, 2, {"v": (0, 0), "w": (0, 0), "a": (0, 0), "b": (0, 0)})
    with pytest.raises(ZeroSlopeCycleEdge):
        compute(p, ComplexSpec("beta", elliptic=True))


def test_six_term_examples():
    p, a = line_through_two_points()
    led = six_term_check(p, a, CoeffGroup.field(5))
    assert led["mu"] == 0 and led["quot"] == 0
    assert led["CE1"] == led["E1"] and led["CE2"] == led["E2"]
    dbl, da = doubled_line()
    led = six_term_check(dbl, da, CoeffGroup.field(2))
    assert led["mu"] == 2 and led["quot"] == 2
    led = six_term_check(dbl, da, Q)
    assert led["mu"] == 0 and led["CE1"] == led["E1"]


def test_quotient_form_cross_check():
    for p, a in (line_through_two_points(), doubled_line(), triangle_elliptic()):
        e = compute(p, ComplexSpec("b", a))
        for grp in (Q, CoeffGroup.field(2), CoeffGroup.field(3)):
            e1, e2 = sizes_over(e.E1_rank, e.E2, grp)
            k, c = quotient_form_dims(p, a, grp)
            assert e1.kdim == k
            assert e2.kdim == c


def test_subdivision_transport():
    p = two_vertex_curve()
    p2 = extend_parameterization(p, [SubdivideBounded("m", (F(1, 2),))])
    rep = subdivision_transport(p, p2)
    assert rep["ok"] and rep["new_vertices"] == 1
    p3 = extend_parameterization(p, [SubdivideBounded("m", (F(1, 4), F(1, 2)))])
    rep = subdivision_transport(p, p3)
    assert rep["ok"] and rep["new_vertices"] == 2
    rep = subdivision_transport(p, p)
    assert rep["ok"] and rep["new_vertices"] == 0


def test_subdivision_transport_constrained_elliptic():
    p, a = triangle_elliptic()
    p2 = extend_parameterization(p, [SubdivideBounded("c23", (F(1, 2),))])
    rep = subdivision_transport(p, p2, a)
    assert rep["ok"]
    assert "CEj" in rep["checks"]


def test_subdivision_transport_rejects_non_subdivision():
    p = two_vertex_curve()
    q = tropical_line()
    with pytest.raises(NotASubdivision):
        subdivision_transport(p, q)


@pytest.mark.parametrize("finite, edges", [
    (["x", "y"], [("c1", ("x", "y"), 1), ("c2", ("y", "x"), 1)]),
    (["x"], [("l", ("x", "x"), 1)]),
], ids=["separate_cycle", "lone_loop"])
def test_subdivision_transport_rejects_vertex_off_every_chain(finite, edges):
    # every new vertex is 2-valent, but none lies between original vertices
    p = two_vertex_curve()
    extra = curve(finite, (), edges)
    c = TropicalCurve(p.curve.finite_vertices + extra.finite_vertices,
                      p.curve.infinite_vertices, p.curve.edges + extra.edges)
    q = param_curve(c, 2, {**p.h, **{v: (0, 0) for v in finite}})
    with pytest.raises(NotASubdivision, match="new vertex x lies on no chain"):
        subdivision_transport(p, q)


def test_contraction_transport():
    p = two_vertex_curve()
    rep = contraction_transport(p)
    assert rep["ok"] and rep["genus_drop"] == 0
    # zero-slope loop at a vertex in rank 2: obstruction rank grows by 2
    c = curve(["v"], ["a", "b"],
              [("l", ("v", "v"), 1), ("r1", ("v", "a"), None),
               ("r2", ("v", "b"), None)])
    loopy = param_curve(c, 2, {"v": (0, 0), "a": (1, 0), "b": (-1, 0)})
    rep = contraction_transport(loopy)
    assert rep["ok"] and rep["genus_drop"] == 1
    full = compute(loopy, ComplexSpec("b"))
    assert full.E2.rank == 2
    # zero-slope bridge: no cycle, obstruction unchanged
    bridge = param_curve(
        curve(["v", "w"], ["a", "b", "c"],
              [("z", ("v", "w"), 1), ("r1", ("v", "a"), None),
               ("r2", ("v", "b"), None), ("r3", ("w", "c"), None)]),
        2, {"v": (1, 1), "w": (1, 1), "a": (1, 0), "b": (-1, 0), "c": (0, 0)})
    rep = contraction_transport(bridge)
    assert rep["ok"] and rep["genus_drop"] == 0


def test_orientation_independence_via_relabeling():
    # renaming vertices flips default edge orientations; all canonical
    # invariants must be unchanged
    for p, a in (line_through_two_points(), doubled_line(), triangle_elliptic()):
        mapping = {v: "zz" + v for v in p.curve.finite_vertices}
        q = rename_vertices(p, mapping)
        for spec in (ComplexSpec("b", a), ComplexSpec("beta", a),
                     ComplexSpec("beta", a, elliptic=True)
                     if len(p.curve.finite_vertices) == 5 else ComplexSpec("beta", a)):
            try:
                r1 = compute(p, spec)
                r2 = compute(q, spec)
            except GenusNotOne:
                continue
            assert r1.E1_rank == r2.E1_rank
            assert r1.E2 == r2.E2


def test_prop_e1_constrained_is_kernel_of_projection():
    # E^1(Gamma, A) equals the kernel of E^1(Gamma) -> sum N/L_i
    from tropicorr.exactla import Sublattice, freeze, kernel_basis, transpose

    for p, a in (line_through_two_points(), doubled_line(), triangle_elliptic()):
        free = compute(p, ComplexSpec("b"))
        con = compute(p, ComplexSpec("b", a))
        ker = free.E1_lattice.basis  # rows in domain coordinates
        if not ker:
            assert con.E1_rank == 0
            continue
        n = p.lattice_rank
        proj_rows = []
        from tropicorr.paramcurve import marked_pairs
        from tropicorr.exactla import quotient_presentation

        for (vinf, vfin), item in zip(marked_pairs(p, len(a)), a.items):
            q = quotient_presentation(item.space)
            i = free.layout.vertices.index(vfin)
            cols = range(n * i, n * (i + 1))
            for prow in q:
                row = [0] * free.layout.domain_dim
                for k, cidx in enumerate(cols):
                    row[cidx] = prow[k]
                proj_rows.append(row)
        # restriction of the projection to the kernel lattice
        m = mat_mul(freeze(proj_rows), transpose(freeze(ker)))
        combos = kernel_basis(m)
        gens = [tuple(sum(c * ker[i][j] for i, c in enumerate(combo))
                      for j in range(free.layout.domain_dim))
                for combo in combos]
        lhs = Sublattice(free.layout.domain_dim, freeze(gens) if gens else ())
        assert lhs == con.E1_lattice


def test_one_bounded_edge_forest_per_curve_object(monkeypatch):
    # the tree route of both variants and the elliptic j-row's cycle all
    # read the one forest kept on the curve object
    p, constraints = triangle_elliptic()
    calls = []
    forest = tropgraph.spanning_forest
    monkeypatch.setattr(tropgraph, "spanning_forest",
                        lambda *args: calls.append(1) or forest(*args))
    for variant in ("b", "beta"):
        compute(p, ComplexSpec(variant, constraints, elliptic=True))
    assert len(cycle_edges(p.curve)) == 3
    assert len(calls) == 1
