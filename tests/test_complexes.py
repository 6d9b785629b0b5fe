from fractions import Fraction

import pytest

from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
    tropical_line,
    two_vertex_curve,
)
from oracles import (
    constraint_blocks,
    det,
    e1_lattice,
    full_complex,
    kernel_basis,
    lemma_complexes,
    mat_mul,
    oracle_contraction,
    quotient_form_dims,
    six_term_ledgers,
    transpose,
)
from tropicorr import complexes, exactla
from tropicorr import paramcurve as pc
from tropicorr.complexes import ComplexSpec, compute, regularity, sizes_over
from tropicorr.errors import (
    ConstraintUnsatisfied,
    GenusNotOne,
    ZeroSlopeCycleEdge,
)
from tropicorr.exactla import CoeffGroup, FGAbelianGroup
from tropicorr.paramcurve import (
    ParamTropicalCurve,
    check_constraint,
    constraint_set,
    extend_parameterization,
    param_curve,
)
from tropicorr import tropgraph
from tropicorr.tropgraph import (
    Subdivide,
    TropicalCurve,
    curve,
    cycle_edges,
    genus,
)

F = Fraction
Z = CoeffGroup("Z")
Q = CoeffGroup("Q")


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
    assert full_complex(p, ComplexSpec("b")).matrix == ()
    assert rep.domain_dim == 2
    assert rep.E1_rank == 2
    assert rep.E2.is_trivial


def test_two_vertex_kernel():
    p = two_vertex_curve()
    rep = compute(p, ComplexSpec("b"))
    assert rep.E1_rank == 3
    assert rep.E2.is_trivial


def test_line2pts_constrained_unimodular():
    p, a = line_through_two_points()
    rep = compute(p, ComplexSpec("b", a))
    mat = full_complex(p, ComplexSpec("b", a)).matrix
    assert len(mat) == len(mat[0]) == rep.n_rows == rep.domain_dim == 8
    assert abs(det(mat)) == 1
    assert rep.E1_rank == 0 and rep.E2.is_trivial
    e1_kstar, _ = sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(0))
    assert e1_kstar.finite_order == 1


def test_doubled_line_stacky_obstruction():
    p, a = doubled_line()
    rep = compute(p, ComplexSpec("beta", a))
    assert rep.E2 == FGAbelianGroup(0, (2, 2))
    assert abs(det(full_complex(p, ComplexSpec("beta", a)).matrix)) == 4
    e1_kstar, _ = sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(0))
    assert e1_kstar.finite_order == 4


# G, then per E^2 in SIZES_E2 the sizes (E^1_G at E^1 rank 0, which is
# Tor(E^2, G); E^1_G at E^1 rank 1; E^2_G), as GroupSize prints them
SIZES_E2 = (FGAbelianGroup(0, (2, 6)), FGAbelianGroup(1, (2, 6)),
            FGAbelianGroup(0, (2,)))
SIZES = (
    (Z, ("1", "G^1", "12"), ("1", "G^1", "G^1"), ("1", "G^1", "2")),
    (Q, ("1", "k^1", "1"), ("1", "k^1", "k^1"), ("1", "k^1", "1")),
    (CoeffGroup.field(0), ("1", "k^1", "1"), ("1", "k^1", "k^1"),
     ("1", "k^1", "1")),
    (CoeffGroup.field(2), ("k^2", "k^3", "k^2"), ("k^2", "k^3", "k^3"),
     ("k^1", "k^2", "k^1")),
    (CoeffGroup.field(3), ("k^1", "k^2", "k^1"), ("k^1", "k^2", "k^2"),
     ("1", "k^1", "1")),
    (CoeffGroup.field(5), ("1", "k^1", "1"), ("1", "k^1", "k^1"),
     ("1", "k^1", "1")),
    (CoeffGroup.units(0), ("12", "G^1", "1"), ("12", "G^1", "G^1"),
     ("2", "G^1", "1")),
    (CoeffGroup.units(2), ("3", "G^1", "1"), ("3", "G^1", "G^1"),
     ("1", "G^1", "1")),
    (CoeffGroup.units(5), ("12", "G^1", "1"), ("12", "G^1", "G^1"),
     ("2", "G^1", "1")),
)


def test_sizes_over_table():
    for g, *row in SIZES:
        for e2, want in zip(SIZES_E2, row):
            (tor, e2_g), (e1_g, e2_g1) = sizes_over(0, e2, g), sizes_over(1, e2, g)
            assert e2_g1 == e2_g                   # E^2_G ignores E^1
            assert (str(tor), str(e1_g), str(e2_g)) == want, (g, e2)
            for s in (tor, e1_g, e2_g):     # finite iff no copy of G or k
                assert (s.finite_order is None) == bool(s.free_rank or s.kdim)
    # over Q and k of characteristic 0 only the ranks survive
    for g in (Q, CoeffGroup.field(0)):
        for r1 in range(4):
            for r2 in range(4):
                for t in ((), (2,), (2, 4), (2, 4, 12)):
                    e1, e2 = sizes_over(r1, FGAbelianGroup(r2, t), g)
                    assert (e1.kdim, e2.kdim, e1.free_rank, e2.free_rank) \
                        == (r1, r2, 0, 0)


def test_constraint_must_be_satisfied():
    p, a = line_through_two_points()
    bad = constraint_set([((), (5, 5)), ((), (1, 1))], 2)
    # compute raises the same message on a fresh curve object and on one
    # that check_constraint has already judged
    messages = []
    for q in (ParamTropicalCurve(p.curve, p.lattice_rank, p.h), p):
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


def test_regularity_checks_once_on_one_frame(monkeypatch):
    # the (beta, A) and (beta, A, j) complexes are reduced on one frame,
    # after one decision of the constraint's satisfaction
    p, a = triangle_elliptic()
    calls = []
    for module, name in ((complexes, "_frame"), (pc, "_unsatisfied"),
                         (exactla, "invariant_factors")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*args))
    v = regularity(p, a, CoeffGroup.field(0), elliptic=True)
    assert v.g_regular and v.elliptically_regular
    assert sorted(calls) == ["_frame", "_unsatisfied", "invariant_factors",
                             "invariant_factors"]


def test_elliptic_complex_pinned():
    # direct SNF of the 15x15 cycle-augmented matrix; |det| = 9 is an
    # independent route to the same order
    p, a = triangle_elliptic()
    rep = compute(p, ComplexSpec("beta", a, elliptic=True))
    mat = full_complex(p, ComplexSpec("beta", a, elliptic=True)).matrix
    assert len(mat) == len(mat[0]) == rep.n_rows == rep.domain_dim == 15
    assert rep.E1_rank == 0
    assert rep.E2 == FGAbelianGroup(0, (9,))
    assert abs(det(mat)) == 9


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
    dbl, da = doubled_line()
    (led,) = six_term_ledgers(p, a, [CoeffGroup.field(5)])
    led2, led_q = six_term_ledgers(dbl, da, [CoeffGroup.field(2), Q])
    for d in (led, led2, led_q):
        assert d["mu"] - d["CE1"] + d["E1"] - d["quot"] + d["CE2"] == d["E2"]
    assert led["mu"] == 0 and led["quot"] == 0
    assert led["CE1"] == led["E1"] and led["CE2"] == led["E2"]
    assert led2["mu"] == 2 and led2["quot"] == 2
    assert led_q["mu"] == 0 and led_q["CE1"] == led_q["E1"]


def test_quotient_form_cross_check():
    for p, a in (line_through_two_points(), doubled_line(), triangle_elliptic()):
        e = compute(p, ComplexSpec("b", a))
        for grp in (Q, CoeffGroup.field(2), CoeffGroup.field(3)):
            e1, e2 = sizes_over(e.E1_rank, e.E2, grp)
            k, c = quotient_form_dims(p, a, grp)
            assert e1.kdim == k
            assert e2.kdim == c


def test_subdivision_transport():
    # each complex keeps E^2 and gains one in E^1's rank per new vertex
    p = two_vertex_curve()
    for cuts in ((F(1, 2),), (F(1, 4), F(1, 2)), ()):
        p_sub = extend_parameterization(p, [Subdivide("m", cuts)])
        new = len(p_sub.h.keys() - p.h.keys())
        assert new == len(cuts)
        for (r, e2), (r_sub, e2_sub) in zip(lemma_complexes(p),
                                            lemma_complexes(p_sub)):
            assert (r_sub, e2_sub) == (r + new, e2)


def test_subdivision_transport_constrained_elliptic():
    p, a = triangle_elliptic()
    p2 = extend_parameterization(p, [Subdivide("c23", (F(1, 2),))])
    pairs = list(zip(lemma_complexes(p, a), lemma_complexes(p2, a)))
    assert len(pairs) == 3          # the j-augmented complex too
    for (r, e2), (r_sub, e2_sub) in pairs:
        assert (r_sub, e2_sub) == (r + 1, e2)


def test_contraction_transport():
    # E^1 and E^2's torsion are kept; E^2's rank grows by n per cycle lost
    loopy = param_curve(
        curve(["v"], ["a", "b"], [("l", ("v", "v"), 1), ("r1", ("v", "a"), None),
                                  ("r2", ("v", "b"), None)]),
        2, {"v": (0, 0), "a": (1, 0), "b": (-1, 0)})
    assert compute(loopy, ComplexSpec("b")).E2.rank == 2
    bridge = param_curve(
        curve(["v", "w"], ["a", "b", "c"],
              [("z", ("v", "w"), 1), ("r1", ("v", "a"), None),
               ("r2", ("v", "b"), None), ("r3", ("w", "c"), None)]),
        2, {"v": (1, 1), "w": (1, 1), "a": (1, 0), "b": (-1, 0), "c": (0, 0)})
    for p, drop in ((two_vertex_curve(), 0), (loopy, 1), (bridge, 0)):
        pbar = oracle_contraction(p)
        assert genus(p.curve) - genus(pbar.curve) == drop
        for (r, e2), (rbar, e2bar) in zip(lemma_complexes(p),
                                          lemma_complexes(pbar)):
            assert (r, e2.torsion) == (rbar, e2bar.torsion)
            assert e2.rank == e2bar.rank + p.lattice_rank * drop


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
    from tropicorr.exactla import Sublattice, freeze

    for p, a in (line_through_two_points(), doubled_line(), triangle_elliptic()):
        free = full_complex(p, ComplexSpec("b"))
        e1_con = e1_lattice(full_complex(p, ComplexSpec("b", a)))
        assert compute(p, ComplexSpec("b", a)).E1_rank == e1_con.rank
        ker = e1_lattice(free).basis  # rows in domain coordinates
        if not ker:
            assert e1_con.rank == 0
            continue
        n = p.lattice_rank
        proj_rows = []
        for vfin, ann in constraint_blocks(p, a):
            i = free.vertices.index(vfin)
            for prow in ann:
                row = [0] * free.dim
                row[n * i:n * (i + 1)] = prow
                proj_rows.append(row)
        # restriction of the projection to the kernel lattice
        m = mat_mul(freeze(proj_rows), transpose(freeze(ker)))
        combos = kernel_basis(m)
        gens = [tuple(sum(c * ker[i][j] for i, c in enumerate(combo))
                      for j in range(free.dim))
                for combo in combos]
        lhs = Sublattice(free.dim, freeze(gens) if gens else ())
        assert lhs == e1_con


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
