import random
from fractions import Fraction

import pytest

from corpus import corpus, elliptic_corpus
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
    tropical_line,
    two_vertex_curve,
)
from oracles import (
    det,
    e1_lattice,
    kernel_basis,
    lemma_complexes,
    mat_mul,
    oracle_contraction,
    quotient_form_dims,
    six_term_ledgers,
    transpose,
)
from tropicorr import complexes
from tropicorr.complexes import ComplexSpec, compute, regularity, sizes_over
from tropicorr.errors import (
    ConstraintUnsatisfied,
    GenusNotOne,
    NonUnitMultiplicity,
    TropicorrError,
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
    SubdivideBounded,
    TropicalCurve,
    curve,
    cycle_edges,
    genus,
)

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
    rep = compute(p, ComplexSpec("b", a))
    mat = rep.matrix
    assert len(mat) == len(mat[0]) == 8
    assert abs(det(mat)) == 1
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
    # compute raises the same message on a fresh curve object and on one
    # that already holds the verdict of check_constraint
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


def test_elliptic_complex_pinned():
    # direct SNF of the 15x15 cycle-augmented matrix; |det| = 9 is an
    # independent route to the same order
    p, a = triangle_elliptic()
    rep = compute(p, ComplexSpec("beta", a, elliptic=True))
    assert len(rep.matrix) == len(rep.matrix[0]) == 15
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
        p_sub = extend_parameterization(p, [SubdivideBounded("m", cuts)])
        new = len(p_sub.h.keys() - p.h.keys())
        assert new == len(cuts)
        for (r, e2), (r_sub, e2_sub) in zip(lemma_complexes(p),
                                            lemma_complexes(p_sub)):
            assert (r_sub, e2_sub) == (r + new, e2)


def test_subdivision_transport_constrained_elliptic():
    p, a = triangle_elliptic()
    p2 = extend_parameterization(p, [SubdivideBounded("c23", (F(1, 2),))])
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
        free = compute(p, ComplexSpec("b"))
        con = compute(p, ComplexSpec("b", a))
        ker = e1_lattice(free).basis  # rows in domain coordinates
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
        assert lhs == e1_lattice(con)


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


def fresh_copy(p):
    """p rebuilt from new curve and parameterization objects, so nothing
    derived from p (its frame, forest or slopes) is shared."""
    c = p.curve
    return ParamTropicalCurve(TropicalCurve(c.finite_vertices, c.infinite_vertices,
                                            c.edges), p.lattice_rank, dict(p.h))


def complex_outcome(p, spec):
    try:
        rep = compute(p, spec)
    except TropicorrError as exc:
        return type(exc).__name__, str(exc)
    return rep.layout, rep.n_rows, rep.E1_rank, rep.E2


def spy_frames(monkeypatch):
    """The curves ``compute`` builds a frame for, in call order."""
    built, frame = [], complexes._frame
    monkeypatch.setattr(complexes, "_frame",
                        lambda q: built.append(q) or frame(q))
    return built


def test_frame_memo_never_serves_a_stale_frame(monkeypatch):
    # every spec on several curves, in a shuffled order, twice each: each
    # report equals the one computed on a fresh copy of its curve, whether
    # compute reused the last frame or built a new one
    items = corpus(4711, 6) + elliptic_corpus(4712, 4) + [doubled_line()]
    calls = []
    for p, a in items:
        for spec in [ComplexSpec(v, cons) for v in ("b", "beta")
                     for cons in (None, a)]:
            calls.append((p, spec))
        if genus(p.curve) == 1:
            calls += [(p, ComplexSpec(v, a, elliptic=True))
                      for v in ("b", "beta")]
    expected = {id(spec): complex_outcome(fresh_copy(p), spec)
                for p, spec in calls}
    order = calls * 2
    random.Random(4713).shuffle(order)
    built = spy_frames(monkeypatch)
    hits = 0
    for p, spec in order:
        before = len(built)
        assert complex_outcome(p, spec) == expected[id(spec)]
        hits += len(built) == before
    assert hits and len(built) + hits == len(order)
    assert any(isinstance(out[0], str) for out in expected.values())  # errors


def test_frame_memo_hit_raises_the_same_errors(monkeypatch):
    # a spec that fails raises the same error on a curve whose frame the
    # memo holds as on a fresh copy, which builds its own
    p, a = line_through_two_points()
    bad = constraint_set([((), (5, 5)), ((), (1, 1))], 2)
    zero = param_curve(
        curve(["v", "w"], ["a", "b"],
              [("l1", ("v", "w"), 1), ("l2", ("v", "w"), 1),
               ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)]),
        2, {"v": (0, 0), "w": (0, 0), "a": (0, 0), "b": (0, 0)})
    dbl, _ = doubled_line()
    cases = [(p, ComplexSpec("b", bad), ConstraintUnsatisfied),
             (zero, ComplexSpec("beta", elliptic=True), ZeroSlopeCycleEdge),
             (dbl, ComplexSpec("b", elliptic=True), NonUnitMultiplicity)]
    built = spy_frames(monkeypatch)
    for q, spec, error in cases:
        messages = []
        for r in (fresh_copy(q), q):
            compute(r, ComplexSpec("b"))        # the memo now holds r
            with pytest.raises(error) as err:
                compute(r, spec)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert len(built) == 2 * len(cases)
