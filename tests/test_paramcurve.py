import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from corpus import corpus, elliptic_corpus
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
    tropical_line,
    two_vertex_curve,
)
from tropicorr import fanmodel, tropgraph
from tropicorr import paramcurve as pc
from tropicorr.complexes import rank
from tropicorr.curvefile import load
from tropicorr.errors import (
    BadSubdivision,
    GenusNotOne,
    NotBalanced,
    NotStabilizable,
)
from oracles import (
    fraction_edge_geometry,
    fraction_maps_to_zero,
    fraction_reduction_exponents,
    fraction_violations,
    lattice_intersect,
    oracle_contraction,
    oracle_cycle_ids,
    saturation,
    solve_rational,
)
from tropicorr.exactla import Sublattice
from tropicorr.paramcurve import (
    ParamTropicalCurve,
    check_constraint,
    constraint_set,
    degree,
    edge_geometry,
    extend_parameterization,
    param_curve,
    param_violations,
    stabilize_param,
    tropical_j,
    zero_slope_bounded_count,
)
from tropicorr.tropgraph import (
    AttachTree,
    Subdivide,
    curve,
    genus,
)

F = Fraction


def test_balancing_examples():
    assert not param_violations(tropical_line())
    line = tropical_line()
    skew = ParamTropicalCurve(line.curve, line.lattice_rank,
                              {**line.h, "u3": (F(1), F(2))})
    assert param_violations(skew) == ["balancing fails at v0: defect ('0', '1')"]
    assert not param_violations(two_vertex_curve())


def test_h_is_read_only():
    p = tropical_line()
    with pytest.raises(TypeError):
        p.h["u3"] = (F(1), F(2))
    assert not param_violations(p)


def _balancing_reference(p):
    """The balancing sums by a scan of every edge at every vertex."""
    inf_set = set(p.curve.infinite_vertices)
    out = {}
    for v in p.curve.finite_vertices:
        total = (F(0),) * p.lattice_rank
        for e in p.curve.edges:
            for a, b in (e.ends, e.ends[::-1]):
                if a != v:
                    continue
                if e.is_bounded:
                    step = tuple((y - x) / e.length
                                 for x, y in zip(p.hv(a), p.hv(b)))
                elif b in inf_set:
                    step = p.hv(b)
                else:
                    continue
                total = tuple(x + y for x, y in zip(total, step))
        if any(total):
            out[v] = total
    return out


def _fresh(p, shift=None):
    """An equal curve built from scratch, so no derived fact is shared; with
    shift, the first finite vertex is moved by it."""
    c = p.curve
    h = dict(p.h)
    if shift is not None:
        v = c.finite_vertices[0]
        h[v] = tuple(x + y for x, y in zip(h[v], shift))
    return ParamTropicalCurve(
        type(c)(c.finite_vertices, c.infinite_vertices, c.edges),
        p.lattice_rank, h)


def _stretched(p):
    """p with its first bounded edge twice as long, so that edge's direction
    is halved: non-integral wherever it was odd, with fractional defects."""
    c = p.curve
    first = c.bounded_edges()[0]
    edges = tuple(e._replace(length=2 * e.length) if e is first else e
                  for e in c.edges)
    return ParamTropicalCurve(type(c)(c.finite_vertices, c.infinite_vertices,
                                      edges), p.lattice_rank, p.h)


def _special_curves():
    """Loops, contracted ends, non-integral edges and ends, and curves whose
    structure fails before any direction is derived."""
    line = tropical_line()
    golden = Path(__file__).resolve().parent / "golden" / "inputs"
    return [
        # a loop (zero slope) at a vertex with three ends
        param_curve(curve(["v"], ["a", "b", "c"],
                          [("l", ("v", "v"), 1), ("r1", ("v", "a"), None),
                           ("r2", ("v", "b"), None), ("r3", ("v", "c"), None)]),
                    2, {"v": (0, 0), "a": (-1, 0), "b": (0, -1), "c": (1, 1)}),
        # a loop and a contracted end only
        param_curve(curve(["v"], ["a"], [("l", ("v", "v"), 1),
                                         ("r", ("v", "a"), None)]),
                    2, {"v": (0, 0), "a": (0, 0)}),
        # two non-integral parallel edges whose sums still balance
        param_curve(curve(["v", "w"], ["a", "b"],
                          [("e1", ("v", "w"), 2), ("e2", ("w", "v"), F(2, 3)),
                           ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)]),
                    2, {"v": (0, 0), "w": (1, 0), "a": (-2, 0), "b": (2, 0)}),
        line_through_two_points()[0],
        doubled_line()[0],
        triangle_elliptic()[0],
        load(str(golden / "frac_defect.json"))[0],
        load(str(golden / "nonint_edge.json"))[0],
        load(str(golden / "unbalanced_unstable.json"))[0],
        ParamTropicalCurve(line.curve, line.lattice_rank,
                           {**line.h, "u3": (F(1, 2), F(1))}),
        _fresh(two_vertex_curve(), (F(1, 3), F(0))),
        # structural failures: every message comes before any direction
        ParamTropicalCurve(line.curve, line.lattice_rank,
                           {k: x for k, x in line.h.items() if k != "u1"}),
        ParamTropicalCurve(line.curve, line.lattice_rank,
                           {**line.h, "u1": (F(-1),)}),
        ParamTropicalCurve(curve(["v0"], ["u1", "u2", "u3"],
                                 [("f1", ("v0", "u1"), None),
                                  ("f2", ("v0", "u2"), None)]),
                           line.lattice_rank, line.h),
    ]


def _structure_ok(p):
    """Is the curve valid and h given, of the right length, everywhere?"""
    return not tropgraph.validate(p.curve) and all(
        len(p.h.get(v, ())) == p.lattice_rank for v in p.curve.vertex_ids())


def test_cached_facts_equal_fresh_recomputation():
    # the integer derivation against the Fraction route of tests/oracles.py:
    # violation messages in order, slopes and multiplicities, and reduction
    # exponents; each fact is cached on the object
    curves = [p for p, _ in corpus(20250521, 40)]
    curves += [p for p, _ in elliptic_corpus(5150, 10)]
    skewed = [_fresh(p, (F(1, 2),) + (F(0),) * (p.lattice_rank - 1))
              for p in curves]
    stretched = [_stretched(p) for p in curves if p.curve.bounded_edges()]
    assert all(param_violations(p) for p in skewed)
    assert any(param_violations(p) for p in stretched)
    special = _special_curves()
    assert sum(not _structure_ok(p) for p in special) == 3
    for p in curves + skewed + stretched + special:
        first = param_violations(p)
        assert param_violations(p) == first == pc._collect_violations(_fresh(p))
        assert first == fraction_violations(_fresh(p))
        if not _structure_ok(p):
            continue
        assert p._slopes.defects == _balancing_reference(_fresh(p))
        for e in p.curve.edges:
            try:
                want = fraction_edge_geometry(_fresh(p), e.id)
            except NotBalanced as exc:
                with pytest.raises(NotBalanced, match=str(exc)):
                    edge_geometry(p, e.id)
                continue
            geo = edge_geometry(p, e.id)
            assert edge_geometry(p, e.id) is geo
            assert geo == want
        if not first:
            for v in p.curve.vertex_ids():
                assert (fanmodel.reduction_exponents(p, v)
                        == fraction_reduction_exponents(_fresh(p), v))


def test_edge_geometry_examples():
    p = param_curve(
        curve(["v", "w"], ["a", "b", "c", "d"],
              [("e", ("v", "w"), 1),
               ("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("w", "c"), None), ("r4", ("w", "d"), None)]),
        2,
        {"v": (0, 0), "w": (2, 2), "a": (-2, 0), "b": (0, -2),
         "c": (2, 0), "d": (0, 2)},
    )
    geo = edge_geometry(p, "e")
    assert geo.slope == (1, 1) and geo.multiplicity == 2
    # marked point: zero-direction unbounded edge
    line, _ = line_through_two_points()
    geo = edge_geometry(line, "g1")
    assert geo.slope is None and geo.multiplicity == 0
    loop = param_curve(
        curve(["v"], ["a"], [("l", ("v", "v"), 1), ("r", ("v", "a"), None)]),
        2, {"v": (0, 0), "a": (0, 0)})
    assert edge_geometry(loop, "l").slope is None


def test_degree_examples():
    assert degree(tropical_line()) == (((-1, 0), 1), ((0, -1), 1), ((1, 1), 1))
    dbl, _ = doubled_line()
    assert degree(dbl) == (((-1, 0), 2), ((0, -1), 2), ((1, 1), 2))
    two_same = param_curve(
        curve(["v"], ["a", "b", "c"],
              [("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("v", "c"), None)]),
        2, {"v": (0, 0), "a": (1, 0), "b": (1, 0), "c": (-2, 0)})
    assert degree(two_same) == (((-1, 0), 2), ((1, 0), 2))


def test_degree_sums_to_zero():
    for p in (tropical_line(), two_vertex_curve(), doubled_line()[0]):
        deg = degree(p)
        n = p.lattice_rank
        total = [0] * n
        for direction, d in deg:
            total = [t + d * x for t, x in zip(total, direction)]
        assert all(t == 0 for t in total)


def test_extend_parameterization_bounded():
    p = two_vertex_curve()
    p2 = extend_parameterization(p, [Subdivide("m", (F(1, 2),))])
    assert p2.hv("m.v1") == (F(1, 2), F(1, 2))
    assert not param_violations(p2)
    # restriction back to the original vertices is the input
    for v in p.curve.vertex_ids():
        assert p2.hv(v) == p.hv(v)


def test_extend_parameterization_unbounded_and_tree():
    p = tropical_line()
    p2 = extend_parameterization(p, [Subdivide("f3", (2,))])
    assert p2.hv("f3.v1") == (F(2), F(2))
    assert not param_violations(p2)
    tree = curve(["r", "s"], [], [("te", ("r", "s"), 1)])
    p3 = extend_parameterization(p2, [AttachTree("v0", tree, "r")])
    assert p3.hv("s") == p3.hv("v0")
    assert not param_violations(p3)
    assert genus(p3.curve) == 0


_DBLLINE = Path(__file__).resolve().parent.parent / "fixtures" / "dblline.json"
_LEAF = curve(["r", "s"], [], [("te", ("r", "s"), 1)])


# every BadSubdivision branch of the walk, pinned by its message
@pytest.mark.parametrize("steps, message", [
    ([Subdivide("nope", (F(1, 4),))], "no edge nope"),
    ([Subdivide("e1", (F(1, 4), F(1, 4)))],
     "distances must be strictly increasing"),
    ([Subdivide("e1", (F(1, 2),))], "distances must lie inside the edge"),
    ([Subdivide("e1", (0, F(1, 4)))], "distances must lie inside the edge"),
    ([Subdivide("f1", (0,))], "distances must be positive"),
    ([Subdivide("e1", (F(1, 4),), ("a", "b"))],
     "vertex id count does not match distances"),
    ([Subdivide("e1", (), ("a",))], "vertex id count does not match distances"),
    ([Subdivide("f1", (1,), ("v2",))], "id clash with subdivision: ['v2']"),
    ([Subdivide("e1", (F(1, 8), F(1, 4)), ("u1", "a"))],
     "id clash with subdivision: ['u1']"),
    ([Subdivide("e1", (F(1, 8), F(1, 4)), ("a", "a"))],
     "id clash with subdivision: ['a']"),
    ([Subdivide("e1", (F(1, 4),)), Subdivide("e2", (F(1, 4),), ("e1.v1",))],
     "id clash with subdivision: ['e1.v1']"),
    ([AttachTree("v0", curve(["r", "s"], [], [("f1.p1", ("r", "s"), 1)]), "r"),
      Subdivide("f1", (1,))], "id clash with subdivision: ['f1.p1']"),
    ([AttachTree("v0", _LEAF, "r"), Subdivide("e1", (F(1, 4),), ("s",))],
     "id clash with subdivision: ['s']"),
    ([AttachTree("nowhere", _LEAF, "r")],
     "attachment root nowhere not a finite vertex"),
    ([AttachTree("v0", curve(["r"], [], [("l", ("r", "r"), 1)]), "r")],
     "attachment must be a tree"),
    ([AttachTree("v0", curve(["r", "s"], [], [("te", ("r", "s"), 0)]), "r")],
     "attachment tree is not a valid curve"),
    ([AttachTree("v0", curve(["r", "v1"], [], [("e2", ("r", "v1"), 1)]), "r")],
     "id clash with attached tree: ['e2', 'v1']"),
    ([AttachTree("v0", curve(["r", "v1"], [], [("te", ("r", "v1"), 1)]), "zzz")],
     "tree root zzz not a finite vertex"),
    ([AttachTree("v0", curve(["r"], ["a"], [("ta", ("r", "a"), None)]), "a")],
     "tree root a not a finite vertex"),
], ids=["unknown-edge", "not-increasing", "at-the-end-of-a-bounded-edge",
        "at-the-start-of-a-bounded-edge", "not-positive-on-an-unbounded-edge",
        "vertex-id-count", "vertex-ids-without-distances", "vertex-clash",
        "infinite-vertex-clash", "repeated-vertex-id",
        "clash-with-an-earlier-subdivision", "edge-clash",
        "clash-with-an-attached-vertex", "unknown-root",
        "attachment-not-a-tree", "attachment-not-valid", "attachment-clash",
        "tree-root-not-in-the-tree", "tree-root-an-infinite-vertex"])
def test_extend_parameterization_raises_what_modify_raises(steps, message):
    p = load(str(_DBLLINE))[0]
    with pytest.raises(BadSubdivision) as from_modify:
        tropgraph.modify(p.curve, steps)
    with pytest.raises(BadSubdivision) as from_extend:
        extend_parameterization(p, steps)
    assert str(from_extend.value) == str(from_modify.value) == message


def test_rank_examples():
    assert rank(tropical_line()) == 2
    line2, _ = line_through_two_points()
    assert rank(line2) == 4
    assert rank(two_vertex_curve()) == 3


def test_check_constraint_examples():
    p, a = line_through_two_points()
    rep = check_constraint(p, a)
    assert rep.satisfies and rep.simple and rep.codim == 4
    bad = constraint_set([((), (-1, 1)), ((), (1, 1))], 2)
    rep = check_constraint(p, bad)
    assert not rep.satisfies
    # corank-1 and non-saturated constraint spaces are rejected at construction
    with pytest.raises(ValueError):
        constraint_set([([(0, 1)], (-1, -5))], 2)
    with pytest.raises(ValueError, match="constraint sublattice must be saturated"):
        constraint_set([([(2, 0, 0)], (0, 0, 0))], 3)


def test_check_constraint_simple_flags():
    p, a = triangle_elliptic()
    rep = check_constraint(p, a)
    assert rep.satisfies and rep.simple and rep.codim == 4


def test_tropical_j():
    tri = param_curve(
        curve(["a", "b", "c"], ["z"],
              [("e", ("a", "b"), 1), ("f", ("b", "c"), 1), ("g", ("c", "a"), 1),
               ("r", ("a", "z"), None)]),
        2,
        {"a": (0, 0), "b": (1, 0), "c": (0, 1), "z": (0, 0)})
    assert tropical_j(tri) == 3
    loop = param_curve(
        curve(["v"], ["z"], [("l", ("v", "v"), F(5, 2)), ("r", ("v", "z"), None)]),
        2, {"v": (0, 0), "z": (0, 0)})
    assert tropical_j(loop) == F(5, 2)
    with pytest.raises(GenusNotOne):
        tropical_j(tropical_line())


def test_tropical_j_subdivision_invariant():
    p, _ = triangle_elliptic()
    j = tropical_j(p)
    p2 = extend_parameterization(p, [Subdivide("c12", (F(1, 4), F(1, 2)))])
    assert tropical_j(p2) == j


def _cycle_and_contraction_cases():
    """The corpora, each curve subdivided at the middle of every bounded
    edge, and the genus-one shapes of the golden inputs."""
    curves = [p for p, _ in corpus(4111, 60) + elliptic_corpus(4112, 40)]
    halved = [extend_parameterization(p, [
        Subdivide(e.id, (e.length / 2,))
        for e in p.curve.bounded_edges()]) for p in curves]
    golden = Path(__file__).resolve().parent / "golden" / "inputs"
    shapes = [load(str(golden / f"{name}.json"))[0] for name in (
        "loop_elliptic", "parallel_elliptic", "pendant_elliptic",
        "zero_cycle_elliptic")]
    return curves + halved + shapes + [triangle_elliptic()[0]]


def test_cycle_and_contraction_match_oracles():
    # the BFS forest of tropgraph against a walk per deleted edge; the
    # contraction by label propagation drops exactly the zero-slope edges
    cases = _cycle_and_contraction_cases()
    assert sum(genus(p.curve) == 1 for p in cases) >= 80
    for p in cases:
        if genus(p.curve) == 1:
            want = oracle_cycle_ids(p.curve)
            assert [e.id for e in tropgraph.cycle_edges(p.curve)] == want
            assert tropical_j(p) == sum(p.curve.edge(eid).length
                                        for eid in want)
        else:
            with pytest.raises(GenusNotOne):
                tropical_j(p)
        q = oracle_contraction(p)
        assert [e.id for e in q.curve.edges] == [
            e.id for e in p.curve.edges
            if not e.is_bounded or edge_geometry(p, e.id).slope is not None]
    tri, _ = triangle_elliptic()
    assert [e.id for e in tropgraph.cycle_edges(tri.curve)] == [
        "c12", "c23", "c31"]


def test_stabilize_param():
    p = extend_parameterization(
        tropical_line(), [Subdivide("f1", (1, 2))])
    st = stabilize_param(p)
    assert not param_violations(st)
    assert len(st.curve.finite_vertices) == 1
    assert st.curve.infinite_vertices == p.curve.infinite_vertices
    # a stable curve keyed by exactly its vertices is its own
    # stabilization, so the facts derived from it are kept
    q, _ = line_through_two_points()
    assert stabilize_param(q) is q


def test_stabilization_derived_once_per_object(monkeypatch):
    calls = []
    stabilize = tropgraph.stabilize
    monkeypatch.setattr(tropgraph, "stabilize",
                        lambda c: calls.append(c) or stabilize(c))
    p = extend_parameterization(
        tropical_line(), [Subdivide("f1", (1, 2))])
    st = stabilize_param(p)
    assert stabilize_param(p) is st and stabilize_param(st) is st
    assert calls == [p.curve, st.curve]
    # an unbalanced but valid curve is stabilized too
    skew = ParamTropicalCurve(p.curve, p.lattice_rank,
                              {**p.h, "u3": (F(1), F(2))})
    assert param_violations(skew)
    assert stabilize_param(skew).curve == st.curve
    # a curve with no stabilization raises the same error on every call
    bad = param_curve(curve(["v"], ["a", "b"], [("r1", ("v", "a"), None),
                                                ("r2", ("v", "b"), None)]),
                      2, {"v": (0, 0), "a": (1, 0), "b": (-1, 0)})
    messages = []
    for _ in range(2):
        with pytest.raises(NotStabilizable) as exc:
            stabilize_param(bad)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "_stabilization" not in vars(bad)


def test_zero_slope_count():
    line, _ = line_through_two_points()
    assert zero_slope_bounded_count(line) == 0
    flat = param_curve(
        curve(["v", "w"], ["a", "b", "c"],
              [("z", ("v", "w"), 1),
               ("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("w", "c"), None)]),
        2, {"v": (1, 1), "w": (1, 1), "a": (1, 0), "b": (-1, 0), "c": (0, 0)})
    assert zero_slope_bounded_count(flat) == 1


def _random_saturated(rng, n, r):
    """A saturated rank-r sublattice of Z^n, found by the reference route."""
    while True:
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
        try:
            lat = saturation(Sublattice(n, rows)) if r else Sublattice(n, ())
        except ValueError:      # dependent rows
            continue
        if lat.rank == r:
            return lat


def test_presentation_agrees_with_general_lattice_routes():
    # membership in space_Q and trivial meeting with a slope, read off the
    # presentation, against solve_rational and lattice_intersect
    rng = random.Random(5)
    seen = set()
    for n in range(2, 6):
        for r in range(n - 1):
            for _ in range(12):
                space = _random_saturated(rng, n, r)
                con = constraint_set([(space.basis, (0,) * n)], n).items[0]
                for _ in range(12):
                    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(r)]
                    v = tuple(sum((c * row[k] for c, row in zip(coeffs, space.basis)),
                                  F(0)) for k in range(n))
                    if rng.random() < 0.5:
                        v = tuple(x + F(rng.randint(-1, 1), rng.randint(1, 3))
                                  for x in v)
                    member = solve_rational(space.basis, v) is not None
                    assert con.maps_to_zero(v) == member, (space, v)
                    s = tuple(int(x * 6) for x in v)
                    if not any(s):
                        continue
                    trivial = lattice_intersect(Sublattice(n, (s,)), space).rank == 0
                    assert con.maps_to_zero(s) != trivial, (space, s)
                    seen.add((member, trivial))
    assert seen == {(True, False), (False, True)}


DENOMINATORS = (1, 2, 3, 7, 10**12 + 39, 2**64)


def _rational(rng, bound):
    return F(rng.randint(-bound, bound), rng.choice(DENOMINATORS))


def _membership_vectors(rng, con, count):
    """Vectors around space_Q: zero, integral values held as Fractions,
    rational points of the span with mixed and large denominators, the
    same points moved just off the span, and arbitrary rational vectors."""
    n = con.space.ambient_rank
    out = [(F(0, 1),) * n, (0,) * n, (F(-3, 1),) + (F(0, 1),) * (n - 1),
           tuple(F(rng.randint(-9, 9), 1) for _ in range(n))]
    for _ in range(count):
        coeffs = [_rational(rng, 10**6) for _ in con.space.basis]
        v = tuple(sum((c * row[k] for c, row in zip(coeffs, con.space.basis)),
                      F(0, 1)) for k in range(n))
        k = rng.randrange(n)
        nudge = F(1, rng.choice(DENOMINATORS[1:]))
        out += [v, tuple(x + nudge if i == k else x for i, x in enumerate(v)),
                tuple(_rational(rng, 50) for _ in range(n))]
    return out


def test_integer_membership_matches_fraction_route():
    # maps_to_zero clears denominators and multiplies in integers, as
    # on_translate does on a point already cleared over d; the reference
    # multiplies the presentation out in Fractions
    rng = random.Random(7007)
    cons = [con for _, a in corpus(7008, 80) for con in a.items]
    assert {(c.space.ambient_rank, c.space.corank) for c in cons} == {
        (2, 2), (3, 2), (3, 3)}
    cons += [constraint_set([(c.space.basis,
                              tuple(_rational(rng, 10**9) for _ in c.point))],
                            c.space.ambient_rank).items[0] for c in cons]
    outcomes = set()
    for con in cons:
        for v in _membership_vectors(rng, con, 6):
            want = fraction_maps_to_zero(con.presentation, v)
            assert con.maps_to_zero(v) == want, (con, v)
            x = tuple(a + y for a, y in zip(con.point, v))
            d = lcm(*(y.denominator for y in x))
            dx = tuple(y.numerator * (d // y.denominator) for y in x)
            for k in (1, 6):    # over the least d and over a multiple
                assert con.on_translate(k * d, tuple(k * y for y in dx)) \
                    == want, (con, x, k)
            outcomes.add((con.space.rank > 0, want))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_simplicity_asks_slopes_to_leave_the_constraint_space():
    # v0 carries the marked end m; its bounded edge e has slope (1, 0, 0)
    c = curve(["v0", "v1"], ["m", "a", "b", "c"],
              [("e", ("v0", "v1"), 1), ("g", ("v0", "m"), None),
               ("f", ("v0", "a"), None), ("r1", ("v1", "b"), None),
               ("r2", ("v1", "c"), None)])
    p = param_curve(c, 3, {"v0": (0, 0, 0), "v1": (1, 0, 0), "m": (0, 0, 0),
                           "a": (-1, 0, 0), "b": (0, 1, 0), "c": (1, -1, 0)})
    along = check_constraint(p, constraint_set([([(1, 0, 0)], (5, 0, 0))], 3))
    assert along.satisfies and not along.simple
    across = check_constraint(p, constraint_set([([(0, 0, 1)], (0, 0, 7))], 3))
    assert across.satisfies and across.simple
    off = check_constraint(p, constraint_set([([(0, 0, 1)], (0, 1, 0))], 3))
    assert not off.satisfies
