import random
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import corpus, elliptic_corpus
from oracles import stabilize_by_rescanning, tropical_isomorphic
from tropicorr import paramcurve as pc
from tropicorr import tropgraph
from tropicorr.curvefile import load
from tropicorr.fanmodel import gamma_tr
from tropicorr.errors import BadSubdivision, NotStabilizable
from tropicorr.tropgraph import (
    AttachTree,
    Subdivide,
    curve,
    genus,
    is_stable,
    modify,
    satisfies_stability_bound,
    spanning_forest,
    stabilize,
    validate,
    valency,
)


def tripod():
    return curve(
        ["v"], ["a", "b", "c"],
        [("e1", ("v", "a"), None), ("e2", ("v", "b"), None), ("e3", ("v", "c"), None)],
    )


def loop_with_leg():
    return curve(
        ["v"], ["a"],
        [("loop", ("v", "v"), 1), ("leg", ("v", "a"), None)],
    )


def test_validate_examples():
    assert validate(curve(["v"])) == []
    bad = curve(["v", "w"], ["z"], [("e", ("v", "z"), None), ("f", ("w", "z"), None)])
    assert any("(p2)" in msg for msg in validate(bad))
    zero = curve(["v", "w"], [], [("e", ("v", "w"), 0)])
    assert any("(p3)" in msg for msg in validate(zero))
    stray = curve(["v", "w"], ["a"], [("e", ("v", "zz"), 1),
                                      ("f", ("v", "w"), 1), ("r", ("w", "a"), None)])
    assert "edge e has unknown endpoint" in validate(stray)


def test_validate_disconnected():
    c = curve(["v", "w"])
    assert "disconnected" in validate(c)


def test_genus_examples():
    assert genus(curve(["v"], [], [("l", ("v", "v"), 1)])) == 1
    path = curve(["a", "b", "c"], [], [("e", ("a", "b"), 1), ("f", ("b", "c"), 1)])
    assert genus(path) == 0
    tri = curve(["a", "b", "c"], [],
                [("e", ("a", "b"), 1), ("f", ("b", "c"), 1), ("g", ("c", "a"), 1)])
    assert genus(tri) == 1


def test_subdivide_bounded():
    c = curve(["a", "b"], [], [("e", ("a", "b"), 1)])
    c2 = modify(c, [Subdivide("e", (Fraction(1, 3),))])
    lens = sorted(e.length for e in c2.edges)
    assert lens == [Fraction(1, 3), Fraction(2, 3)]
    assert genus(c2) == genus(c)
    assert sum(e.length for e in c2.bounded_edges()) == 1


def test_subdivide_unbounded():
    c = tripod()
    c2 = modify(c, [Subdivide("e1", (Fraction(2),))])
    bounded = [e for e in c2.edges if e.is_bounded]
    assert len(bounded) == 1 and bounded[0].length == 2
    assert len(c2.unbounded_edges()) == 3
    assert c2.infinite_vertices == c.infinite_vertices


def test_attach_tree():
    c = tripod()
    tree = curve(["r", "t"], [], [("te", ("r", "t"), 1)])
    c2 = modify(c, [AttachTree("v", tree, "r")])
    assert valency(c2, "v") == 4
    assert genus(c2) == 0
    assert c2.infinite_vertices == c.infinite_vertices


def test_attach_tree_with_infinite_leaf_appends_order():
    c = tripod()
    tree = curve(["r"], ["leaf"], [("te", ("r", "leaf"), None)])
    c2 = modify(c, [AttachTree("v", tree, "r")])
    assert c2.infinite_vertices == ("a", "b", "c", "leaf")


def test_bad_subdivisions():
    c = curve(["a", "b"], [], [("e", ("a", "b"), 1)])
    with pytest.raises(BadSubdivision):
        modify(c, [Subdivide("e", (Fraction(2, 3), Fraction(1, 3)))])
    with pytest.raises(BadSubdivision):
        modify(c, [Subdivide("e", (Fraction(3, 2),))])


def test_stabilize_identity_on_stable():
    c = tripod()
    assert stabilize(c) == c


def test_stabilize_loop_subdivided():
    # loop of length 1 subdivided into 3 arcs, one unbounded leg
    c = curve(
        ["x", "y", "z"], ["a"],
        [("e1", ("x", "y"), Fraction(1, 3)), ("e2", ("y", "z"), Fraction(1, 3)),
         ("e3", ("z", "x"), Fraction(1, 3)), ("leg", ("x", "a"), None)],
    )
    st = stabilize(c)
    assert tropical_isomorphic(st, loop_with_leg())
    assert sum(e.length for e in st.bounded_edges()) == 1


def test_stabilize_rejects_two_ended_line():
    # pruning a tree keeps the genus and the ends, so a line (g = 0, two
    # ends) or a lone loop vertex (g = 1, no ends), bare or under a hanging
    # tree, fails the stability bound on entry: smoothing never meets either
    tree = [("t1", ("v", "s"), 1), ("t2", ("s", "t"), 2)]
    line = [("e1", ("v", "a"), None), ("e2", ("v", "b"), None)]
    loop = [("l", ("v", "v"), 1)]
    h = {"v": (0, 0), "s": (0, 0), "t": (0, 0), "a": (-1, 0), "b": (1, 0)}
    for c in [curve(["v"], ["a", "b"], line),
              curve(["v", "s", "t"], ["a", "b"], line + tree),
              curve(["v", "s", "t"], [], loop + tree)]:
        assert not validate(c) and not satisfies_stability_bound(c)
        p = pc.param_curve(c, 2, {v: h[v] for v in c.vertex_ids()})
        assert not pc.param_violations(p)
        for call, arg in [(stabilize, c), (pc.stabilize_param, p)]:
            with pytest.raises(NotStabilizable) as info:
                call(arg)
            assert str(info.value) == ("genus and infinite-vertex count "
                                       "violate the stability bound")


def test_stabilize_reports_the_violations():
    bad = curve(["v", "w"], ["a", "b", "c"],
                [("e1", ("v", "a"), None), ("e2", ("v", "b"), None),
                 ("e3", ("v", "c"), None), ("e4", ("v", "w"), 0),
                 ("e5", ("w", "a"), None)])
    with pytest.raises(NotStabilizable) as info:
        stabilize(bad)
    message = str(info.value)
    assert "input curve is invalid" in message
    assert "bounded edge e4 has non-positive length" in message
    assert "infinite vertex a has valency 2" in message


def test_stabilize_idempotent_and_preserves_infinite_order():
    c = modify(tripod(), [Subdivide("e2", (1, 2))])
    st = stabilize(c)
    assert stabilize(st) == st
    assert st.infinite_vertices == c.infinite_vertices
    assert is_stable(st)


def test_stabilize_prunes_hanging_tree():
    tree = curve(["r", "s", "t"], [],
                 [("t1", ("r", "s"), 1), ("t2", ("s", "t"), 2)])
    c = modify(tripod(), [AttachTree("v", tree, "r")])
    st = stabilize(c)
    assert tropical_isomorphic(st, tripod())


def test_stabilize_returns_a_stable_input_itself():
    c = tripod()
    assert stabilize(c) is c
    st = stabilize(modify(c, [Subdivide("e2", (1, 2))]))
    assert st is not c and stabilize(st) is st


def hanging_tree(parents, root_first, tag):
    """A metric tree rooted at "r": vertex k >= 1, numbered parents first,
    hangs from vertex parents[k - 1] by an edge of length k.  The other ids
    sort root-first or leaf-first."""
    n = len(parents)

    def name(k):
        return "r" if k == 0 else f"{tag}{k if root_first else n + 1 - k:04d}"

    return curve([name(k) for k in range(n + 1)], [],
                 [(f"{tag}e{k}", (name(p), name(k)), k)
                  for k, p in enumerate(parents, 1)])


def test_stabilize_matches_the_rescanning_loops_on_the_corpus():
    rng = random.Random(4711)
    curves = [p.curve for p, _ in corpus(8080, 40, constrained=False)]
    curves += [modify(c, random_modification(rng, c)) for c in curves]
    # deep hanging trees, pruned from a 3-valent vertex, and from a vertex
    # that is left 2-valent and smoothed, on a tree and on a loop
    for shape in ([0, 1, 2, 3, 4], [0, 0, 1, 1, 2, 4, 4]):
        for root_first in (True, False):
            t = hanging_tree(shape, root_first, "h")
            curves += [
                modify(tripod(), [AttachTree("v", t, "r")]),
                modify(tripod(), [Subdivide("e1", (1,), ("m",)),
                                  AttachTree("m", t, "r")]),
                modify(loop_with_leg(), [Subdivide("loop", (Fraction(1, 2),), ("m",)),
                                         AttachTree("m", t, "r")])]
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    tr = gamma_tr(load(str(fixtures / "xconfig.json"))[0]).curve
    curves.append(tr)
    for c in curves:
        assert stabilize(c) == stabilize_by_rescanning(c), c
    # both branches of stabilize are reached: 28 of the 93 are stable, and
    # the gamma_tr output is not
    assert 0 < sum(map(is_stable, curves)) < len(curves) and not is_stable(tr)


def test_stabilize_sorts_once_however_deep_the_hanging_tree(monkeypatch):
    # a leaf worklist prunes without sorting; the smoothing pass sorts once.
    # Rescanning the sorted finite vertices until no leaf is left takes one
    # pass per vertex of a path whose ids sort root-first.
    c = modify(tripod(), [AttachTree("v", hanging_tree(range(2000), True, "h"), "r")])
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(tropgraph, "sorted", counting_sorted, raising=False)
    assert stabilize(c) == tripod()
    assert len(calls) == 1


def random_modification(rng, c, allow_attach=True):
    steps = []
    bounded = [e.id for e in c.bounded_edges()]
    unbounded = [e.id for e in c.unbounded_edges()]
    tag = rng.randrange(10 ** 6)
    if bounded and rng.random() < 0.7:
        eid = rng.choice(bounded)
        e = c.edge(eid)
        cuts = sorted({Fraction(rng.randint(1, 7), 8) * e.length
                       for _ in range(rng.randint(1, 2))})
        steps.append(Subdivide(eid, tuple(cuts),
                               tuple(f"w{tag}.{i}" for i in range(len(cuts)))))
    if unbounded and rng.random() < 0.7:
        eid = rng.choice(unbounded)
        cuts = sorted({Fraction(rng.randint(1, 6), 2) for _ in range(rng.randint(1, 2))})
        steps.append(Subdivide(eid, tuple(cuts),
                               tuple(f"u{tag}.{i}" for i in range(len(cuts)))))
    if allow_attach and rng.random() < 0.5:
        root = rng.choice(c.finite_vertices)
        tree = curve([f"r{tag}", f"s{tag}"], [],
                     [(f"te{tag}", (f"r{tag}", f"s{tag}"), Fraction(rng.randint(1, 3)))])
        steps.append(AttachTree(root, tree, f"r{tag}"))
    return steps


def test_modify_preserves_genus_and_stabilize_recovers():
    rng = random.Random(2024)
    seeds = [tripod(), loop_with_leg(),
             curve(["p", "q"], ["a", "b", "c", "d"],
                   [("m", ("p", "q"), 3), ("e1", ("p", "a"), None),
                    ("e2", ("p", "b"), None), ("e3", ("q", "c"), None),
                    ("e4", ("q", "d"), None)])]
    for _ in range(25):
        s = rng.choice(seeds)
        c = s
        for _ in range(rng.randint(1, 3)):
            c = modify(c, random_modification(rng, c))
        assert genus(c) == genus(s)
        assert validate(c) == []
        st = stabilize(c)
        assert tropical_isomorphic(st, s), (s, st)
        assert st.infinite_vertices == c.infinite_vertices


def test_isomorphism_respects_lengths_and_order():
    c1 = curve(["v"], ["a", "b", "c"],
               [("e1", ("v", "a"), None), ("e2", ("v", "b"), None),
                ("e3", ("v", "c"), None)])
    assert tropical_isomorphic(c1, tripod())
    tri1 = curve(["a", "b", "c"], [],
                 [("e", ("a", "b"), 1), ("f", ("b", "c"), 2), ("g", ("c", "a"), 3)])
    tri2 = curve(["x", "y", "z"], [],
                 [("e", ("x", "y"), 3), ("f", ("y", "z"), 1), ("g", ("z", "x"), 2)])
    tri3 = curve(["x", "y", "z"], [],
                 [("e", ("x", "y"), 3), ("f", ("y", "z"), 1), ("g", ("z", "x"), 1)])
    assert tropical_isomorphic(tri1, tri2)
    assert not tropical_isomorphic(tri1, tri3)


def bounded_components(c):
    """Each finite vertex's component under the bounded edges, as the
    index in c.finite_vertices of the component's first vertex."""
    first = {v: i for i, v in enumerate(c.finite_vertices)}
    changed = True
    while changed:
        changed = False
        for e in c.bounded_edges():
            u, w = e.ends
            if first[u] != first[w]:
                first[u] = first[w] = min(first[u], first[w])
                changed = True
    return first


def test_spanning_forest_lists_parents_first_from_each_first_vertex():
    # the complexes' frame builds each vertex's tree path from its
    # parent's, so the forest must list every parent before its children,
    # root each component at its first finite vertex and use only bounded
    # edges that join the vertex to its parent
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    curves = [p.curve for p, _ in corpus(606, 60) + elliptic_corpus(607, 30)]
    curves += [load(str(path))[0].curve for path in sorted(fixtures.glob("*.json"))]
    curves.append(curve(["a", "b", "c", "d"], ["x"],
                        [("e1", ("b", "c"), 1), ("e2", ("d", "a"), 2),
                         ("r", ("c", "x"), None)]))
    assert len(curves) == 95
    for c in curves:
        up = spanning_forest(c)
        component = bounded_components(c)
        assert set(up) == set(c.finite_vertices)
        seen, roots = set(), set()
        for v, link in up.items():
            if link is None:
                assert component[v] == c.finite_vertices.index(v)
                roots.add(component[v])
            else:
                parent, e = link
                assert parent in seen and e.is_bounded
                assert sorted(e.ends) == sorted((parent, v))
            seen.add(v)
        assert roots == set(component.values())
