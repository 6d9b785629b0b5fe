"""Cross-cutting invariants tying the modules together, checked on the
seeded random corpus."""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from pathlib import Path

from corpus import (
    corpus,
    elliptic_corpus,
    elliptic_rigid,
    moved,
    relabeled,
    rigid_genus0,
    rigid_with_lines,
)
from fixture_curves import doubled_line, line_through_two_points
from oracles import (
    cone,
    mat_vec,
    oracle_contains,
    quotient_form_dims,
    random_unimodular,
)
from tropicorr.complexes import (
    ComplexSpec,
    compute,
    rank,
    regularity,
    sizes_over,
)
from tropicorr.counting import (
    correspondence_count,
    elliptic_count,
    moduli_dimension,
    stacky_multiplier,
)
from tropicorr.curvefile import load
from tropicorr.errors import TropicorrError
from tropicorr.exactla import CoeffGroup
from tropicorr.fanmodel import (
    build_K,
    gamma_tr,
    intersect_cones,
    ramification,
    reduction_exponents,
    refine_to_fan,
)
from tropicorr.paramcurve import (
    constraint_set,
    edge_geometry,
    extend_parameterization,
    param_violations,
    stabilize_param,
    zero_slope_bounded_count,
)
from tropicorr import tropgraph
from tropicorr.stacky import node_stack, stacky_data
from tropicorr.tropgraph import (
    AttachTree,
    Subdivide,
    TropicalCurve,
    curve,
    modify,
    valency,
)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def multiplicity_set(p):
    return {edge_geometry(p, e.id).multiplicity for e in p.curve.edges}


def random_steps(rng, p, with_attach):
    steps = []
    tag = rng.randrange(10 ** 6)
    for e in p.curve.bounded_edges():
        if rng.random() < 0.5:
            cuts = sorted({F(rng.randint(1, 3), 4) * e.length})
            steps.append(Subdivide(e.id, tuple(cuts)))
    for e in p.curve.unbounded_edges():
        if rng.random() < 0.3:
            steps.append(Subdivide(e.id, (F(rng.randint(1, 4), 2),)))
    if with_attach and rng.random() < 0.5:
        root = rng.choice(p.curve.finite_vertices)
        tree = curve([f"tr{tag}", f"ts{tag}"], [],
                     [(f"te{tag}", (f"tr{tag}", f"ts{tag}"), 1)])
        steps.append(AttachTree(root, tree, f"tr{tag}"))
    return steps


def test_multiplicity_sets_under_modification():
    rng = random.Random(321)
    for p, _ in corpus(606, 40, constrained=False, decorations=False):
        before = multiplicity_set(p)
        pure = extend_parameterization(p, random_steps(rng, p, with_attach=False))
        assert multiplicity_set(pure) == before
        mixed = extend_parameterization(p, random_steps(rng, p, with_attach=True))
        after = multiplicity_set(mixed)
        assert before <= after <= before | {0}


def test_extend_parameterization_balanced_and_restricts():
    rng = random.Random(7231)
    for p, _ in corpus(909, 30, constrained=False):
        p2 = extend_parameterization(p, random_steps(rng, p, with_attach=True))
        assert not param_violations(p2)
        for v in p.curve.vertex_ids():
            assert p2.hv(v) == p.hv(v)


def chained_steps(rng, p):
    """``random_steps`` with attachments, then steps on what those made:
    the far piece of each subdivided edge is cut again, each attached
    tree's edge is cut, and a tree with a contracted end is hung at a new
    subdivision vertex and its end cut."""
    steps = random_steps(rng, p, with_attach=True)
    more = []
    for step in steps:
        if isinstance(step, AttachTree):
            more.append(Subdivide(step.tree.edges[0].id, (F(1, 2),)))
        elif (e := p.curve.edge(step.edge)).is_bounded:
            rest = e.length - step.distances[-1]
            more.append(Subdivide(f"{step.edge}.p1", (rest / 2,)))
        else:
            more.append(Subdivide(f"{step.edge}.p1", (F(1, 3),)))
    if more and not isinstance(steps[0], AttachTree):
        tag = rng.randrange(10 ** 6)
        r, s, x = f"cr{tag}", f"cs{tag}", f"cx{tag}"
        tree = curve([r, s], [x], [(f"ca{tag}", (r, s), F(1, 2)),
                                   (f"cb{tag}", (s, x), None)])
        more += [AttachTree(f"{steps[0].edge}.v1", tree, r),
                 Subdivide(f"cb{tag}", (1,))]
    return steps + more


def test_one_walk_equals_stepwise_transport(monkeypatch):
    # one _modify walk and one curve per call give what transporting the
    # steps one at a time gives, and the curve that modify gives
    walks, curves = [], []
    walk, build = tropgraph._modify, TropicalCurve.__init__

    def counted_walk(c, steps):
        walks.append(steps)
        return walk(c, steps)

    def counted_build(self, *fields):
        curves.append(fields)
        build(self, *fields)

    rng = random.Random(2718)
    chained = 0
    for p, _ in corpus(606, 60, constrained=False):
        steps = chained_steps(rng, p)
        if not steps:   # the fold would return p itself, h in input order
            continue
        chained += sum(".p1" in getattr(step, "edge", "") for step in steps)
        with monkeypatch.context() as patch:
            patch.setattr(tropgraph, "_modify", counted_walk)
            patch.setattr(TropicalCurve, "__init__", counted_build)
            walks.clear()
            curves.clear()
            q = extend_parameterization(p, iter(steps))
            assert (len(walks), len(curves)) == (1, 1)
        stepwise = reduce(lambda r, step: extend_parameterization(r, [step]),
                          steps, p)
        assert q == stepwise
        assert list(q.h.items()) == list(stepwise.h.items())
        assert q.curve == modify(p.curve, steps)
        assert not param_violations(q)
    assert chained >= 60


def test_k_regular_implies_kstar_regular_and_orders():
    rng = random.Random(140)
    seen = 0
    for _ in range(30):
        p, a = rigid_genus0(rng, rng.choice((2, 3)))
        for char_p in (0, 2, 3, 5):
            field_verdict = regularity(p, a, CoeffGroup.field(char_p))
            units_verdict = regularity(p, a, CoeffGroup.units(char_p))
            if field_verdict.g_regular:
                assert units_verdict.g_regular
                # with c = 0 and codim = rank the orders match the Z-side
                assert zero_slope_bounded_count(p) == 0
                if char_p == 0:
                    for variant in ("b", "beta"):
                        z = compute(p, ComplexSpec(variant, a))
                        e1_kstar, _ = sizes_over(z.E1_rank, z.E2,
                                                 CoeffGroup.units(char_p))
                        assert e1_kstar.finite_order == z.E2.torsion_order
                seen += 1
    assert seen >= 20


def test_elliptic_regular_kernel_rank():
    # for elliptically Q-regular pairs the j-constrained kernel rank is
    # rank(Gamma) - codim(A) - 1
    count = 0
    for p, a in elliptic_corpus(246810, 40):
        rep = compute(p, ComplexSpec("beta", a, elliptic=True))
        _, e2_q = sizes_over(rep.E1_rank, rep.E2, CoeffGroup("Q"))
        if e2_q.kdim != 0:
            continue
        assert rep.E1_rank == rank(p) - a.codim - 1
        count += 1
    assert count >= 10


def test_moduli_dimension_zero_iff_trivalent():
    for p, _ in corpus(117, 40, constrained=False):
        p_st = stabilize_param(p)
        trivalent = all(valency(p_st.curve, v) == 3
                        for v in p_st.curve.finite_vertices)
        assert (moduli_dimension(p) == 0) == trivalent


def test_stacky_multiplier_subdivision_invariant():
    rng = random.Random(8080)
    for p, _ in corpus(5225, 20, constrained=False, decorations=False):
        base = stacky_multiplier(p)
        p2 = extend_parameterization(p, random_steps(rng, p, with_attach=True))
        assert stacky_multiplier(p2) == base


def test_edge_multiplicity_divides_cone_stabilizer():
    for p, _ in corpus(99, 15, constrained=False):
        tr = gamma_tr(p)
        a = ramification(tr, 1)["minimal_a"]
        st = stacky_data(tr, a)
        for c, eids in st.fan.cone_edges.items():
            for eid in eids:
                e = tr.curve.edge(eid)
                if not e.is_bounded:
                    continue
                mult = edge_geometry(tr, eid).multiplicity
                assert st.stabilizer_order[c] % mult == 0


def test_structure_is_covariant_under_lattice_automorphisms():
    # x -> A x + t with A unimodular and t integral acts on N + R as
    # (x, h) -> (A x + h t, h), an element of GL_{n+1}(Z): the refined
    # curve, the minimal a and the node and marked orders stay, the fan
    # and its stacky orders map cone by cone, and each vertex's reduction
    # exponents map by A edge by edge.  Renaming every vertex and edge
    # moves no point: the fan and its orders stay cone by cone, and the
    # refined curve, the minimal a, the order values and each vertex's
    # exponent vectors stay up to names
    rng, names = random.Random(2607), random.Random(811)
    for n, count in ((2, 200), (3, 60)):
        for _ in range(count):
            p, _ = rigid_genus0(rng, n)
            a = random_unimodular(rng, n)
            t = tuple(rng.randint(-3, 3) for _ in range(n))

            def lift(c):
                return cone(*(tuple(x + r[-1] * s for x, s
                                    in zip(mat_vec(a, r[:-1]), t)) + r[-1:]
                              for r in c))

            out = []
            for q in (p, moved(p, None, a, t)[0], relabeled(p, names)):
                tr = gamma_tr(q)
                m = ramification(tr, 1)["minimal_a"]
                out.append((tr, m, stacky_data(tr, m), node_stack(tr), {
                    v: reduction_exponents(tr, v)
                    for v in tr.curve.finite_vertices}))
            ((tr, m, st, ns, ex), (tr2, m2, st2, ns2, ex2),
             (tr3, m3, st3, ns3, ex3)) = out
            assert tr2.curve == tr.curve and m2 == m and ns2 == ns
            assert {lift(c) for c in st.fan.cones} == set(st2.fan.cones)
            assert {lift(c): k for c, k in st.stabilizer_order.items()} \
                == st2.stabilizer_order
            assert m3 == m and st3.fan.cones == st.fan.cones
            assert st3.stabilizer_order == st.stabilizer_order
            assert (len(tr3.curve.finite_vertices)
                    == len(tr.curve.finite_vertices))
            assert ([sorted(orders.values()) for orders in ns3]
                    == [sorted(orders.values()) for orders in ns])
            assert ex2 == {v: [(eid, mat_vec(a, s)) for eid, s in row]
                           for v, row in ex.items()}
            assert (Counter(tuple(sorted(s for _, s in row))
                            for row in ex3.values())
                    == Counter(tuple(sorted(s for _, s in row))
                               for row in ex.values()))


def _count_outcome(count, p, a, char_p):
    try:
        res = count(p, a, char_p)
    except TropicorrError as exc:
        return exc.code
    return res.count, res.torsor_order


def test_counts_are_invariant_under_lattice_automorphisms():
    # x -> A x + t moves the curve and each constraint (its basis by A, its
    # point like a finite vertex) by one automorphism of N_Q preserving N,
    # so every count, torsor order and refusal stays.  So does x -> lam A x
    # + t with lam > 0 and t rational, which also scales each bounded length
    # by lam: every edge keeps its slope and multiplicity up to A.  Renaming
    # every vertex and edge keeps the constraints, which bind by
    # infinite-vertex order, and reaches the orders that names decide
    rng, scales = random.Random(808), random.Random(809)
    names = random.Random(811)
    items = [(correspondence_count, rigid_genus0(rng, n))
             for n in (2, 3) for _ in range(60)]
    items += [(correspondence_count, rigid_with_lines(rng)) for _ in range(60)]
    items += [(elliptic_count, elliptic_rigid(rng, n))
              for n in (2, 3) for _ in range(60)]
    counted = Counter()
    for count, (p, a) in items:
        n = p.lattice_rank
        moves = [moved(p, a, random_unimodular(rng, n),
                       tuple(rng.randint(-3, 3) for _ in range(n))),
                 moved(p, a, random_unimodular(scales, n),
                       tuple(Fraction(scales.randint(-6, 6),
                                      scales.randint(1, 4)) for _ in range(n)),
                       Fraction(scales.randint(1, 5), scales.randint(1, 5))),
                 (relabeled(p, names), a)]
        for char_p in (0, 2, 3):
            before = _count_outcome(count, p, a, char_p)
            assert [_count_outcome(count, q, b, char_p)
                    for q, b in moves] == [before] * 3, (p, char_p)
            counted[count.__name__] += not isinstance(before, str)
    assert counted["correspondence_count"] >= 120, counted
    assert counted["elliptic_count"] >= 60, counted


def test_line_constraints_do_not_depend_on_the_point_on_the_line():
    # a line constraint point + Q v is the same affine space wherever its
    # point sits on the line, so moving the point by t v, t a rational of
    # denominator 2 to 7, keeps every count, torsor order and refusal
    rng, shifts = random.Random(808), random.Random(809)

    def slide(c):
        d = shifts.randint(2, 7)
        t = shifts.randint(-3, 3) + Fraction(shifts.randint(1, d - 1), d)
        return tuple(x + t * v for x, v in zip(c.point, c.space.basis[0]))

    counted = 0
    for _ in range(60):
        p, a = rigid_with_lines(rng)
        b = constraint_set([(c.space.basis,
                             slide(c) if c.space.rank else c.point)
                            for c in a.items], p.lattice_rank)
        assert b != a
        for char_p in (0, 2, 3):
            before = _count_outcome(correspondence_count, p, a, char_p)
            assert _count_outcome(correspondence_count, p, b, char_p) \
                == before, (p, a, b, char_p)
            counted += not isinstance(before, str)
    assert counted >= 30, counted


def _canonical(c) -> bool:
    """Is c a tuple of distinct primitive integer vectors in ascending
    order, the one spelling of a cone that dict lookups rely on?"""
    return (type(c) is tuple
            and all(type(g) is tuple and all(type(x) is int for x in g)
                    and gcd(*g) == 1 for g in c)
            and all(g < h for g, h in zip(c, c[1:])))


def test_cones_are_ascending_tuples_of_primitive_generators():
    curves = [p for p, _ in corpus(31, 120) + elliptic_corpus(31, 60)]
    curves += [load(str(path))[0] for path in sorted(FIXTURES.glob("*.json"))]
    checked = 0
    for p in curves:
        tr = gamma_tr(p)
        k = build_K(p)
        cones = list(dict.fromkeys((*k, *refine_to_fan(k), *tr.fan.cones)))
        st = stacky_data(tr, ramification(tr, 1)["minimal_a"])
        two = [c for c in cones if len(c) == 2]
        meets = [intersect_cones(c1, c2) for c1, c2 in combinations(two, 2)]
        for c in (*cones, *meets, *st.scaled_of.values()):
            assert _canonical(c), c
            checked += 1
    assert checked > 15000


def test_fan_support_preserved():
    rng = random.Random(4096)
    for p, _ in corpus(2024, 12, constrained=False):
        k = [c for c in build_K(p) if c]
        fan = [c for c in refine_to_fan(k) if c]
        samples = []
        for c in k + fan:
            for g in c:
                samples.append(g)
            if len(c) == 2:
                g1, g2 = c
                samples.append(tuple(2 * a + b for a, b in zip(g1, g2)))
                samples.append(tuple(a + 3 * b for a, b in zip(g1, g2)))
        n1 = len(samples[0])
        samples += [tuple(rng.randint(-4, 4) for _ in range(n1))
                    for _ in range(30)]
        for w in samples:
            if not any(w):
                continue
            in_k = any(oracle_contains(c, w) for c in k)
            in_fan = any(oracle_contains(c, w) for c in fan)
            assert in_k == in_fan


def test_quotient_form_matches_full_complex_on_corpus():
    # the one-term quotient complex is an independent route to the plain
    # dimensions over any field, and to the stacky ones off bad primes
    def dims(rep, grp):
        e1, e2 = sizes_over(rep.E1_rank, rep.E2, grp)
        return e1.kdim, e2.kdim

    for p, a in corpus(161803, 30):
        mults = [edge_geometry(p, e.id).multiplicity
                 for e in p.curve.bounded_edges()]
        e_rep = compute(p, ComplexSpec("b", a))
        ce_rep = compute(p, ComplexSpec("beta", a))
        for grp in (CoeffGroup("Q"), CoeffGroup.field(2),
                    CoeffGroup.field(3)):
            char_p = 0 if grp.kind == "Q" else grp.p
            k, c = quotient_form_dims(p, a, grp)
            assert dims(e_rep, grp) == (k, c)
            if char_p == 0 or all(m % char_p for m in mults if m):
                assert dims(ce_rep, grp) == (k, c)


def test_regularity_size_consistency_fixtures():
    # |E1_kstar(Gamma, A)| = |E2(Gamma, A)| on the two rigid fixtures
    for (p, a), expect in ((line_through_two_points(), 1), (doubled_line(), 1)):
        zz = compute(p, ComplexSpec("b", a))
        e1_kstar, _ = sizes_over(zz.E1_rank, zz.E2, CoeffGroup.units(0))
        assert e1_kstar.finite_order == zz.E2.torsion_order == expect
