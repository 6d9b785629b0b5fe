import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain
from pathlib import Path

import pytest

from corpus import corpus, elliptic_corpus, plane_tree
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    tropical_line,
    two_vertex_curve,
    x_configuration,
)
from oracles import (
    check_fan,
    cone,
    oracle_contains,
    oracle_coords_in,
    oracle_intersect,
    rank,
    ray_through,
)
from tropicorr import exactla, fanmodel, stacky
from tropicorr import paramcurve as pc
from tropicorr.curvefile import load
from tropicorr.errors import CrossCheckFailed, NotBalanced
from tropicorr.exactla import primitive_vector
from tropicorr.fanmodel import (
    ZERO_CONE,
    _coords_in,
    build_K,
    cone_contains,
    fan_to_json,
    gamma_tr,
    intersect_cones,
    ramification,
    reduction_exponents,
    refine_to_fan,
)
from tropicorr.paramcurve import param_curve
from tropicorr.tropgraph import Subdivide, curve

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_cone_primitives_and_contains():
    c = cone((2, 2, 0), (0, 0, 3))
    assert c == ((0, 0, 1), (1, 1, 0))
    assert cone_contains(c, (3, 3, 5))
    assert not cone_contains(c, (1, 0, 0))
    assert not cone_contains(c, (-1, -1, 0))


def test_intersect_cones_transversal():
    c1 = cone((0, 0, 1), (2, 2, 1))
    c2 = cone((2, 0, 1), (0, 2, 1))
    inter = intersect_cones(c1, c2)
    assert inter == ((1, 1, 1),)


def test_intersect_cones_nested_sector():
    big = cone((0, 0, 1), (3, 0, 1))
    small = cone((1, 0, 1), (2, 0, 1))
    inter = intersect_cones(big, small)
    assert inter == small


def _random_vec(rng, m, spread=3):
    while True:
        v = primitive_vector(tuple(rng.randint(-spread, spread)
                                   for _ in range(m)))
        if v is not None:
            return v


def _cone_or_none(*gens):
    try:
        return cone(*gens)
    except ValueError:
        return None


def _combo(rng, g1, g2, lo=-2):
    return tuple(rng.randint(lo, 2) * x + rng.randint(lo, 2) * y
                 for x, y in zip(g1, g2))


def _cone_pairs(rng, m):
    """One pair of 2-cones in Z^m of each kind: the same plane, a shared
    ray, nested sectors, opposite rays, planes meeting in a line outside
    both cones, and random planes (which meet only in 0 when m >= 4)."""
    g1, g2, h, w = (_random_vec(rng, m) for _ in range(4))
    c1 = _cone_or_none(g1, g2)
    neg = tuple(-x for x in g1)
    out = [(c1, _cone_or_none(_combo(rng, g1, g2), _combo(rng, g1, g2))),
           (c1, _cone_or_none(g1, h)),
           (c1, _cone_or_none(_combo(rng, g1, g2, 1), _combo(rng, g1, g2, 1))),
           (c1, _cone_or_none(neg, h)),
           (c1, _cone_or_none(neg, tuple(-x for x in g2))),
           (_cone_or_none(g1, tuple(x - y for x, y in zip(g1, w))),
            _cone_or_none(h, tuple(x + y for x, y in zip(h, w)))),
           (c1, _cone_or_none(h, w))]
    return [(a, b) for a, b in out
            if a is not None and b is not None and len(a) == len(b) == 2]


def test_cone_arithmetic_matches_reference_route():
    rng = random.Random(4711)
    outcomes = set()
    pairs = 0
    for _ in range(150):
        for m in (2, 3, 4):
            for c1, c2 in _cone_pairs(rng, m):
                for x, y in ((c1, c2), (c2, c1)):
                    inter = intersect_cones(x, y)
                    assert inter == oracle_intersect(x, y), (x, y)
                    outcomes.add((len(x), len(y), len(inter)))
                pairs += 1
                for w in c2 + (_random_vec(rng, m),):
                    coords = _coords_in(c1, w)
                    expect = oracle_coords_in(c1, w)
                    if expect is None:
                        assert coords is None
                    else:
                        na, nb, d = coords
                        assert d > 0 and (F(na, d), F(nb, d)) == expect
                    assert cone_contains(c1, w) == oracle_contains(c1, w)
    assert pairs > 2000
    assert {(2, 2, 0), (2, 2, 1), (2, 2, 2)} <= outcomes


def test_intersect_cones_makes_no_smith_reduction(monkeypatch):
    # invariant_factors is the one Smith elimination
    calls = []
    reduce = exactla.invariant_factors

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(exactla, "invariant_factors", counted)
    rng = random.Random(17)
    for m in (2, 3, 4):
        for c1, c2 in _cone_pairs(rng, m):
            intersect_cones(c1, c2)
    gamma_tr(x_configuration())
    assert calls == []


def test_degenerate_cone_raises():
    with pytest.raises(CrossCheckFailed) as info:
        cone_contains(((1, 0, 0), (2, 0, 0)), (1, 0, 0))
    assert info.value.code == "CrossCheckFailed:cone_generators"


def eta_rays(p):
    """The rays of K with last coordinate 0: the unbounded directions."""
    return tuple(sorted(c[0] for c in build_K(p)
                        if len(c) == 1 and c[0][-1] == 0))


def test_fan_eta_examples():
    # the eta rays of a fan model are the rays l(rho) is kept on
    eta = [(-1, 0, 0), (0, -1, 0), (1, 1, 0)]
    assert sorted(gamma_tr(tropical_line()).fan.l_rho) == eta
    dbl, _ = doubled_line()
    assert sorted(gamma_tr(dbl).fan.l_rho) == eta == list(eta_rays(dbl))
    marked_only = param_curve(
        curve(["v"], ["a", "b"],
              [("r1", ("v", "a"), None), ("r2", ("v", "b"), None)]),
        2, {"v": (0, 0), "a": (0, 0), "b": (0, 0)})
    assert gamma_tr(marked_only).fan.l_rho == {}


def test_build_K_tropical_line():
    cones = build_K(tropical_line())
    rays = [c for c in cones if len(c) == 1]
    twos = [c for c in cones if len(c) == 2]
    assert len(rays) == 4  # vertical vertex ray + 3 horizontal eta rays
    assert len(twos) == 3
    assert ZERO_CONE in cones
    assert not check_fan(cones)


def test_refine_to_fan_x_configuration():
    p = x_configuration()
    k = build_K(p)
    assert check_fan(k)  # K itself is not a fan
    fan = refine_to_fan(k)
    assert not check_fan(fan)
    # the crossing introduces the ray through ((1,1),1)
    assert ((1, 1, 1),) in fan
    # supports agree on a sample of rational directions
    for w in [(1, 1, 1), (2, 2, 1), (1, 3, 2), (-1, -1, 0), (0, 3, 1), (5, 1, 3)]:
        in_k = any(oracle_contains(c, w) for c in k if c)
        in_fan = any(oracle_contains(c, w) for c in fan if c)
        assert in_k == in_fan


def test_gamma_tr_x_configuration():
    p = x_configuration()
    tr = gamma_tr(p)
    # one new vertex per crossing edge, both at (1,1)
    new = [v for v in tr.curve.finite_vertices if v not in p.curve.finite_vertices]
    assert len(new) == 2
    assert all(tr.hv(v) == (1, 1) for v in new)
    assert gamma_tr(tr).curve == tr.curve
    assert not check_fan(build_K(tr))


def _is_fan(cones):
    """The fan axiom as the refinement's fixed point: a collection is a fan
    exactly when it equals its refinement."""
    return set(refine_to_fan(cones)) == set(cones)


def _with_faces(cones, *extra):
    """cones with the 2-cones of extra added, each with its facet rays."""
    out = set(cones)
    for c in extra:
        if c is not None:
            out.add(c)
            out.update((g,) for g in c)
    return tuple(out)


def _vsum(u, v, k=1):
    return tuple(x + k * y for x, y in zip(u, v))


def _corrupted(rng, fan):
    """The fan with a facet ray dropped, a ray added inside a 2-cone, a
    coplanar 2-cone overlapping one, and a 2-cone crossing one."""
    twos = [c for c in fan if len(c) == 2]
    if not twos:
        return []
    c = rng.choice(twos)
    g1, g2 = c
    w = primitive_vector(_vsum(g1, g2))
    beyond = tuple(2 * y - x for x, y in zip(g1, g2))
    t = _random_vec(rng, len(g1))
    facet = (rng.choice(c),)
    return [tuple(x for x in fan if x != facet),
            _with_faces(fan) + ((w,),),
            _with_faces(fan, _cone_or_none(w, beyond)),
            _with_faces(fan, _cone_or_none(_vsum(w, t), _vsum(w, t, -1)))]


def _random_collection(rng, m):
    """The zero cone, a few rays and a few 2-cones with their facet rays,
    or a refinement of such a collection with one cone other than the
    zero cone dropped, if it has one."""
    cones = [ZERO_CONE] + [(_random_vec(rng, m),)
                           for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 3)):
        g = _random_vec(rng, m)
        h = rng.choice([_random_vec(rng, m), _vsum(g, _random_vec(rng, m, 1))])
        cones = _with_faces(cones, _cone_or_none(g, h))
    if rng.random() < 0.5:
        return cones
    fan = list(refine_to_fan(cones))
    if len(fan) > 1:
        fan.remove(rng.choice(fan[1:]))
    return tuple(fan)


def test_random_collections_all_build():
    # a refinement that is the zero cone alone has no other cone to drop
    rng = random.Random(5)
    lone = 0
    for _ in range(1200):
        for m in (2, 3, 4):
            cones = _random_collection(rng, m)
            assert ZERO_CONE in cones
            lone += cones == (ZERO_CONE,)
    assert lone


def test_fan_axiom_matches_all_pairs_oracle():
    rng = random.Random(2006)
    collections = []
    for p, _ in corpus(9, 24) + elliptic_corpus(9, 6):
        fan = refine_to_fan(build_K(p))
        collections += [fan, *_corrupted(rng, fan)]
    for m in (2, 3, 4):
        collections += [_random_collection(rng, m) for _ in range(100)]
    verdicts = []
    for cones in collections:
        verdicts.append(_is_fan(cones))
        assert verdicts[-1] == (not check_fan(cones)), cones
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_fan_axiom_failure_names_split_cones_and_rays():
    # K(p) of the X configuration is no fan: the refinement drops the two
    # crossed cones and adds the crossing ray and the halves on it
    p = load(str(FIXTURES / "xconfig.json"))[0]
    k = build_K(p)
    crossed = {c for c in k if len(c) == 2
               and oracle_contains(c, (1, 1, 1))
               and (1, 1, 1) not in c}
    assert len(crossed) == 2
    fan = refine_to_fan(k)
    halves = {c for c in fan if len(c) == 2 and (1, 1, 1) in c}
    assert len(halves) == 4
    assert set(k) - set(fan) == crossed
    assert set(fan) - set(k) == {((1, 1, 1),), *halves}


def test_fan_axiom_needs_the_faces_and_empty_chains():
    # each collection has one defect: a facet ray or the zero cone missing
    # (every chain still empty), or a lone ray strictly inside a 2-cone,
    # whose cone is extra and whose two halves are missing; the evidence is
    # what the collection and its refinement do not share
    low, high = cone((0, 0, 1), (1, 0, 1)), cone((0, 0, 1), (0, 1, 1))
    fan = (ZERO_CONE, ((0, 0, 1),), ((0, 1, 1),), ((1, 0, 1),), low, high)
    assert not check_fan(fan)
    assert set(refine_to_fan(fan)) == set(fan)
    for cones, extra, missing in [
            (tuple(c for c in fan if c != ((1, 0, 1),)),
             set(), {((1, 0, 1),)}),
            (fan[1:], set(), {ZERO_CONE}),
            (fan + (((1, 0, 2),),),
             {low}, {(low[0], (1, 0, 2)), (low[1], (1, 0, 2))})]:
        assert check_fan(cones)
        refined = set(refine_to_fan(cones))
        assert set(cones) - refined == extra
        assert refined - set(cones) == missing


def test_fan_axiom_intersects_only_pairs_of_two_cones(monkeypatch):
    # the fixed-point check refines Gamma_tr's own collection
    cones = build_K(gamma_tr(load(str(FIXTURES / "xconfig.json"))[0]))
    pairs = []
    intersect = fanmodel.intersect_cones

    def counted(c1, c2):
        pairs.append((len(c1), len(c2)))
        return intersect(c1, c2)

    monkeypatch.setattr(fanmodel, "intersect_cones", counted)
    assert set(refine_to_fan(cones)) == set(cones)
    t = sum(len(c) == 2 for c in cones)
    assert set(pairs) == {(2, 2)}
    # pairs whose height-one slices lie apart are never intersected
    assert 0 < len(pairs) < t * (t - 1) // 2


def _upper(cones):
    """The collection with every generator v replaced by v or -v, whichever
    has last coordinate >= 0; a 2-cone whose generators then coincide is
    dropped."""
    out = set()
    for c in cones:
        gens = [tuple(-x for x in g) if g[-1] < 0 else g for g in c]
        if len(c) < 2:
            out.add(tuple(gens))
        else:
            out = set(_with_faces(out, _cone_or_none(*gens)))
    return tuple(out)


def _skipped_pairs(monkeypatch, cones):
    """The pairs of distinct 2-cones that refining cones never intersects."""
    met = set()
    intersect = fanmodel.intersect_cones

    def recorded(c1, c2):
        met.update({(c1, c2), (c2, c1)})
        return intersect(c1, c2)

    monkeypatch.setattr(fanmodel, "intersect_cones", recorded)
    refine_to_fan(cones)
    monkeypatch.setattr(fanmodel, "intersect_cones", intersect)
    two = [c for c in dict.fromkeys(cones) if len(c) == 2]
    return [(a, b) for i, a in enumerate(two) for b in two[i + 1:]
            if (a, b) not in met]


def test_refinement_skips_only_pairs_that_meet_in_zero_or_a_common_ray(
        monkeypatch):
    # curve collections and their refinements, random collections with
    # generators of any height, and the same collections turned into the
    # upper half-space; a skipped pair on a common ray adds nothing, as the
    # ray is a generator already
    rng = random.Random(2006)
    curves = []
    for p, _ in corpus(11, 24) + elliptic_corpus(11, 8):
        curves += [build_K(p), refine_to_fan(build_K(p))]
    randoms = [_random_collection(rng, m) for m in (2, 3, 4)
               for _ in range(60)]
    upper = [_upper(cones) for cones in randoms]
    assert sum(any(g[-1] < 0 for c in cones for g in c)
               for cones in randoms) > 100
    skipped = []
    for group in (curves, randoms, upper):
        skipped.append(0)
        for cones in group:
            for c1, c2 in _skipped_pairs(monkeypatch, cones):
                shared = tuple(set(c1) & set(c2))
                meet = oracle_intersect(c1, c2)
                assert meet in {ZERO_CONE, shared}, (c1, c2)
                skipped[-1] += 1
    assert skipped[0] > 1000 and skipped[2] > 100, skipped


def _slice_intervals(c):
    """Per coordinate of N, the (low, high) of the 2-cone's slice at height
    one, None on an unbounded side; None for a cone with no such slice."""
    if min(g[-1] for g in c) < 0 or max(g[-1] for g in c) == 0:
        return None
    points = [[F(x, g[-1]) for x in g[:-1]] for g in c if g[-1]]
    out = []
    for i in range(len(c[0]) - 1):
        lo = min(pt[i] for pt in points)
        hi = max(pt[i] for pt in points)
        for g in c:
            if g[-1] == 0 and g[i] > 0:
                hi = None
            if g[-1] == 0 and g[i] < 0:
                lo = None
        out.append((lo, hi))
    return out


def _overlap(s, t):
    (lo1, hi1), (lo2, hi2) = s, t
    return all(hi is None or lo is None or lo <= hi
               for lo, hi in ((lo2, hi1), (lo1, hi2)))


def test_refinement_tests_only_candidate_pairs(monkeypatch):
    # a 40-end plane tree and its refinement: every pair the refinement
    # intersects is a candidate (on a common ray and coplanar, boxless, or
    # overlapping in the first slice coordinate), exactly the pairs that
    # can meet in more than a common ray are intersected, and only pairs
    # overlapping in the first coordinate reach the full box test
    p = plane_tree(40, 40)
    seen = {"intersect_cones": [], "_apart": []}
    for name, calls in seen.items():
        def recorded(x, y, _f=getattr(fanmodel, name), _calls=calls):
            _calls.append((x, y))
            return _f(x, y)

        monkeypatch.setattr(fanmodel, name, recorded)
    for cones in (build_K(p), build_K(gamma_tr(p))):
        for calls in seen.values():
            calls.clear()
        refine_to_fan(cones)
        two = [c for c in cones if len(c) == 2]
        box = {c: _slice_intervals(c) for c in two}
        candidates, expected, boxed_first, coplanar_pairs = set(), set(), 0, 0
        for i, c1 in enumerate(two):
            for c2 in two[i + 1:]:
                pair, common = frozenset((c1, c2)), set(c1) & set(c2)
                b1, b2 = box[c1], box[c2]
                coplanar = bool(common) and rank((*c1, *c2)) == 2
                first = not (b1 and b2) or _overlap(b1[0], b2[0])
                if coplanar or first:
                    candidates.add(pair)
                if common:
                    if coplanar:
                        expected.add(pair)
                        coplanar_pairs += 1
                elif not (b1 and b2) or all(map(_overlap, b1, b2)):
                    expected.add(pair)
                boxed_first += bool(not common and b1 and b2 and first)
        met = set(map(frozenset, seen["intersect_cones"]))
        assert len(met) == len(seen["intersect_cones"])
        assert met <= candidates
        assert met == expected
        pairs = len(two) * (len(two) - 1) // 2
        assert len(seen["_apart"]) == boxed_first < pairs / 2
    # the refined collection splits collinear edges, so it has many
    # coplanar pairs on a common ray
    assert len(two) > 300 and coplanar_pairs > 100, (len(two), coplanar_pairs)


def test_gamma_tr_generic_identity():
    p, _ = line_through_two_points()
    assert gamma_tr(p).curve == p.curve
    p2 = two_vertex_curve()
    assert gamma_tr(p2).curve == p2.curve


def collinear_overlap():
    """A path doubling back over itself: [0,3] then back over [3,1], with
    the ray at c passing back over a."""
    c = curve(["a", "b", "c"], ["z1", "z2", "z3"],
              [("e1", ("a", "b"), 3), ("e2", ("b", "c"), 2),
               ("r1", ("a", "z1"), None), ("r2", ("c", "z2"), None),
               ("r3", ("b", "z3"), None)])
    return param_curve(c, 2, {"a": (0, 0), "b": (3, 0), "c": (1, 0),
                              "z1": (-1, 0), "z2": (-1, 0), "z3": (2, 0)})


def _afresh(p):
    """An equal curve built from scratch, so no derived fact is shared."""
    return pc.ParamTropicalCurve(p.curve, p.lattice_rank, p.h)


def _structure_item(p):
    """gamma_tr -> stacky_data -> node_stack, as one structure item runs."""
    tr = gamma_tr(p)
    stacky.stacky_data(tr, ramification(tr, 1)["minimal_a"])
    stacky.node_stack(tr)
    return tr


def _param_values(q):
    return q.curve, q.lattice_rank, dict(q.h)


def test_gamma_tr_realizes_refinement():
    # the refined curve's own cone collection IS the refined fan, and the
    # eta rays are untouched; the refined curve holds that fan, equal to
    # the one gamma_tr returns on a fresh copy of the curve
    curves = [x_configuration(), doubled_line()[0], two_vertex_curve(),
              collinear_overlap()]
    curves += [p for p, _ in corpus(8, 30) + elliptic_corpus(8, 15)]
    for p in curves:
        tr = gamma_tr(p)
        assert set(build_K(tr)) == set(refine_to_fan(build_K(p)))
        assert not check_fan(build_K(tr))
        assert gamma_tr(tr).curve == tr.curve
        assert tuple(sorted(tr.fan.l_rho)) == eta_rays(p)
        assert isinstance(tr, fanmodel.RefinedCurve) and tr != p
        assert tr.fan == gamma_tr(_afresh(tr)).fan


def test_structure_item_derives_slopes_once_per_curve(monkeypatch):
    # gamma_tr -> stacky_data -> node_stack derives each curve object's
    # slopes, and with them its vertex rays' integers, once; those rays are
    # the oracle's rays through (h(v), 1).  The refined curve derives
    # nothing: it shares the facts of the curve it wraps (p itself when
    # nothing is cut), and they equal a fresh derivation
    alive, derived = [], Counter()     # alive: no id is reused meanwhile
    kinds = set()       # (refined, largest denominator of h)
    derive_slopes = pc._derive_slopes

    def counted(q):
        alive.append(q)
        derived[id(q)] += 1
        return derive_slopes(q)

    monkeypatch.setattr(pc, "_derive_slopes", counted)
    curves = [load(str(FIXTURES / "xconfig.json"))[0], collinear_overlap()]
    curves += [p for p, _ in corpus(11, 6) + elliptic_corpus(11, 3)]
    for p in curves:
        p = _afresh(p)
        derived.clear()
        tr = _structure_item(p)
        wrapped = alive[-1]
        cut = tr.curve != p.curve
        assert id(p) in derived and id(tr) not in derived
        assert set(derived.values()) == {1} and len(derived) == 1 + cut
        assert (wrapped is p) == (not cut)
        assert _param_values(wrapped) == _param_values(tr)
        assert tr._violations is wrapped._violations
        assert tr._slopes is wrapped._slopes
        new = _afresh(tr)
        assert tr._violations == new._violations == ()
        assert tr._slopes == new._slopes
        assert (_param_values(pc.stabilize_param(tr))
                == _param_values(pc.stabilize_param(new)))
        for q in (p, tr):
            rays = fanmodel._curve_cones(q)[0]
            assert all(rays[v] == ray_through(q.hv(v))
                       for v in q.curve.finite_vertices)
        den = max(x.denominator for x in chain(*p.h.values()))
        kinds.add((cut, den))
    assert kinds == {(False, 1), (False, 2), (True, 1), (True, 2)}


def test_structure_item_refines_once_per_curve(monkeypatch):
    # gamma_tr -> stacky_data -> node_stack refines each fresh curve once,
    # on K(p): gamma_tr checks its output against that refinement, and
    # stacky_data and node_stack read the fan the output holds
    refined = []
    refine = fanmodel._refine
    monkeypatch.setattr(fanmodel, "_refine",
                        lambda cones: refined.append(cones) or refine(cones))
    curves = [load(str(FIXTURES / "xconfig.json"))[0]]
    curves += [p for p, _ in corpus(11, 6)]
    curves += [plane_tree(seed, 40) for seed in (1, 2)]
    subdivided = 0
    for p in curves:
        p = _afresh(p)
        refined.clear()
        tr = _structure_item(p)
        assert refined == [build_K(p)]
        subdivided += tr.curve != p.curve
    assert subdivided >= 3


def test_structure_item_derives_cones_and_fan_once_per_curve(monkeypatch):
    # the input's cones are derived once, and the subdivided curve's once
    # when something is cut; the FanModel is indexed once, by gamma_tr
    alive, derived, indexed = [], Counter(), []
    curve_cones, indexed_fan = fanmodel._curve_cones, fanmodel._indexed_fan

    def counted(q):
        alive.append(q)
        derived[id(q)] += 1
        return curve_cones(q)

    monkeypatch.setattr(fanmodel, "_curve_cones", counted)
    monkeypatch.setattr(fanmodel, "_indexed_fan",
                        lambda *args: indexed.append(args[0])
                        or indexed_fan(*args))
    curves = [load(str(FIXTURES / "xconfig.json"))[0], collinear_overlap()]
    curves += [p for p, _ in corpus(11, 6) + elliptic_corpus(11, 3)]
    curves += [plane_tree(seed, 40) for seed in (1, 2)]
    subdivided = 0
    for p in curves:
        p = _afresh(p)
        derived.clear()
        indexed.clear()
        tr = _structure_item(p)
        cut = tr.curve != p.curve
        assert id(p) in derived and set(derived.values()) == {1}
        assert len(derived) == 1 + cut and len(indexed) == 1
        assert indexed[0] is alive[-1]
        subdivided += cut
    assert 3 <= subdivided < len(curves)


def test_gamma_tr_writes_nothing_on_its_input():
    # only the fields and the cached facts are ever in a curve's __dict__,
    # and what the input held before is what it holds after; a refined
    # curve that cuts nothing shares every fact the input had derived
    cached = {name for name, attr in vars(pc.ParamTropicalCurve).items()
              if isinstance(attr, cached_property)}
    curves = [load(str(FIXTURES / "xconfig.json"))[0], collinear_overlap()]
    curves += [p for p, _ in corpus(11, 6) + elliptic_corpus(11, 3)]
    cuts = set()
    for i, p in enumerate(curves):
        p = _afresh(p)
        if i % 2:
            pc.stabilize_param(p)
        before = dict(vars(p))
        tr = _structure_item(p)
        assert set(vars(p)) <= {*pc.ParamTropicalCurve._fields, *cached}
        assert all(vars(p)[k] is x for k, x in before.items())
        cuts.add(tr.curve != p.curve)
        if tr.curve == p.curve:
            assert all(vars(tr)[k] is x for k, x in vars(p).items())
    assert cuts == {False, True}


def test_gamma_tr_names_the_cones_a_wrong_cut_leaves(monkeypatch):
    # one cut moved off its crossing ray: the subdivided curve's cones are
    # not the refined fan, and gamma_tr names the cones that differ
    extend, out = pc.extend_parameterization, []

    def shifted(p, steps):
        (eid, ds, ids), *rest = steps
        out.append(extend(p, [Subdivide(eid, (ds[0] / 2, *ds[1:]), ids),
                              *rest]))
        return out[-1]

    monkeypatch.setattr(pc, "extend_parameterization", shifted)
    p = load(str(FIXTURES / "xconfig.json"))[0]
    with pytest.raises(CrossCheckFailed) as info:
        gamma_tr(p)
    assert info.value.code == "CrossCheckFailed:fan_axiom"
    got, fan = set(build_K(out[0])), set(refine_to_fan(build_K(p)))
    assert got - fan and fan - got
    for c in got - fan:
        assert f"extra cone{c}" in str(info.value)
    for c in fan - got:
        assert f"missing cone{c}" in str(info.value)


def test_gamma_tr_collinear_overlap():
    p = collinear_overlap()
    tr = gamma_tr(p)
    # e1 is subdivided over c's position, the ray at c over a's position
    new = sorted(v for v in tr.curve.finite_vertices
                 if v not in p.curve.finite_vertices)
    assert sorted(tuple(tr.hv(v)) for v in new) == [(0, 0), (1, 0)]
    assert not check_fan(build_K(tr))
    assert gamma_tr(tr).curve == tr.curve


def test_fan_model_and_multiplicities():
    dbl, _ = doubled_line()
    tr = gamma_tr(dbl)
    fm = tr.fan
    l_sigma, l_rho = fm.l_sigma, fm.l_rho
    bounded_cones = [c for c, es in fm.cone_edges.items()
                     if any(tr.curve.edge(e).is_bounded for e in es)]
    assert len(bounded_cones) == 2
    assert all(l_sigma[c] == 2 for c in bounded_cones)
    assert set(l_rho.values()) == {2}


def test_ramification():
    p, _ = line_through_two_points()
    assert ramification(p, 1) == {"reduced": True, "minimal_a": 1}
    dbl, _ = doubled_line()
    r = ramification(dbl, 1)
    assert not r["reduced"] and r["minimal_a"] == 2
    assert ramification(dbl, 2)["reduced"]
    halfpoint = param_curve(
        curve(["v", "w"], ["a", "b"],
              [("e", ("v", "w"), F(1, 3)),
               ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)]),
        2, {"v": (F(1, 2), 0), "w": (F(5, 6), 0), "a": (-1, 0), "b": (1, 0)})
    assert ramification(halfpoint, 1)["minimal_a"] == 6
    # the lcm is the one the slopes are derived over, so balancing gates it
    skew = param_curve(halfpoint.curve, 2, {**halfpoint.h, "b": (2, 0)})
    with pytest.raises(NotBalanced):
        ramification(skew, 1)


def test_reduction_exponents():
    p = tropical_line()
    exps = reduction_exponents(p, "v0")
    assert sorted(v for _, v in exps) == [(-1, 0), (0, -1), (1, 1)]
    dbl, _ = doubled_line()
    exps = reduction_exponents(dbl, "v0")
    assert sorted(v for _, v in exps) == [(-2, 0), (0, -2), (2, 2)]
    # marked vertex contributes a zero vector; entries still sum to zero
    exps = reduction_exponents(dbl, "v1")
    vecs = [v for _, v in exps]
    assert (0, 0) in vecs
    assert tuple(map(sum, zip(*vecs))) == (0, 0)


def test_fan_json_shape():
    data = fan_to_json(gamma_tr(x_configuration()).fan)
    assert len(data["rays"]) == len(data["eta"])
    assert all(len(c) == 2 for c in data["cones"])
    assert set(data["cone_edges"]) == set(data["cone_multiplicities"])
