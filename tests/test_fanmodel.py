import random
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import corpus, elliptic_corpus
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    tropical_line,
    two_vertex_curve,
    x_configuration,
)
from oracles import check_fan, oracle_contains, oracle_coords_in, oracle_intersect
from tropicorr import exactla, fanmodel
from tropicorr.curvefile import load
from tropicorr.errors import CrossCheckFailed, NotBalanced
from tropicorr.exactla import primitive_vector
from tropicorr.fanmodel import (
    ZERO_CONE,
    _coords_in,
    _require_fan,
    build_K,
    cone,
    cone_contains,
    fan_model,
    fan_to_json,
    gamma_tr,
    intersect_cones,
    ramification,
    reduction_exponents,
    refine_to_fan,
)
from tropicorr.paramcurve import param_curve
from tropicorr.tropgraph import curve

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
    """One pair of cones in Z^m of each kind: random cones of any dimension,
    the same plane, a shared ray, nested sectors, opposite rays, planes
    meeting in a line outside both cones, and random planes (which meet
    only in 0 when m >= 4)."""
    g1, g2, h, w = (_random_vec(rng, m) for _ in range(4))
    c1 = _cone_or_none(g1, g2)
    neg = tuple(-x for x in g1)
    out = [(rng.choice([ZERO_CONE, (h,), c1]), (g1,)),
           (c1, _cone_or_none(_combo(rng, g1, g2), _combo(rng, g1, g2))),
           (c1, _cone_or_none(g1, h)),
           (c1, _cone_or_none(_combo(rng, g1, g2, 1), _combo(rng, g1, g2, 1))),
           (c1, _cone_or_none(neg, h)),
           (c1, _cone_or_none(neg, tuple(-x for x in g2))),
           (_cone_or_none(g1, tuple(x - y for x, y in zip(g1, w))),
            _cone_or_none(h, tuple(x + y for x, y in zip(h, w)))),
           (c1, _cone_or_none(h, w))]
    return [(a, b) for a, b in out if a is not None and b is not None]


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
    assert {(2, 2, 0), (2, 2, 1), (2, 2, 2), (1, 2, 1), (1, 2, 0)} <= outcomes


def test_intersect_cones_makes_no_smith_reduction(monkeypatch):
    # _smith is the dense elimination behind invariant_factors
    calls = []
    smith = exactla._smith

    def counted(*args, **kwargs):
        calls.append(args)
        return smith(*args, **kwargs)

    monkeypatch.setattr(exactla, "_smith", counted)
    rng = random.Random(17)
    for m in (2, 3, 4):
        for c1, c2 in _cone_pairs(rng, m):
            intersect_cones(c1, c2)
    fan_model(gamma_tr(x_configuration()))
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
    eta = ((-1, 0, 0), (0, -1, 0), (1, 1, 0))
    assert fan_model(tropical_line()).eta_rays == eta
    dbl, _ = doubled_line()
    assert fan_model(gamma_tr(dbl)).eta_rays == eta == eta_rays(dbl)
    marked_only = param_curve(
        curve(["v"], ["a", "b"],
              [("r1", ("v", "a"), None), ("r2", ("v", "b"), None)]),
        2, {"v": (0, 0), "a": (0, 0), "b": (0, 0)})
    assert fan_model(marked_only).eta_rays == ()


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
        in_k = any(cone_contains(c, w) for c in k if c)
        in_fan = any(cone_contains(c, w) for c in fan if c)
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
    """fan_model's verdict on a collection holding the zero cone."""
    try:
        _require_fan(cones)
    except CrossCheckFailed as exc:
        assert exc.code == "CrossCheckFailed:fan_axiom"
        return False
    return True


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
    or a refinement of such a collection with one cone dropped."""
    cones = [ZERO_CONE] + [(_random_vec(rng, m),)
                           for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 3)):
        g = _random_vec(rng, m)
        h = rng.choice([_random_vec(rng, m), _vsum(g, _random_vec(rng, m, 1))])
        cones = _with_faces(cones, _cone_or_none(g, h))
    if rng.random() < 0.5:
        return cones
    fan = list(refine_to_fan(cones))
    fan.remove(rng.choice(fan[1:]))
    return tuple(fan)


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
    p = load(str(FIXTURES / "xconfig.json"))[0]
    crossed = [c for c in build_K(p) if len(c) == 2
               and oracle_contains(c, (1, 1, 1))
               and (1, 1, 1) not in c]
    assert len(crossed) == 2
    with pytest.raises(CrossCheckFailed) as info:
        fan_model(p)
    assert info.value.code == "CrossCheckFailed:fan_axiom"
    for c in crossed:
        assert f"cone{c} contains (1, 1, 1)" in str(info.value)


def test_fan_axiom_intersects_only_pairs_of_two_cones(monkeypatch):
    tr = gamma_tr(load(str(FIXTURES / "xconfig.json"))[0])
    pairs = []
    intersect = fanmodel.intersect_cones

    def counted(c1, c2):
        pairs.append((len(c1), len(c2)))
        return intersect(c1, c2)

    monkeypatch.setattr(fanmodel, "intersect_cones", counted)
    t = len(fan_model(tr).two_cones())
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


def test_refinement_skips_only_pairs_that_meet_in_zero(monkeypatch):
    # curve collections and their refinements, random collections with
    # generators of any height, and the same collections turned into the
    # upper half-space
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
                assert oracle_intersect(c1, c2) == ZERO_CONE, (c1, c2)
                skipped[-1] += 1
    assert skipped[0] > 1000 and skipped[2] > 100, skipped


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


def test_gamma_tr_realizes_refinement():
    # the refined curve's own cone collection IS the refined fan, and the
    # eta rays are untouched
    curves = [x_configuration(), doubled_line()[0], two_vertex_curve(),
              collinear_overlap()]
    curves += [p for p, _ in corpus(8, 30) + elliptic_corpus(8, 15)]
    for p in curves:
        tr = gamma_tr(p)
        assert set(build_K(tr)) == set(refine_to_fan(build_K(p)))
        assert not check_fan(build_K(tr))
        assert gamma_tr(tr).curve == tr.curve
        assert fan_model(tr).eta_rays == eta_rays(p)


def test_vertex_rays_derived_once_per_call(monkeypatch):
    calls = []
    ray_of_point = fanmodel._ray_of_point

    def counted(h):
        calls.append(h)
        return ray_of_point(h)

    monkeypatch.setattr(fanmodel, "_ray_of_point", counted)
    fixture = Path(__file__).resolve().parent.parent / "fixtures/xconfig.json"
    p = load(str(fixture))[0]
    tr = gamma_tr(p)
    assert len(calls) == len(p.curve.finite_vertices) == 4
    calls.clear()
    fan_model(tr)
    assert len(calls) == len(tr.curve.finite_vertices) == 6


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
    fm = fan_model(tr)
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
    tr = gamma_tr(x_configuration())
    fm = fan_model(tr)
    data = fan_to_json(fm)
    assert len(data["rays"]) == len(data["eta"])
    assert all(len(c) == 2 for c in data["cones"])
    assert set(data["cone_edges"]) == set(data["cone_multiplicities"])
