"""Fans attached to a parameterized curve.

The curve's vertices and edges span cones in N_R + R: a finite vertex v
gives the ray through (h(v), 1), read off the integers (d h(v), d) that
paramcurve derived the slopes from, an infinite vertex with nonzero direction
gives the ray through (h(v), 0), and every edge with nonzero slope gives the
two-dimensional cone over its image segment or ray.  This cone collection
K(p) need not be a fan; its common refinement is, and the curve subdivided
at the interior crossing rays (``gamma_tr``) realizes the refinement as its
own cone collection.  The refinement (``_refine``) yields only its chains,
the rays strictly inside each 2-cone, which ``gamma_tr`` cuts at and
``_fan_of`` assembles the fan from.  K(p) holds the zero cone and the
facet rays of its 2-cones, so it is a fan exactly when every chain is
empty: the fan axiom is the refinement's fixed point.

``gamma_tr`` refines once per call, checks that its output's collection is
the fan of those chains, and returns the output holding that fan: the one
fan model, which the stacky layer reads.

Only pairs of 2-cones that can meet in more than a common ray are
intersected; a common ray is a generator already, so the refinement is
that of all pairs.  A cone whose generators have heights (last
coordinates) >= 0, one of them > 0, meets height one in a segment or
half-line, its slice, boxed by integers over a common denominator.  A
sweep by the low end of the first box coordinate (Bentley and Ottmann)
reaches only pairs whose boxes overlap there; the others meet at most in
height-0 vectors, which lie on a height-0 generator of each, so in a
common ray or in 0.  Reached cones (g, a) and (g, b) on a common ray meet
in g alone unless b lies in span(g, a), which the 3x3 minors of (g, a, b)
decide; other reached pairs are intersected unless their boxes are apart.
A cone with a negative-height generator, or none of positive height, has
no box and reaches every cone.  A 2-cone's interior rays are extreme rays
of its nonzero intersections, or lone 1-cone rays, so only those are
tested, and chains are ordered by cross-multiplied integers.

A cone is the ascending tuple of its distinct primitive integer generators:
``()`` is the zero cone, ``(r,)`` the cone over the ray r and ``(g1, g2)`` a
2-cone, so its dimension is its length.  The refinement intersects only
pairs of 2-cones, so the cone arithmetic here serves that case alone, with
2x2 and 3x3 integer minors; general cone constructors live with the test
oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm
from typing import NamedTuple

from . import paramcurve as pc
from .errors import CrossCheckFailed
from .exactla import primitive_vector
from .paramcurve import ParamTropicalCurve
from .tropgraph import Subdivide, _unbounded_ends

Ray = tuple[int, ...]
Cone = tuple[Ray, ...]

ZERO_CONE: Cone = ()


def _pair_cone(a: Ray, b: Ray) -> Cone:
    """The 2-cone over two primitive, non-parallel rays."""
    return (a, b) if a < b else (b, a)


def _coords_in(gens, w) -> tuple[int, int, int] | None:
    """Integers (na, nb, d) with d > 0 and d w = na g1 + nb g2, or None
    when w is outside the span of the two independent vectors
    gens = (g1, g2)."""
    g1, g2 = gens
    for i, j in combinations(range(len(g1)), 2):
        d = g1[i] * g2[j] - g1[j] * g2[i]
        if d:
            na = w[i] * g2[j] - w[j] * g2[i]
            nb = g1[i] * w[j] - g1[j] * w[i]
            if d < 0:
                na, nb, d = -na, -nb, -d
            if all(na * x + nb * y == d * z for x, y, z in zip(g1, g2, w)):
                return (na, nb, d)
            return None
    raise CrossCheckFailed("cone_generators",
                           f"the generators {gens} are parallel")


def cone_contains(conee: Cone, w) -> bool:
    coords = _coords_in(conee, w)
    return coords is not None and coords[0] >= 0 and coords[1] >= 0


def _interior_position(conee: Cone, w) -> tuple[int, int] | None:
    """(na, nb) of ``_coords_in`` for w strictly inside the 2-cone (both
    positive), None for any other w."""
    coords = _coords_in(conee, w)
    if coords is None or coords[0] <= 0 or coords[1] <= 0:
        return None
    return coords[:2]


def _by_position(x, y) -> int:
    """Order ((na, nb), ray) pairs from g1 to g2, by nb / na."""
    (xa, xb), (ya, yb) = x[0], y[0]
    return xb * ya - yb * xa


def _sector_intersection(c1: Cone, c2: Cone) -> Cone:
    """Intersection of two 2-cones with a common span: the cone over the
    first and the last, from g1 to g2 of c1, of the generators of either
    that lie in the other (distinct primitive vectors of one pointed
    2-cone, so never parallel)."""
    cands = {g for g in c1 if cone_contains(c2, g)}
    cands |= {g for g in c2 if cone_contains(c1, g)}
    if len(cands) < 2:
        return tuple(cands)
    chain = sorted(((_coords_in(c1, g)[:2], g) for g in cands),
                   key=cmp_to_key(_by_position))
    return _pair_cone(chain[0][1], chain[-1][1])


def _plane_minors(h1, h2, w) -> list[int]:
    """The 3x3 minors of the columns (h1, h2, w), one per row triple; for
    independent h1, h2 all vanish iff w lies in span(h1, h2)."""
    return [w[i] * (h1[j] * h2[k] - h1[k] * h2[j])
            - w[j] * (h1[i] * h2[k] - h1[k] * h2[i])
            + w[k] * (h1[i] * h2[j] - h1[j] * h2[i])
            for i, j, k in combinations(range(len(w)), 3)]


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    # of two 2-cones: the minors of (h1, h2, a g1 + b g2) are linear in
    # (a, b).  All vanish iff the spans coincide; otherwise the first nonzero
    # one cuts out the only line that can be common, and cone_contains
    # checks exactly that it lies in c2 (so planes meeting only in 0 give 0)
    g1, g2 = c1
    h1, h2 = c2
    rows = [(x, y) for x, y in zip(_plane_minors(h1, h2, g1),
                                   _plane_minors(h1, h2, g2)) if x or y]
    if not rows:
        return _sector_intersection(c1, c2)
    x, y = rows[0]
    a, b = (y, -x) if y >= 0 and x <= 0 else (-y, x)
    if a < 0 or b < 0:
        return ZERO_CONE  # the line meets c1 only in 0
    w = primitive_vector(tuple(a * s + b * t for s, t in zip(g1, g2)))
    return (w,) if cone_contains(c2, w) else ZERO_CONE


# ---------------------------------------------------------------------------
# the cone collection of a curve


def _curve_cones(p: ParamTropicalCurve):
    """The ray of every vertex (None at a contracted end) and the 2-cone of
    every edge whose integer direction (``edge_geometry``) is nonzero, both
    in the curve's order; the one place where either is derived."""
    pc.require_balanced(p)
    d, hd = p._slopes.d, p._slopes.hd
    rays = {v: primitive_vector((*hd[v], d)) for v in p.curve.finite_vertices}
    for v in p.curve.infinite_vertices:
        slope = pc.end_geometry(p, v).slope     # h(v) made primitive
        rays[v] = None if slope is None else slope + (0,)
    # the rays are primitive, and a nonzero-slope edge joins two distinct
    # rays of height 1, or one of height 1 and one of height 0: never parallel
    edge_cones = {e.id: _pair_cone(rays[e.ends[0]], rays[e.ends[1]])
                  for e in p.curve.edges
                  if pc.edge_geometry(p, e.id).slope is not None}
    return rays, edge_cones


def _sorted_cones(cones) -> tuple[Cone, ...]:
    return tuple(sorted(cones, key=lambda c: (len(c), c)))


def _collection(rays, edge_cones) -> tuple[Cone, ...]:
    cones = {ZERO_CONE, *edge_cones.values()}
    cones.update((r,) for r in rays.values() if r is not None)
    return _sorted_cones(cones)


def build_K(p: ParamTropicalCurve) -> tuple[Cone, ...]:
    """The cone collection K: the zero cone, a ray per finite vertex, a ray
    per non-contracted infinite vertex, and a 2-cone per nonzero-slope edge."""
    return _collection(*_curve_cones(p))


def _slice_box(c: Cone, points):
    """(lows, highs) bounding the slice at height one, over the generators'
    ``points``, None on an unbounded side; None for a cone outside the
    closed upper half-space or inside height 0."""
    heights = [g[-1] for g in c]
    if min(heights) < 0 or max(heights) == 0:
        return None
    pts = [points[g] for g in c if g[-1]]
    lows = [min(xs) for xs in zip(*pts)]
    highs = [max(xs) for xs in zip(*pts)]
    for g in c:
        if g[-1] == 0:      # the slice is a half-line along g
            for i, x in enumerate(g[:-1]):
                if x > 0:
                    highs[i] = None
                elif x < 0:
                    lows[i] = None
    return lows, highs


def _apart(box1, box2) -> bool:
    """Do the boxes miss each other in some coordinate?"""
    (lo1, hi1), (lo2, hi2) = box1, box2
    return any(h is not None and lo is not None and h < lo
               for h, lo in zip(hi1 + hi2, lo2 + lo1))


def _refine(cones) -> dict[Cone, tuple[Ray, ...]]:
    """The chains: for each input 2-cone, in input order, the rays strictly
    inside it, from its first generator to its second.  Only the pairs the
    module's sweep reaches and keeps are intersected; any other pair meets
    in 0 or in a common ray, a generator already, so ``met`` and the
    chains are those of all pairs."""
    cones = list(dict.fromkeys(cones))
    two = [c for c in cones if len(c) == 2]
    gens = {g for c in two for g in c}
    lone = {c[0] for c in cones if len(c) == 1} - gens
    scale = lcm(*(g[-1] for g in gens if g[-1] > 0))
    points = {g: tuple(x * (scale // g[-1]) for x in g[:-1])
              for g in gens if g[-1] > 0}   # slice points, times scale
    boxes = {c: _slice_box(c, points) for c in two}
    ends = {c: (b[0][0], b[1][0]) if b else (None, None)
            for c, b in boxes.items()}     # the slice's first coordinate
    swept = sorted(two, key=lambda c: (ends[c][0] is not None, ends[c][0]))
    met = {c: set() for c in two}    # generators of c's nonzero intersections
    for i, c1 in enumerate(swept):
        high = ends[c1][1]
        for c2 in swept[i + 1:]:
            low = ends[c2][0]
            if high is not None and low is not None and low > high:
                break       # this and every later slice start past c1's
            if c1[0] in c2 or c1[1] in c2:
                if any(_plane_minors(*c1, c2[c2[0] in c1])):
                    continue    # they meet in the common ray alone
            elif boxes[c1] and boxes[c2] and _apart(boxes[c1], boxes[c2]):
                continue
            inter = intersect_cones(c1, c2)
            met[c1].update(inter)
            met[c2].update(inter)
    chains = {}
    for c in two:
        interior = []
        for r in met[c] | lone:
            pos = _interior_position(c, r)
            if pos is not None:
                interior.append((pos, r))
        interior.sort(key=cmp_to_key(_by_position))
        chains[c] = tuple(r for _, r in interior)
    return chains


def _fan_of(cones, chains) -> set[Cone]:
    """The refined fan from the input cones and their chains: the zero cone,
    the input rays, and each 2-cone cut at its chain."""
    out = {ZERO_CONE, *(c for c in cones if len(c) == 1)}
    for c, chain in chains.items():
        rays = (c[0], *chain, c[1])
        out.update((r,) for r in rays)
        out.update(_pair_cone(a, b) for a, b in zip(rays, rays[1:]))
    return out


def refine_to_fan(cones) -> tuple[Cone, ...]:
    """The unique fan whose rays are the pairwise 1-dimensional
    intersections and whose support is the union of the input cones (a ray
    of an intersection is a generator of each cone or in its chain)."""
    cones = tuple(cones)
    return _sorted_cones(_fan_of(cones, _refine(cones)))


def gamma_tr(p: ParamTropicalCurve) -> RefinedCurve:
    """Subdivide every nonzero-slope edge at the interior crossing rays of
    the refined fan, so that the curve's own cone collection becomes that
    fan, and return it (p if nothing is cut) holding that fan.  Idempotent.

    Let the edge run from u to w (from its finite end u, if unbounded),
    with rays g_u and g_w of heights g_u[n] and g_w[n].  A ray r inside its
    cone has d r = na g_u + nb g_w with na, nb > 0 (``_coords_in``), so the
    cut lies at distance nb g_w[n] / (na g_u[n] + nb g_w[n]) |e| from u on
    a bounded edge, and at nb / (na g_u[n] l(e)) on an unbounded one, where
    g_w = (s_e, 0) and h(w) = l(e) s_e.  A finite vertex's ray has positive
    height, so both denominators are positive.  The output's cones must be
    this refinement's fan; fan_axiom names any cone that differs.  The
    output's ``fan`` is the fan model of p; nothing is cut when K(p) is a
    fan already."""
    rays, edge_cones = _curve_cones(p)
    chains = _refine(cones := _collection(rays, edge_cones))
    n, inf_set = p.lattice_rank, p.curve.infinite_set
    steps = []
    for eid in sorted(edge_cones):
        chain = chains[edge_cones[eid]]
        if not chain:
            continue
        e = p.curve.edge(eid)
        if e.is_bounded:
            u, w = e.ends
            scale = rays[w][n] * e.length
        else:
            u, w = _unbounded_ends(e, inf_set)
            scale = Fraction(1, pc.edge_geometry(p, eid).multiplicity)
        gu, gw = rays[u], rays[w]
        dists = []
        for r in chain:
            na, nb, _ = _coords_in((gu, gw), r)
            dists.append(scale * Fraction(nb, na * gu[n] + nb * gw[n]))
        steps.append(Subdivide(eid, tuple(sorted(dists))))
    if steps:   # else every chain is empty: K(p) is its own refinement
        fan = _fan_of(cones, chains)
        p = pc.extend_parameterization(p, steps)
        rays, edge_cones = _curve_cones(p)
        cones = _collection(rays, edge_cones)
        if (got := set(cones)) != fan:
            bad = [f"{'extra' if c in got else 'missing'} cone{c}"
                   for c in _sorted_cones(got ^ fan)]
            raise CrossCheckFailed("fan_axiom", "the subdivided curve's cones "
                                   "are not the refined fan: " + "; ".join(bad))
    return RefinedCurve(p, _indexed_fan(p, rays, edge_cones, cones))


# ---------------------------------------------------------------------------
# the fan model with curve indexing


class FanModel(NamedTuple):
    ambient_rank: int                       # n + 1
    cones: tuple[Cone, ...]
    ray_vertices: dict[Ray, tuple[str, ...]]
    cone_edges: dict[Cone, tuple[str, ...]]
    l_sigma: dict[Cone, int]    # lcm of the edge multiplicities over a 2-cone
    l_rho: dict[Ray, int]       # lcm of the end multiplicities, per eta ray

    def rays(self) -> tuple[Ray, ...]:
        return tuple(c[0] for c in self.cones if len(c) == 1)

    def two_cones(self) -> tuple[Cone, ...]:
        return tuple(c for c in self.cones if len(c) == 2)


class RefinedCurve(ParamTropicalCurve):
    """A ``gamma_tr`` output: the curve it refined, sharing its fields and
    the facts derived from them, with the fan its cones form as ``fan``."""

    def __init__(self, p: ParamTropicalCurve, fan: FanModel):
        self.__dict__.update(p.__dict__, fan=fan)


def _indexed_fan(p: ParamTropicalCurve, rays, edge_cones, cones) -> FanModel:
    """Index the fan ``cones`` of a curve by its ``_curve_cones``."""
    ray_vertices: dict[Ray, list] = {}
    for v, r in rays.items():
        if r is not None:
            ray_vertices.setdefault(r, []).append(v)
    cone_edges: dict[Cone, list] = {}
    l_sigma: dict[Cone, int] = {}
    for eid, c in edge_cones.items():
        cone_edges.setdefault(c, []).append(eid)
        l_sigma[c] = lcm(l_sigma.get(c, 1),
                         pc.edge_geometry(p, eid).multiplicity)
    l_rho: dict[Ray, int] = {}
    for v in p.curve.infinite_vertices:
        if rays[v] is not None:
            l_rho[rays[v]] = lcm(l_rho.get(rays[v], 1),
                                 pc.end_geometry(p, v).multiplicity)
    return FanModel(
        p.lattice_rank + 1, cones,
        {r: tuple(vs) for r, vs in ray_vertices.items()},
        {c: tuple(es) for c, es in cone_edges.items()}, l_sigma, l_rho,
    )


def ramification(p_tr: ParamTropicalCurve, a: int):
    """Is the degenerate fiber reduced at ramification a, and the least a
    that works: a h(v) integral for the finite vertices and a |e| integral
    for the bounded edges.  That is the lcm the slopes are derived over, as
    a balanced curve's infinite vertices have integral h."""
    if a < 1:
        raise ValueError("ramification index must be positive")
    pc.require_balanced(p_tr)
    minimal = p_tr._slopes.d
    return {"reduced": a % minimal == 0, "minimal_a": minimal}


def reduction_exponents(p_tr: ParamTropicalCurve, v: str):
    """Exponent data of the component map at a finite vertex: one integer
    vector per incident edge end (the character exponents of the restriction
    to the component), the edge's integer direction leaving v.  The entries
    sum to zero by balancing."""
    pc.require_balanced(p_tr)
    out = []
    # the sort is stable, so the two ends of a loop keep their order
    for e, w in sorted(p_tr.curve.incidence.get(v, ()), key=lambda x: x[0].id):
        if not (e.is_bounded or w in p_tr.curve.infinite_set):
            continue
        geo = p_tr._slopes.edges[e.id]
        if geo is None:
            raise CrossCheckFailed("integral_exponents", f"edge {e.id} "
                                   f"leaves {v} along a non-integral direction")
        k = -1 if e.is_bounded and pc._orient(e)[0] != v else 1
        out.append((e.id, tuple(k * geo.multiplicity * x
                                for x in geo.slope or (0,) * p_tr.lattice_rank)))
    return out


def json_keys(fm: FanModel) -> tuple[dict[Ray, int], dict[Cone, str]]:
    """The position of each ray in ``fm.rays()``, and the JSON key of each
    cone of the fan: "0" for the zero cone, "r<i>" for the cone over ray i,
    "<i>-<j>" for a 2-cone over rays i < j (the rays ascend, as do a
    cone's generators)."""
    index = {r: i for i, r in enumerate(fm.rays())}
    keys = {ZERO_CONE: "0"}
    keys.update(((r,), f"r{i}") for r, i in index.items())
    keys.update((c, f"{index[c[0]]}-{index[c[1]]}") for c in fm.two_cones())
    return index, keys


def fan_to_json(fm: FanModel) -> dict:
    index, keys = json_keys(fm)
    return {
        "rays": [list(r) for r in index],
        "eta": [r in fm.l_rho for r in index],
        "cones": [[index[g] for g in c] for c in fm.two_cones()],
        "ray_vertices": {str(index[r]): sorted(vs)
                         for r, vs in sorted(fm.ray_vertices.items())},
        "cone_edges": {keys[c]: sorted(es)
                       for c, es in sorted(fm.cone_edges.items())},
        "cone_multiplicities": {keys[c]: m
                                for c, m in sorted(fm.l_sigma.items())},
        "ray_multiplicities": {str(index[r]): m
                               for r, m in sorted(fm.l_rho.items())},
    }
