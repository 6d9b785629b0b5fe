"""Fans attached to a parameterized curve.

The curve's vertices and edges span cones in N_R + R: a finite vertex v
gives the ray through (h(v), 1), an infinite vertex with nonzero direction
gives the ray through (h(v), 0), and every edge with nonzero slope gives the
two-dimensional cone over its image segment or ray.  This cone collection
K_Gamma need not be a fan; its common refinement is, and the curve
subdivided at the interior crossing rays realizes the refinement as its own
cone collection.  K_Gamma holds the zero cone and the facet rays of its
2-cones, so it is a fan exactly when it is the refinement's fixed point:
``fan_model`` checks the fan axiom with one refinement and no second pass
over pairs of cones.

Each vertex ray and edge cone is derived once per call, in ``_curve_cones``;
the refinement orders the interior rays of every 2-cone into a chain, and
``gamma_tr`` subdivides each edge at the rays of its cone's chain.

All cones here have dimension at most two, so every intersection reduces to
2x2 and 3x3 integer minors; no general polyhedral machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import paramcurve as pc
from .errors import CrossCheckFailed
from .exactla import integral_length, primitive_vector
from .paramcurve import ParamTropicalCurve

Ray = tuple[int, ...]


@dataclass(frozen=True)
class Cone:
    """A sharp rational cone of dimension <= 2, stored by its primitive
    generators in a canonical (sorted) order."""

    generators: tuple[Ray, ...]

    @property
    def dim(self) -> int:
        return len(self.generators)

    def __str__(self):
        return "cone" + str(self.generators)


ZERO_CONE = Cone(())


def cone(*gens) -> Cone:
    prims = []
    for g in gens:
        p = primitive_vector(g)
        if p is None:
            raise ValueError("zero generator")
        prims.append(p)
    uniq = sorted(set(prims))
    if len(uniq) == 2 and _parallel(uniq[0], uniq[1]):
        raise ValueError("generators are parallel")
    return Cone(tuple(uniq))


def _parallel(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def _coords_in(gens, w) -> tuple[int, int, int] | None:
    """Integers (na, nb, d) with d > 0 and d w = na g1 + nb g2, or None
    when w is outside the span of the at most two independent vectors
    gens = (g1, g2).  For a single vector nb is reported as 0."""
    if not gens:
        return (0, 0, 1) if all(x == 0 for x in w) else None
    if len(gens) == 1:
        (g,) = gens
        k = next(i for i, x in enumerate(g) if x)
        if all(x * g[k] == w[k] * y for x, y in zip(w, g)):
            return (w[k], 0, g[k]) if g[k] > 0 else (-w[k], 0, -g[k])
        return None
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
    coords = _coords_in(conee.generators, w)
    return coords is not None and coords[0] >= 0 and coords[1] >= 0


def _interior_position(conee: Cone, w) -> Fraction | None:
    """b / (a + b) for w = a g1 + b g2 strictly inside the 2-cone, which
    orders the interior rays from g1 to g2; None for any other w."""
    coords = _coords_in(conee.generators, w)
    if coords is None or coords[0] <= 0 or coords[1] <= 0:
        return None
    return Fraction(coords[1], coords[0] + coords[1])


def _sector_intersection(c1: Cone, c2: Cone) -> Cone:
    """Intersection of two 2-cones with a common span."""
    cands = [g for g in c1.generators if cone_contains(c2, g)]
    cands += [g for g in c2.generators if cone_contains(c1, g)]
    cands = sorted(set(cands))
    if not cands:
        return ZERO_CONE
    if len(cands) == 1 or all(_parallel(cands[0], g) for g in cands[1:]):
        return Cone((cands[0],))
    key = []
    for g in cands:
        na, nb, _ = _coords_in(c1.generators, g)
        key.append((Fraction(nb, na + nb), g))
    key.sort()
    lo, hi = key[0][1], key[-1][1]
    if _parallel(lo, hi):
        return Cone((min(lo, hi),))
    return cone(lo, hi)


def _plane_minors(h1, h2, w) -> list[int]:
    """The 3x3 minors of the columns (h1, h2, w), one per row triple; for
    independent h1, h2 all vanish iff w lies in span(h1, h2)."""
    return [w[i] * (h1[j] * h2[k] - h1[k] * h2[j])
            - w[j] * (h1[i] * h2[k] - h1[k] * h2[i])
            + w[k] * (h1[i] * h2[j] - h1[j] * h2[i])
            for i, j, k in combinations(range(len(w)), 3)]


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    if c1.dim > c2.dim:
        c1, c2 = c2, c1
    if c1.dim == 0:
        return ZERO_CONE
    if c1.dim == 1:
        g = c1.generators[0]
        if c2.dim == 1:
            return c1 if c1 == c2 else ZERO_CONE
        return c1 if cone_contains(c2, g) else ZERO_CONE
    # two 2-cones: the minors of (h1, h2, a g1 + b g2) are linear in (a, b).
    # All vanish iff the spans coincide; otherwise the first nonzero one cuts
    # out the only line that can be common, and cone_contains checks exactly
    # that it lies in c2 (so planes meeting only in 0 give 0)
    g1, g2 = c1.generators
    h1, h2 = c2.generators
    rows = [(x, y) for x, y in zip(_plane_minors(h1, h2, g1),
                                   _plane_minors(h1, h2, g2)) if x or y]
    if not rows:
        return _sector_intersection(c1, c2)
    x, y = rows[0]
    a, b = (y, -x) if y >= 0 and x <= 0 else (-y, x)
    if a < 0 or b < 0:
        return ZERO_CONE  # the line meets c1 only in 0
    w = primitive_vector(tuple(a * s + b * t for s, t in zip(g1, g2)))
    return Cone((w,)) if cone_contains(c2, w) else ZERO_CONE


# ---------------------------------------------------------------------------
# the cone collection of a curve


def _primitive_rational(vec) -> Ray | None:
    """The primitive integer vector on the ray through a rational vector
    (denominators cleared), or None for the zero vector."""
    den = lcm(*(Fraction(x).denominator for x in vec))
    return primitive_vector(tuple(int(x * den) for x in vec))


def _ray_of_point(h) -> Ray:
    return _primitive_rational(tuple(h) + (1,))


def _ray_of_direction(d) -> Ray | None:
    vec = tuple(int(x) for x in d) + (0,)
    return primitive_vector(vec)


def _curve_cones(p: ParamTropicalCurve):
    """The ray of every vertex (None at a contracted end) and the 2-cone of
    every nonzero-slope edge, both in the curve's order; the one place
    where either is derived."""
    pc.require_balanced(p)
    rays = {v: _ray_of_point(p.hv(v)) for v in p.curve.finite_vertices}
    rays.update((v, _ray_of_direction(p.hv(v)))
                for v in p.curve.infinite_vertices)
    edge_cones = {e.id: cone(rays[e.ends[0]], rays[e.ends[1]])
                  for e in p.curve.edges
                  if pc.edge_geometry(p, e.id).slope is not None}
    return rays, edge_cones


def _sorted_cones(cones) -> tuple[Cone, ...]:
    return tuple(sorted(cones, key=lambda c: (c.dim, c.generators)))


def _collection(rays, edge_cones) -> tuple[Cone, ...]:
    cones = {ZERO_CONE, *edge_cones.values()}
    cones.update(Cone((r,)) for r in rays.values() if r is not None)
    return _sorted_cones(cones)


def build_K(p: ParamTropicalCurve) -> tuple[Cone, ...]:
    """The cone collection K: the zero cone, a ray per finite vertex, a ray
    per non-contracted infinite vertex, and a 2-cone per nonzero-slope edge."""
    return _collection(*_curve_cones(p))


def _refine(cones):
    """The fan of ``refine_to_fan`` and, for each input 2-cone, the rays
    strictly inside it, ordered from its first generator to its second."""
    cones = list(dict.fromkeys(cones))
    rays = {c.generators[0] for c in cones if c.dim == 1}
    two = [c for c in cones if c.dim == 2]
    for c in two:
        rays.update(c.generators)
    for i, c1 in enumerate(two):
        for c2 in two[i + 1:]:
            inter = intersect_cones(c1, c2)
            if inter.dim == 1:
                rays.add(inter.generators[0])
            elif inter.dim == 2:
                rays.update(inter.generators)
    out = {ZERO_CONE}
    out.update(Cone((r,)) for r in rays)
    chains = {}
    for c in two:
        interior = []
        for r in rays:
            pos = _interior_position(c, r)
            if pos is not None:
                interior.append((pos, r))
        interior.sort()
        chains[c] = tuple(r for _, r in interior)
        chain = [c.generators[0], *chains[c], c.generators[1]]
        for a, b in zip(chain, chain[1:]):
            out.add(cone(a, b))
    return _sorted_cones(out), chains


def refine_to_fan(cones) -> tuple[Cone, ...]:
    """The unique fan whose rays are the pairwise 1-dimensional
    intersections and whose support is the union of the input cones."""
    return _refine(cones)[0]


def _require_fan(cones) -> None:
    """Raise fan_axiom unless the collection is its own refinement, which
    for a collection holding the zero cone and its facet rays is the fan
    axiom.  The evidence is each 2-cone the refinement splits, with the
    rays inside it."""
    fan, chains = _refine(cones)
    if set(fan) != set(cones):
        bad = [f"{c} contains {', '.join(map(str, chain))}"
               for c, chain in chains.items() if chain]
        raise CrossCheckFailed(
            "fan_axiom", "curve cones do not form a fan (apply gamma_tr "
            "first): " + "; ".join(bad))


def gamma_tr(p: ParamTropicalCurve) -> ParamTropicalCurve:
    """Subdivide every nonzero-slope edge at the interior crossing rays of
    the refined fan, so that the curve's own cone collection becomes that
    fan.  Idempotent."""
    rays, edge_cones = _curve_cones(p)
    chains = _refine(_collection(rays, edge_cones))[1]
    n = p.lattice_rank
    positions = {}
    for eid, c in edge_cones.items():
        for r in chains[c]:
            if r[n] <= 0:
                raise CrossCheckFailed(
                    "interior_ray_height",
                    f"interior ray {r} of the cone of edge {eid} has "
                    "height 0")
            positions.setdefault(eid, []).append(
                tuple(Fraction(x, r[n]) for x in r[:n]))
    if not positions:
        return p
    return pc.subdivide_at_positions(p, positions)


# ---------------------------------------------------------------------------
# the fan model with curve indexing


@dataclass
class FanModel:
    ambient_rank: int                       # n + 1
    cones: tuple[Cone, ...]
    eta_rays: tuple[Ray, ...]               # rays with last coordinate 0
    ray_vertices: dict[Ray, tuple[str, ...]]
    cone_edges: dict[Cone, tuple[str, ...]]

    def rays(self) -> tuple[Ray, ...]:
        return tuple(c.generators[0] for c in self.cones if c.dim == 1)

    def two_cones(self) -> tuple[Cone, ...]:
        return tuple(c for c in self.cones if c.dim == 2)


def fan_model(p_tr: ParamTropicalCurve) -> FanModel:
    """Index the fan of a refined curve (a gamma_tr output) by its vertices
    and edges."""
    rays, edge_cones = _curve_cones(p_tr)
    cones = _collection(rays, edge_cones)
    _require_fan(cones)
    ray_vertices: dict[Ray, list] = {}
    for v, r in rays.items():
        if r is not None:
            ray_vertices.setdefault(r, []).append(v)
    eta = {rays[v] for v in p_tr.curve.infinite_vertices} - {None}
    cone_edges: dict[Cone, list] = {}
    for eid, c in edge_cones.items():
        cone_edges.setdefault(c, []).append(eid)
    return FanModel(
        p_tr.lattice_rank + 1, cones, tuple(sorted(eta)),
        {r: tuple(vs) for r, vs in ray_vertices.items()},
        {c: tuple(es) for c, es in cone_edges.items()},
    )


def cone_multiplicities(fm: FanModel, p_tr: ParamTropicalCurve):
    """l(sigma) = lcm of the edge multiplicities over a 2-cone, and
    l(rho) = lcm of the vertex multiplicities over an eta-ray."""
    l_sigma = {}
    for c, eids in fm.cone_edges.items():
        l_sigma[c] = lcm(*(pc.edge_geometry(p_tr, eid).multiplicity
                           for eid in eids))
    l_rho = {}
    for r in fm.eta_rays:
        mults = []
        for v in fm.ray_vertices.get(r, ()):
            if v in p_tr.curve.infinite_vertices:
                mults.append(integral_length(pc.as_int_vec(p_tr.hv(v))))
        l_rho[r] = lcm(*mults) if mults else 1
    return l_sigma, l_rho


def ramification(p_tr: ParamTropicalCurve, a: int):
    """Is the degenerate fiber reduced at ramification a, and the least a
    that works: a h(v) integral for the finite vertices and a |e| integral
    for the bounded edges."""
    if a < 1:
        raise ValueError("ramification index must be positive")
    dens = [1]
    for v in p_tr.curve.finite_vertices:
        dens.extend(x.denominator for x in p_tr.hv(v))
    for e in p_tr.curve.bounded_edges():
        dens.append(e.length.denominator)
    minimal = lcm(*dens)
    return {"reduced": a % minimal == 0, "minimal_a": minimal}


def _height_one_point(r: Ray):
    n = len(r) - 1
    if r[n] <= 0:
        raise ValueError("not a positive-height ray")
    return tuple(Fraction(x, r[n]) for x in r[:n])


def reduction_exponents(p_tr: ParamTropicalCurve, v: str):
    """Exponent data of the component map at a finite vertex: one integer
    vector per incident edge end (the character exponents of the restriction
    to the component).  The entries sum to zero by balancing."""
    pc.require_balanced(p_tr)
    out = []
    ends = pc._outgoing(p_tr, v, set(p_tr.curve.infinite_vertices))
    # the sort is stable, so the two ends of a loop keep their order
    for e, vec in sorted(ends, key=lambda end: end[0].id):
        ivec = pc.as_int_vec(vec)
        if ivec is None:
            raise CrossCheckFailed(
                "integral_exponents",
                f"edge {e.id} leaves {v} along {tuple(map(str, vec))}")
        out.append((e.id, ivec))
    return out


def fan_to_json(fm: FanModel, mults=None) -> dict:
    rays = list(fm.rays())
    ray_index = {r: i for i, r in enumerate(rays)}
    eta = set(fm.eta_rays)

    def ckey(c):
        i, j = sorted((ray_index[c.generators[0]], ray_index[c.generators[1]]))
        return f"{i}-{j}"

    data = {
        "rays": [list(r) for r in rays],
        "eta": [r in eta for r in rays],
        "cones": sorted(sorted((ray_index[c.generators[0]],
                                ray_index[c.generators[1]]))
                        for c in fm.two_cones()),
        "ray_vertices": {str(ray_index[r]): sorted(vs)
                         for r, vs in sorted(fm.ray_vertices.items())},
        "cone_edges": {ckey(c): sorted(es)
                       for c, es in sorted(fm.cone_edges.items(),
                                           key=lambda kv: kv[0].generators)},
    }
    if mults is not None:
        l_sigma, l_rho = mults
        data["cone_multiplicities"] = {
            ckey(c): m
            for c, m in sorted(l_sigma.items(), key=lambda kv: kv[0].generators)}
        data["ray_multiplicities"] = {
            str(ray_index[r]): m for r, m in sorted(l_rho.items())}
    return data
