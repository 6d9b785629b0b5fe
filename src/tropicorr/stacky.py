"""Toric stacky data on the fan of a refined curve.

Per cone of the fan a full-rank sublattice of the cone's lattice is chosen:
trivial on component rays, index l(rho) on the eta rays, and on 2-cones
either the sum of the facet lattices or, between two component rays, the
lattice spanned by (a n_rho1, a) and (l(sigma) n, 0).  The ambient lattice
is N + aZ; internally the last coordinate counts multiples of a, so all
vectors stay integral once the configuration is reduced.

Every cone has dimension at most 2, so all lattice work is 2x2 minors.  A
stabilizer order [N_sigma : N'_sigma], the product of the invariant factors
of a basis of N'_sigma, is the gcd of its maximal minors, and the
compatibility check restricts a 2-cone's sublattice to a facet ray by
Cramer's rule.  No Smith form, kernel or saturation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import fanmodel as fan
from . import paramcurve as pc
from .errors import CrossCheckFailed, NotReduced
from .exactla import Sublattice, integral_length, primitive_vector
from .fanmodel import Cone, FanModel
from .paramcurve import ParamTropicalCurve


def _scaled_gen(g, a: int):
    """Primitive generator of the same real ray in the basis of N + aZ
    where the last coordinate counts multiples of a."""
    return primitive_vector(tuple(a * x for x in g[:-1]) + (g[-1],))


@dataclass
class StackySigma:
    fan: FanModel
    a: int
    assignment: dict[Cone, Sublattice]       # cones in scaled coordinates
    stabilizer_order: dict[Cone, int]
    scaled_of: dict[Cone, Cone]              # original fan cone -> scaled cone

    def orders(self):
        return sorted(self.stabilizer_order.values())


def stacky_data(p_tr: ParamTropicalCurve, a: int) -> StackySigma:
    """Assign the stacky sublattices on the fan of a reduced configuration
    and compute the stabilizer orders.

    The order at a cone sigma is the index [N_sigma : N'_sigma], where
    N_sigma is the lattice of all points of sigma's span.  Each N'_sigma is
    built to span sigma, so N_sigma is its saturation, and the index is the
    gcd of the maximal minors of a basis of N'_sigma (``_index``).

    Raises NotReduced when a h(v) or a |e| fails to be integral, or when the
    defensive divisibility check l(sigma) | len(a(n2 - n1)) fails.
    """
    ram = fan.ramification(p_tr, a)
    if not ram["reduced"]:
        raise NotReduced(f"minimal ramification is {ram['minimal_a']}")
    fm = fan.fan_model(p_tr)
    n1 = fm.ambient_rank  # n + 1
    eta = set(fm.eta_rays)

    assignment: dict[Cone, Sublattice] = {}
    orders: dict[Cone, int] = {}
    scaled_of: dict[Cone, Cone] = {}

    for c in fm.cones:
        sc = scaled_of[c] = Cone(tuple(sorted(_scaled_gen(g, a)
                                              for g in c.generators)))
        if c.dim == 0:
            lat = Sublattice(n1, ())
        elif c.dim == 1:
            g = c.generators[0]
            k = fm.l_rho[g] if g in eta else 1
            lat = Sublattice(
                n1, (tuple(k * x for x in sc.generators[0]),))
        elif c.generators[0] in eta or c.generators[1] in eta:
            # the rays come first in fm.cones
            lat = Sublattice(n1, tuple(assignment[Cone((g,))].basis[0]
                                       for g in c.generators))
        else:
            # (a n_rho1, 1) and (a n_rho2, 1) when both are integral
            s1, s2 = (_scaled_gen(g, a) for g in c.generators)
            if s1[-1] != 1 or s2[-1] != 1:
                raise NotReduced("non-integral vertex at this ramification")
            diff = tuple(y - x for x, y in zip(s1[:-1], s2[:-1]))
            m = fm.l_sigma[c]
            if integral_length(diff) % m:
                raise NotReduced(
                    f"integral length {integral_length(diff)} of the cone "
                    f"displacement is not divisible by l(sigma) = {m}")
            gen2 = tuple(m * x for x in primitive_vector(diff)) + (0,)
            lat = Sublattice(n1, (s1, gen2))
        assignment[c] = lat
        orders[c] = _index(lat.basis)

    st = StackySigma(fm, a, assignment, orders, scaled_of)
    _verify_compatibility(st)
    return st


def _index(basis) -> int:
    """Index of the lattice of at most two independent rows in its
    saturation: the gcd of the maximal minors."""
    if len(basis) < 2:
        return integral_length(basis[0]) if basis else 1
    b1, b2 = basis
    return gcd(*(b1[i] * b2[j] - b1[j] * b2[i]
                 for i, j in combinations(range(len(b1)), 2)))


def _ray_restriction(lat: Sublattice, s) -> Sublattice:
    """lat intersected with the line through the primitive vector s, for
    lat of rank at most 2.

    Cramer's rule on the 2x2 minors of the basis (b1, b2) gives integers
    (na, nb, d) with d > 0 and d s = na b1 + nb b2 (nb = 0 for rank 1),
    or shows that s is outside the span, where only 0 is left.  b1 and b2 are independent, so
    (na/d, nb/d) are the only coordinates of s: k s lies in lat iff d
    divides k na and k nb, i.e. iff m = d / gcd(na, nb, d) divides k.  So
    m s is the least positive multiple of s in lat, and as s is primitive
    no other rational multiple of s is integral: the restriction is Z m s.
    """
    coords = fan._coords_in(lat.basis, s)
    if coords is None:
        return Sublattice(lat.ambient_rank, ())
    na, nb, d = coords
    m = d // gcd(na, nb, d)
    return Sublattice(lat.ambient_rank, (tuple(m * x for x in s),))


def _verify_compatibility(st: StackySigma):
    """The defining compatibility: restricted to the span of any pairwise
    intersection, the sublattices of the two cones agree.

    fan_model has enforced the fan axiom, so every pairwise intersection is
    a common face, and scaling by a is a linear bijection that keeps faces.
    A face of a 2-cone is 0, a facet ray or the cone itself, and every
    restriction to 0 is 0.  Each ray's sublattice lies on the ray's span, so
    the pairwise condition holds iff each 2-cone's sublattice restricts to
    each facet ray's sublattice on that ray's span: 2 checks per 2-cone,
    each by ``_ray_restriction``.
    """
    for c in st.fan.two_cones():
        for g in c.generators:
            ray = Cone((g,))
            restricted = _ray_restriction(st.assignment[c],
                                          st.scaled_of[ray].generators[0])
            if restricted != st.assignment[ray]:
                raise CrossCheckFailed(
                    "stacky_compatibility",
                    f"the sublattice of {c} restricts to {restricted.basis} "
                    f"on the span of its ray {g}, whose sublattice is "
                    f"{st.assignment[ray].basis}")


def is_dm(p: ParamTropicalCurve, char_p: int) -> bool:
    """Deligne-Mumford criterion: the residue characteristic divides no
    multiplicity l(e) over the stabilization's nonzero-slope edges."""
    if char_p == 0:
        return True
    p_st = pc.stabilize_param(p)
    for e in p_st.curve.edges:
        mult = pc.edge_geometry(p_st, e.id).multiplicity
        if mult and mult % char_p == 0:
            return False
    return True


@dataclass
class NodeStackData:
    node_orders: dict[str, int]     # bounded edge -> l(sigma_e) / l(e)
    marked_orders: dict[str, int]   # infinite vertex -> l(rho) / l(v)


def node_stack(p_tr: ParamTropicalCurve) -> NodeStackData:
    """Orders of the stabilizers at the nodes and marked points of the
    reduction; ratio 1 means the stacky structure there is trivial."""
    fm = fan.fan_model(p_tr)
    node_orders = {}
    for c, eids in fm.cone_edges.items():
        for eid in eids:
            e = p_tr.curve.edge(eid)
            if e.is_bounded:
                mult = pc.edge_geometry(p_tr, eid).multiplicity
                if fm.l_sigma[c] % mult:
                    raise CrossCheckFailed(
                        "node_order", f"l(sigma) = {fm.l_sigma[c]} is not a "
                        f"multiple of l({eid}) = {mult}")
                node_orders[eid] = fm.l_sigma[c] // mult
    marked_orders = {}
    for v in p_tr.curve.infinite_vertices:
        geo = pc.end_geometry(p_tr, v)
        mult = geo.multiplicity
        if mult == 0:
            continue
        r = geo.slope + (0,)
        if fm.l_rho[r] % mult:
            raise CrossCheckFailed(
                "marked_order", f"l(rho) = {fm.l_rho[r]} is not a multiple of "
                f"l({v}) = {mult}")
        marked_orders[v] = fm.l_rho[r] // mult
    return NodeStackData(node_orders, marked_orders)


def stacky_to_json(st: StackySigma) -> dict:
    rays = list(st.fan.rays())
    ray_index = {r: i for i, r in enumerate(rays)}

    def ckey(c: Cone) -> str:
        if c.dim == 0:
            return "0"
        idx = sorted(ray_index[g] for g in c.generators)
        return "-".join(str(i) for i in idx) if c.dim == 2 else f"r{idx[0]}"

    return {
        "a": st.a,
        "rays": [list(r) for r in rays],
        "assignment": {ckey(c): [list(row) for row in lat.basis]
                       for c, lat in sorted(st.assignment.items(),
                                            key=lambda kv: (kv[0].dim, kv[0].generators))},
        "stabilizer_orders": {ckey(c): o
                              for c, o in sorted(st.stabilizer_order.items(),
                                                 key=lambda kv: (kv[0].dim, kv[0].generators))},
    }
