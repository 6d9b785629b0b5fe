"""Toric stacky data on the fan of a refined curve.

Per cone of the fan a full-rank sublattice of the cone's lattice is chosen:
trivial on component rays, index l(rho) on the eta rays, and on 2-cones
either the sum of the facet lattices or, between two component rays, the
lattice spanned by (a n_rho1, a) and (l(sigma) n, 0).  The ambient lattice
is N + aZ; internally the last coordinate counts multiples of a, so all
vectors stay integral once the configuration is reduced.

Every cone has dimension at most 2, so all lattice work is 2x2 minors of
plain integer rows.  A stabilizer order [N_sigma : N'_sigma] is the gcd of
the maximal minors of any basis of N'_sigma, and the compatibility check
finds a facet ray's multiplier in a 2-cone's rows by Cramer's rule.  No
Hermite or Smith form, kernel or saturation is needed; canonical (HNF)
bases are built only when ``assignment`` is read.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import NamedTuple

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


class StackySigma(NamedTuple):
    fan: FanModel
    a: int
    bases: dict[Cone, tuple]                 # rows of N'_sigma, scaled coords
    stabilizer_order: dict[Cone, int]
    scaled_of: dict[Cone, Cone]              # original fan cone -> scaled cone

    @property
    def assignment(self) -> dict[Cone, Sublattice]:
        """N'_sigma per cone with its canonical (HNF) basis, built on read."""
        return {c: Sublattice(self.fan.ambient_rank, rows)
                for c, rows in self.bases.items()}

    def orders(self):
        return sorted(self.stabilizer_order.values())


def stacky_data(p_tr: ParamTropicalCurve, a: int) -> StackySigma:
    """Assign the stacky sublattices on the fan of a reduced configuration
    and compute the stabilizer orders.

    The order at a cone sigma is the index [N_sigma : N'_sigma], where
    N_sigma is the lattice of all points of sigma's span.  Each N'_sigma is
    built to span sigma, so N_sigma is its saturation, and the index is the
    gcd of the maximal minors of any basis of N'_sigma (``_index``).

    Raises NotReduced when a h(v) or a |e| fails to be integral, or when the
    defensive divisibility check l(sigma) | len(a(n2 - n1)) fails.
    """
    ram = fan.ramification(p_tr, a)
    if not ram["reduced"]:
        raise NotReduced(f"minimal ramification is {ram['minimal_a']}")
    fm = fan.fan_model(p_tr)
    scaled = {g: _scaled_gen(g, a) for g in fm.rays()}

    bases: dict[Cone, tuple] = {}
    orders: dict[Cone, int] = {}
    scaled_of: dict[Cone, Cone] = {}

    for c in fm.cones:
        gens = tuple(scaled[g] for g in c)
        scaled_of[c] = tuple(sorted(gens))
        if not c:
            rows = ()
        elif len(c) == 1:
            k = fm.l_rho.get(c[0], 1)    # l(rho) on the eta rays
            rows = (tuple(k * x for x in gens[0]),)
        elif any(g in fm.l_rho for g in c):
            # an eta ray is in the cone; the rays come first in fm.cones
            rows = tuple(bases[(g,)][0] for g in c)
        else:
            # (a n_rho1, 1) and (a n_rho2, 1) when both are integral
            s1, s2 = gens
            if s1[-1] != 1 or s2[-1] != 1:
                raise NotReduced("non-integral vertex at this ramification")
            diff = tuple(y - x for x, y in zip(s1[:-1], s2[:-1]))
            m = fm.l_sigma[c]
            if integral_length(diff) % m:
                raise NotReduced(
                    f"integral length {integral_length(diff)} of the cone "
                    f"displacement is not divisible by l(sigma) = {m}")
            rows = (s1, tuple(m * x for x in primitive_vector(diff)) + (0,))
        bases[c], orders[c] = rows, _index(rows)
        if not orders[c]:
            raise CrossCheckFailed("stacky_index", f"the rows {rows} of "
                                   f"cone{c} are linearly dependent")

    st = StackySigma(fm, a, bases, orders, scaled_of)
    _verify_compatibility(st)
    return st


def _index(basis) -> int:
    """Index of the lattice of at most two rows in its saturation: the gcd
    of the maximal minors, 0 when the rows are dependent."""
    if len(basis) < 2:
        return integral_length(basis[0]) if basis else 1
    b1, b2 = basis
    return gcd(*(b1[i] * b2[j] - b1[j] * b2[i]
                 for i, j in combinations(range(len(b1)), 2)))


def _ray_multiplier(rows, s) -> int:
    """The least m > 0 with m s in the lattice of two independent rows,
    for primitive s; 0 when s is outside their span.

    Cramer's rule on the 2x2 minors of the rows (b1, b2) gives integers
    (na, nb, d) with d > 0 and d s = na b1 + nb b2, or shows that s is
    outside the span.  b1 and b2 are independent, so (na/d, nb/d) are the
    only coordinates of s: k s lies in the lattice iff d divides k na and
    k nb, i.e. iff m = d / gcd(na, nb, d) divides k.  As s is primitive no
    other rational multiple of s is integral, so the lattice meets the
    line through s in Z m s.
    """
    coords = fan._coords_in(rows, s)
    if coords is None:
        return 0
    na, nb, d = coords
    return d // gcd(na, nb, d)


def _verify_compatibility(st: StackySigma):
    """The defining compatibility: restricted to the span of any pairwise
    intersection, the sublattices of the two cones agree.

    gamma_tr's check, or fan_model's, has enforced the fan axiom, so every
    pairwise intersection is a common face, and scaling by a is a linear
    bijection that keeps faces.  A face of a 2-cone is 0, a facet ray or the
    cone itself, and every restriction to 0 is 0.  Each ray's sublattice
    lies on the ray's span, so the pairwise condition holds iff each
    2-cone's sublattice restricts to each facet ray's sublattice on that
    ray's span: 2 checks per 2-cone, each comparing the ray's row k s
    (k = l(rho) on the eta rays, else 1) with m s, m from ``_ray_multiplier``.
    """
    n1 = st.fan.ambient_rank
    for c in st.fan.two_cones():
        for g in c:
            ray = (g,)
            (s,) = st.scaled_of[ray]
            m = _ray_multiplier(st.bases[c], s)
            m_s = tuple(m * x for x in s)
            if st.bases[ray] != (m_s,):
                raise CrossCheckFailed(
                    "stacky_compatibility",
                    f"the sublattice of cone{c} restricts to "
                    f"{Sublattice(n1, (m_s,)).basis} on the span of its ray "
                    f"{g}, whose sublattice is {st.assignment[ray].basis}")


is_dm = pc.is_dm  # bench/run.py calls stacky.is_dm


class NodeStackData(NamedTuple):
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
    index, keys = fan.json_keys(st.fan)
    return {
        "a": st.a,
        "rays": [list(r) for r in index],
        "assignment": {keys[c]: [list(row) for row in lat.basis]
                       for c, lat in st.assignment.items()},
        "stabilizer_orders": {keys[c]: o
                              for c, o in st.stabilizer_order.items()},
    }
