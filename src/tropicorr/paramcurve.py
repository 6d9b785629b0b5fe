"""Parameterized tropical curves: a vertex map h into N_Q with integral
slopes and the balancing condition.

h is stored at vertices only; on edges the map is the implicit straight
interpolation.  For a finite vertex h(v) is a point of N_Q, for an infinite
vertex it is the outgoing direction vector of its unbounded edge (the zero
vector marks a contracted end, i.e. a marked point).  Each edge's direction
is derived once per curve object, from h cleared to integers over one
common denominator (``_derive_slopes``, which keeps them); Fractions remain
at parse, in transport and in a constraint's own point.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from . import tropgraph
from .errors import ConstraintCountMismatch, NotBalanced
from .exactla import (
    Record,
    Sublattice,
    integral_length,
    primitive_vector,
    quotient_presentation,
)
from .tropgraph import TropicalCurve

QVec = tuple[Fraction, ...]


def qvec(xs) -> QVec:
    return tuple(Fraction(x) for x in xs)


class EdgeGeometry(NamedTuple):
    slope: tuple[int, ...] | None  # primitive direction, None for zero slope
    multiplicity: int              # l(e); 0 exactly when the slope is zero


class _Slopes(NamedTuple):
    edges: dict[str, EdgeGeometry | None]   # None: direction not integral
    defects: dict[str, QVec]                # nonzero balancing sums
    d: int      # lcm of the denominators of h and of the edge lengths
    hd: dict[str, tuple[int, ...]]          # d h(v), integral, per vertex


class ParamTropicalCurve(Record):
    """A curve with its vertex map.  h is a read-only copy of the mapping
    given, so the facts derived from the object (its violation list, its
    edge slopes and its stabilization) are computed once and live exactly
    as long as the object."""

    _fields = ("curve", "lattice_rank", "h")

    def __init__(self, curve: TropicalCurve, lattice_rank: int,
                 h: Mapping[str, QVec]):
        self.__dict__.update(curve=curve, lattice_rank=lattice_rank,
                             h=MappingProxyType(dict(h)))

    def hv(self, v: str) -> QVec:
        return self.h[v]

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """What ``param_violations`` reports; empty iff balanced."""
        return tuple(_collect_violations(self))

    @cached_property
    def _slopes(self) -> _Slopes:
        return _derive_slopes(self)

    @cached_property
    def _stabilization(self) -> ParamTropicalCurve | None:
        """``stabilize_param``'s result, None for the curve itself (so no
        object refers to itself); NotStabilizable is never cached."""
        st = tropgraph.stabilize(self.curve)
        if st == self.curve and self.h.keys() == set(st.vertex_ids()):
            return None
        return ParamTropicalCurve(st, self.lattice_rank,
                                  {v: self.hv(v) for v in st.vertex_ids()})


def param_curve(c: TropicalCurve, lattice_rank: int, h) -> ParamTropicalCurve:
    hh = {str(v): qvec(vec) for v, vec in h.items()}
    return ParamTropicalCurve(c, lattice_rank, hh)


def _orient(e: tropgraph.Edge) -> tuple[str, str]:
    """Default orientation of a bounded edge: from the lexicographically
    smaller vertex id to the larger one."""
    u, w = e.ends
    return (u, w) if u <= w else (w, u)


def _derive_slopes(p: ParamTropicalCurve) -> _Slopes:
    """The one derivation of edge directions.  With d the lcm of the
    denominators of h and of the edge lengths, the direction of an edge
    leaving ``start`` ((h(w)-h(start))/|e| for a bounded edge in its default
    orientation, h(w) for an unbounded one) is the integer vector
    d h(w) - d h(start) over d |e|, or d h(w) over d; it has an EdgeGeometry
    iff that is integral.  Balancing sums are over the edges' common
    denominator, 1 unless some edge is not integral."""
    c, inf_set = p.curve, set(p.curve.infinite_vertices)
    d = lcm(*(x.denominator for vec in p.h.values() for x in vec),
            *(e.length.denominator for e in c.bounded_edges()))
    hd = {v: tuple(x.numerator * (d // x.denominator) for x in vec)
          for v, vec in p.h.items()}
    exact, edges = {}, {}
    for e in c.edges:
        if e.is_bounded:
            start, w = _orient(e)
            num = [y - x for x, y in zip(hd[start], hd[w])]
            den = e.length.numerator * (d // e.length.denominator)
        else:
            start, w = tropgraph._unbounded_ends(e, inf_set)
            num, den = hd[w], d
        g = gcd(den, *num)
        num, den = [x // g for x in num], den // g
        exact[e.id] = start, num, den
        edges[e.id] = None if den != 1 else EdgeGeometry(
            primitive_vector(num), integral_length(num))
    scale = lcm(*(den for _, _, den in exact.values()))
    defects = {}
    for v in c.finite_vertices:
        total = [0] * p.lattice_rank
        for e, _ in c.incidence.get(v, ()):
            start, num, den = exact[e.id]
            k = scale // den if start == v else -(scale // den)
            total = [t + k * x for t, x in zip(total, num)]
        if any(total):
            defects[v] = tuple(Fraction(x, scale) for x in total)
    return _Slopes(edges, defects, d, hd)


def param_violations(p: ParamTropicalCurve) -> list[str]:
    """Structural violations plus integrality and balancing defects."""
    return list(p._violations)


def _collect_violations(p: ParamTropicalCurve) -> list[str]:
    out = list(p.curve.defects)
    n = p.lattice_rank
    for v in p.curve.vertex_ids():
        if v not in p.h:
            out.append(f"missing h({v})")
        elif len(p.h[v]) != n:
            out.append(f"h({v}) has wrong length")
    if out:
        return out
    slopes = p._slopes
    for v in p.curve.infinite_vertices:
        if slopes.edges[p.curve.incidence[v][0][0].id] is None:
            out.append(f"h({v}) must be integral for an infinite vertex")
    for e in p.curve.bounded_edges():
        if slopes.edges[e.id] is None:
            out.append(f"edge {e.id}: (h(v)-h(v'))/|e| is not integral")
    for v, defect in slopes.defects.items():
        out.append(f"balancing fails at {v}: defect {tuple(map(str, defect))}")
    return out


def require_balanced(p: ParamTropicalCurve):
    if p._violations:
        raise NotBalanced("; ".join(p._violations))


def edge_geometry(p: ParamTropicalCurve, eid: str) -> EdgeGeometry:
    geo = p._slopes.edges[eid]
    if geo is None:
        raise NotBalanced(f"edge {eid} has non-integral direction")
    return geo


def is_dm(p: ParamTropicalCurve, char_p: int) -> bool:
    """Deligne-Mumford criterion: the residue characteristic divides no
    multiplicity l(e) over the stabilization's nonzero-slope edges."""
    if char_p == 0:
        return True
    p_st = stabilize_param(p)
    for e in p_st.curve.edges:
        mult = edge_geometry(p_st, e.id).multiplicity
        if mult and mult % char_p == 0:
            return False
    return True


def end_geometry(p: ParamTropicalCurve, v: str) -> EdgeGeometry:
    """The geometry of the unbounded edge at the infinite vertex v, whose
    direction is h(v)."""
    return edge_geometry(p, p.curve.incidence[v][0][0].id)


def zero_slope_bounded_count(p: ParamTropicalCurve) -> int:
    """c(Gamma): bounded edges contracted by h."""
    return sum(1 for e in p.curve.bounded_edges()
               if edge_geometry(p, e.id).slope is None)


def degree(p: ParamTropicalCurve) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Distinct primitive unbounded directions with summed multiplicities;
    contracted ends are excluded.  The pairs sum to zero by balancing."""
    acc: dict[tuple[int, ...], int] = {}
    for e in p.curve.unbounded_edges():
        geo = edge_geometry(p, e.id)
        if geo.slope is None:
            continue
        acc[geo.slope] = acc.get(geo.slope, 0) + geo.multiplicity
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# transport of the parameterization along modifications


def extend_parameterization(p: ParamTropicalCurve, steps) -> ParamTropicalCurve:
    """Apply modification steps, copying h(root) onto attached tree
    vertices and setting h = 0 on new infinite leaves.  A subdivision
    vertex at distance dist along its edge's chain gets h(start) + dist vel,
    with vel = (h(end) - h(start))/|e| on a bounded edge and h(end) on an
    unbounded one.  The steps are resolved in one ``tropgraph._modify``
    walk, so they raise ``BadSubdivision`` as ``modify`` does; h is then
    placed along what it resolved, step by step.  The output is balanced
    whenever the input is."""
    steps = tuple(steps)
    cur, placements = tropgraph._modify(p.curve, steps)
    h = dict(p.h)
    for step, placed in zip(steps, placements):
        if placed is None:      # an attached tree
            for v in step.tree.finite_vertices:
                if v != step.tree_root:
                    h[v] = h[step.root]
            for v in step.tree.infinite_vertices:
                h[v] = (Fraction(0),) * p.lattice_rank
            continue
        e, (start, *new, end) = placed
        hs = h[start]
        vel = (tuple((y - x) / e.length for x, y in zip(hs, h[end]))
               if e.is_bounded else h[end])
        for vid, dist in zip(new, map(Fraction, step.distances)):
            h[vid] = tuple(x + dist * y for x, y in zip(hs, vel))
    return ParamTropicalCurve(cur, p.lattice_rank, {v: h[v] for v in cur.vertex_ids()})


def stabilize_param(p: ParamTropicalCurve) -> ParamTropicalCurve:
    """Stabilization with the parameterization restricted to the surviving
    vertices (pruned trees are contracted by h, smoothing respects slopes),
    derived once per curve object.  A stable p keyed by exactly its vertices
    is returned as it is, so the facts derived from it are kept."""
    st = p._stabilization
    return p if st is None else st


# ---------------------------------------------------------------------------
# affine constraints


class AffineConstraint(Record):
    """point + space_Q, space saturated of corank >= 2.  ``presentation``,
    the matrix of N -> N/space, is computed once, here: over Q its kernel is
    space_Q, and its Smith divisors are all 1 iff space is saturated."""

    _fields = ("space", "point")    # point: a_i in N_Q

    def __init__(self, space: Sublattice, point: QVec):
        point = qvec(point)
        if space.corank < 2:
            raise ValueError("constraint sublattice must have corank >= 2")
        try:
            pres = quotient_presentation(space)
        except ValueError:
            raise ValueError("constraint sublattice must be saturated") from None
        self.__dict__.update(space=space, point=point, presentation=pres)
        self.__dict__["_point_image"] = self._image(point)

    def _image(self, v):
        """(d, P w) with v = w / d and w integral: P v in integers."""
        dens = [x.denominator for x in v]
        d = lcm(*dens)
        w = [x.numerator * (d // e) for x, e in zip(v, dens)]
        return d, [sum(map(mul, row, w)) for row in self.presentation]

    def maps_to_zero(self, v) -> bool:
        """Is v in space_Q?"""
        return not any(self._image(v)[1])

    def on_translate(self, d: int, x) -> bool:
        """Is x / d in point + space_Q, for integral x and d > 0?"""
        da, pa = self._point_image
        return all(da * sum(map(mul, row, x)) == d * z
                   for row, z in zip(self.presentation, pa))


class AffineConstraintSet(Record):
    """A record, not a tuple: its length is the number of constraints."""

    _fields = ("items",)

    def __init__(self, items: tuple[AffineConstraint, ...]):
        self.__dict__.update(items=items)

    def __len__(self):
        return len(self.items)

    @property
    def codim(self) -> int:
        return sum(c.space.corank for c in self.items)


def constraint_set(items, ambient_rank: int) -> AffineConstraintSet:
    """items: iterable of (basis rows, point)."""
    return AffineConstraintSet(tuple(
        AffineConstraint(Sublattice(ambient_rank, tuple(map(tuple, basis))), qvec(pt))
        for basis, pt in items
    ))


class ConstraintReport(NamedTuple):
    satisfies: bool
    simple: bool
    codim: int
    problems: tuple[str, ...]


def marked_pairs(p: ParamTropicalCurve, k: int):
    """(infinite vertex, its finite neighbour) for the first k infinite
    vertices, which is where constraints bind."""
    if k > len(p.curve.infinite_vertices):
        raise ConstraintCountMismatch(
            f"{k} constraints but only {len(p.curve.infinite_vertices)} infinite vertices")
    return [(v, p.curve.incidence[v][0][1])
            for v in p.curve.infinite_vertices[:k]]


def check_constraint(p: ParamTropicalCurve, a: AffineConstraintSet) -> ConstraintReport:
    """Does the curve satisfy / simply satisfy the constraint?

    Satisfaction: the i-th infinite vertex is contracted (h = 0) and its
    finite neighbour lies on the affine translate.  Simplicity additionally
    needs the neighbour trivalent with every bounded edge there of nonzero
    slope meeting the constraint space trivially.  Both are decided on
    every call, and no verdict is kept on the curve.
    """
    require_balanced(p)
    problems = tuple(_unsatisfied(p, a))
    satisfied = not problems
    return ConstraintReport(satisfied, satisfied and _simple(p, a), a.codim,
                            problems)


def _unsatisfied(p: ParamTropicalCurve, a: AffineConstraintSet) -> list[str]:
    """The satisfaction part of ``check_constraint``: its problems, none
    when the curve satisfies the constraint; the complexes' checks and a
    count's ``satisfies_A`` flag read it too."""
    problems = []
    for i, ((vinf, vfin), con) in enumerate(zip(marked_pairs(p, len(a)), a.items)):
        if con.space.ambient_rank != p.lattice_rank:
            raise ValueError("constraint ambient rank mismatch")
        if end_geometry(p, vinf).slope is not None:
            problems.append(f"constraint {i}: h({vinf}) != 0")
        if not con.on_translate(p._slopes.d, p._slopes.hd[vfin]):
            problems.append(f"constraint {i}: h({vfin}) not on the translate")
    return problems


def _simple(p: ParamTropicalCurve, a: AffineConstraintSet) -> bool:
    """The simplicity part of ``check_constraint``, for a curve that
    satisfies the constraint."""
    for (_, vfin), con in zip(marked_pairs(p, len(a)), a.items):
        if tropgraph.valency(p.curve, vfin) != 3:
            return False
        for e, _ in p.curve.incidence[vfin]:
            if not e.is_bounded:
                continue
            slope = edge_geometry(p, e.id).slope
            if slope is None or con.maps_to_zero(slope):
                return False
    return True


# ---------------------------------------------------------------------------
# genus one: the tropical j-invariant


def tropical_j(p: ParamTropicalCurve) -> Fraction:
    """Total length of the unique cycle of a genus-one curve."""
    return sum((e.length for e in tropgraph.cycle_edges(p.curve)), Fraction(0))
