"""Abstract tropical curves as metric graphs.

A curve is a finite connected graph with two vertex classes: finite vertices,
and an ordered list of infinite vertices, each of valency one at the far end
of an unbounded (infinite-length) edge.  Bounded edges carry positive
rational lengths.  Loops and multi-edges are allowed; a loop counts once in
|E| and twice in the valency of its vertex.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import BadSubdivision, GenusNotOne, NotStabilizable
from .exactla import Record


class Edge(NamedTuple):
    id: str
    ends: tuple[str, str]
    length: Fraction | None  # None encodes infinite length

    @property
    def is_bounded(self) -> bool:
        return self.length is not None


class TropicalCurve(Record):
    """An immutable curve.  Its validity verdict, set of infinite vertices,
    edge index, incidence lists, edge split and bounded-edge forest are
    built on first use and kept on the object.  Validation reads the
    incidence lists and the infinite set, as every other walk does."""

    _fields = ("finite_vertices", "infinite_vertices", "edges")

    def __init__(self, finite_vertices: tuple[str, ...],
                 infinite_vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(finite_vertices=finite_vertices,
                             infinite_vertices=infinite_vertices, edges=edges)

    def vertex_ids(self):
        return self.finite_vertices + self.infinite_vertices

    @cached_property
    def defects(self) -> tuple[str, ...]:
        """``validate``'s verdict, decided once per curve object."""
        return tuple(validate(self))

    @cached_property
    def infinite_set(self) -> frozenset[str]:
        return frozenset(self.infinite_vertices)

    @cached_property
    def _edge_index(self) -> dict[str, Edge]:
        index: dict[str, Edge] = {}
        for e in self.edges:
            index.setdefault(e.id, e)   # the first of duplicate ids wins
        return index

    @cached_property
    def incidence(self) -> dict[str, tuple[tuple[Edge, str], ...]]:
        """(edge, far end) for every edge end at each vertex, in edge order
        and ends[0] before ends[1]; a loop is listed twice.  Endpoints
        unknown to the vertex lists get entries too."""
        inc: dict[str, list] = {v: [] for v in self.vertex_ids()}
        for e in self.edges:
            u, w = e.ends
            inc.setdefault(u, []).append((e, w))
            inc.setdefault(w, []).append((e, u))
        return {v: tuple(ends) for v, ends in inc.items()}

    @cached_property
    def bounded_forest(self) -> dict[str, tuple[str, Edge] | None]:
        """The curve's ``spanning_forest``."""
        return spanning_forest(self)

    def edge(self, eid: str) -> Edge:
        return self._edge_index[eid]

    @cached_property
    def _split_edges(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        return (tuple(e for e in self.edges if e.is_bounded),
                tuple(e for e in self.edges if not e.is_bounded))

    def bounded_edges(self):
        return self._split_edges[0]

    def unbounded_edges(self):
        return self._split_edges[1]


def curve(finite, infinite=(), edges=()) -> TropicalCurve:
    """Convenience constructor; edges given as (id, (u, v), length) with
    length a Fraction/int/str or None for unbounded."""
    es = []
    for eid, ends, ln in edges:
        es.append(Edge(str(eid), (str(ends[0]), str(ends[1])),
                       None if ln is None else Fraction(ln)))
    return TropicalCurve(tuple(str(v) for v in finite),
                         tuple(str(v) for v in infinite), tuple(es))


def _unbounded_ends(e: Edge, infinite) -> tuple[str, str]:
    """(finite end, infinite end) of an unbounded edge, given the set of
    infinite vertices."""
    u, w = e.ends
    return (u, w) if w in infinite else (w, u)


def valency(c: TropicalCurve, v: str) -> int:
    return len(c.incidence.get(v, ()))


def validate(c: TropicalCurve) -> list[str]:
    """All violated invariants; empty list iff the curve is valid."""
    out, ids = [], list(c.vertex_ids())
    known, infinite = set(ids), c.infinite_set
    if len(known) != len(ids):
        out.append("duplicate vertex ids")
    if len({e.id for e in c.edges}) != len(c.edges):
        out.append("duplicate edge ids")
    for e in c.edges:
        u, w = e.ends
        if u not in known or w not in known:
            out.append(f"edge {e.id} has unknown endpoint")
            continue
        n_inf = (u in infinite) + (w in infinite)
        if e.is_bounded:
            if n_inf:
                out.append(f"(p3): bounded edge {e.id} touches an infinite vertex")
            if e.length <= 0:
                out.append(f"(p3): bounded edge {e.id} has non-positive length")
        else:
            if n_inf != 1:
                out.append(f"(p2): unbounded edge {e.id} must join a finite and "
                           "an infinite vertex")
    for v in c.infinite_vertices:
        if (k := valency(c, v)) != 1:
            out.append(f"(p2): infinite vertex {v} has valency {k}")
    # a walk from the first vertex that never steps to an unknown endpoint
    seen = set(ids[:1])
    for v in (queue := ids[:1]):
        for _, w in c.incidence[v]:
            if w in known and w not in seen:
                seen.add(w)
                queue.append(w)
    if not known or seen != known:
        out.append("disconnected")
    return out


def genus(c: TropicalCurve) -> int:
    """1 - |V| + |E|; the first Betti number for connected curves."""
    return 1 - len(c.vertex_ids()) + len(c.edges)


def spanning_forest(c: TropicalCurve) -> dict[str, tuple[str, Edge] | None]:
    """A BFS forest over the finite vertices through the bounded edges,
    each component rooted at its first finite vertex: every vertex maps to
    (parent, edge), a root to None, parents before children."""
    up: dict[str, tuple[str, Edge] | None] = {}
    for root in c.finite_vertices:
        if root in up:
            continue
        up[root] = None
        for v in (queue := [root]):
            for e, w in c.incidence[v]:
                if w not in up and e.is_bounded:
                    up[w] = (v, e)
                    queue.append(w)
    return up


def cycle_edges(c: TropicalCurve) -> tuple[Edge, ...]:
    """The one cycle of a genus-one curve, in edge order: the bounded edge
    off the spanning tree of the bounded edges, and the tree edges on
    exactly one of its two ends' paths to the root."""
    if genus(c) != 1:
        raise GenusNotOne(f"genus is {genus(c)}")
    up = c.bounded_forest
    tree = {link[1].id for link in up.values() if link}
    off = [e for e in c.bounded_edges() if e.id not in tree]
    if len(off) != 1:
        raise GenusNotOne(f"{len(off)} bounded edges lie off the spanning tree")
    on = {off[0].id}
    for v in off[0].ends:
        while up[v] is not None:
            v, e = up[v]
            on ^= {e.id}
    return tuple(e for e in c.edges if e.id in on)


# ---------------------------------------------------------------------------
# the three-step modification algorithm


class Subdivide(NamedTuple):
    edge: str
    # strictly increasing, measured from ends[0] of a bounded edge and from
    # the finite end of an unbounded one
    distances: tuple[Fraction, ...]
    vertex_ids: tuple[str, ...] = ()


class AttachTree(NamedTuple):
    root: str               # finite vertex of the target curve
    tree: TropicalCurve     # metric tree; its root is identified with `root`
    tree_root: str


def modify(c: TropicalCurve, steps) -> TropicalCurve:
    """Apply subdivision and tree-attachment steps.  Subdivision preserves
    the metric; new infinite leaves are appended after the existing infinite
    vertices in input order.  Every id a step adds must be new."""
    return _modify(c, steps)[0]


def _modify(c: TropicalCurve, steps):
    """``modify``'s one walk over the steps, keeping each vertex class in
    one insertion-ordered dict: the modified curve, and one placement per
    step.  A subdivision reads its edge's kind off the curve: the chain runs
    from the edge's start (ends[0] of a bounded edge, the finite end of an
    unbounded one) through the new vertices to its other end, cut at bounds
    [0, *distances, |e|], the last piece unbounded when |e| is.  Its
    placement is (the edge as it was, that chain); with no distances the
    edge stays on its own ends.  An attachment's placement is None.  A new
    id already in use, a vertex id repeated within a step and a tree root
    that is not a finite vertex of its tree raise ``BadSubdivision``."""
    finite = dict.fromkeys(c.finite_vertices)
    infinite = dict.fromkeys(c.infinite_vertices)
    edges, placements = {e.id: e for e in c.edges}, []
    for step in steps:
        if isinstance(step, Subdivide):
            e = edges.get(step.edge)
            if e is None:
                raise BadSubdivision(f"no edge {step.edge}")
            ds = [Fraction(d) for d in step.distances]
            if any(y <= x for x, y in zip(ds, ds[1:])):
                raise BadSubdivision("distances must be strictly increasing")
            new_vs = (list(step.vertex_ids)
                      or [f"{e.id}.v{k + 1}" for k in range(len(ds))])
            if len(new_vs) != len(ds):
                raise BadSubdivision("vertex id count does not match distances")
            if not ds:
                placements.append((e, e.ends))
                continue
            if e.is_bounded:
                if ds[0] <= 0 or ds[-1] >= e.length:
                    raise BadSubdivision("distances must lie inside the edge")
                start, end = e.ends
            else:
                if ds[0] <= 0:
                    raise BadSubdivision("distances must be positive")
                start, end = _unbounded_ends(e, infinite)
            pieces = [f"{e.id}.p{k}" for k in range(len(ds) + 1)]
            clash = {v for v, k in Counter(new_vs).items()
                     if k > 1 or v in finite or v in infinite}
            clash.update(x for x in pieces if x in edges)
            if clash:
                raise BadSubdivision(f"id clash with subdivision: {sorted(clash)}")
            finite.update(dict.fromkeys(new_vs))
            chain = (start, *new_vs, end)
            bounds = (Fraction(0), *ds, e.length)
            del edges[e.id]
            for k, eid in enumerate(pieces):
                ln = None if bounds[k + 1] is None else bounds[k + 1] - bounds[k]
                edges[eid] = Edge(eid, chain[k:k + 2], ln)
            placements.append((e, chain))
        elif isinstance(step, AttachTree):
            if step.root not in finite:
                raise BadSubdivision(f"attachment root {step.root} not a finite vertex")
            t = step.tree
            if genus(t) != 0:
                raise BadSubdivision("attachment must be a tree")
            if validate(t):
                raise BadSubdivision("attachment tree is not a valid curve")
            if step.tree_root not in t.finite_vertices:
                raise BadSubdivision(f"tree root {step.tree_root} not a finite vertex")
            clash = {v for v in t.vertex_ids() if v != step.tree_root
                     and (v in finite or v in infinite)}
            clash.update(e.id for e in t.edges if e.id in edges)
            if clash:
                raise BadSubdivision(f"id clash with attached tree: {sorted(clash)}")
            finite.update((v, None) for v in t.finite_vertices if v != step.tree_root)
            infinite.update(dict.fromkeys(t.infinite_vertices))
            rename = {step.tree_root: step.root}
            for e in t.edges:
                u, w = (rename.get(x, x) for x in e.ends)
                edges[e.id] = Edge(e.id, (u, w), e.length)
            placements.append(None)
        else:
            raise TypeError(f"unknown modification step {step!r}")
    return (TropicalCurve(tuple(finite), tuple(infinite), tuple(edges.values())),
            placements)


# ---------------------------------------------------------------------------
# stabilization


def satisfies_stability_bound(c: TropicalCurve) -> bool:
    """g + (|V^inf| + 1)/2 >= 2, the tropical analogue of the three-special-
    points condition."""
    return 2 * genus(c) + len(c.infinite_vertices) + 1 >= 4


def is_stable(c: TropicalCurve) -> bool:
    return all(valency(c, v) >= 3 for v in c.finite_vertices)


def stabilize(c: TropicalCurve) -> TropicalCurve:
    """The unique stable curve from which c arises by subdivision and tree
    attachment: prune finite leaves from one worklist, then smooth the
    2-valent vertices in one pass in id order, adding lengths.  A stable c
    is returned itself."""
    bad = c.defects
    if bad:
        raise NotStabilizable("input curve is invalid: " + "; ".join(bad))
    if not satisfies_stability_bound(c):
        raise NotStabilizable(
            "genus and infinite-vertex count violate the stability bound")
    if is_stable(c):   # no finite leaf and no 2-valent vertex to remove
        return c
    finite = dict.fromkeys(c.finite_vertices)
    edges = {e.id: e for e in c.edges}
    # edge ids at each vertex in the order of ``edges``, a loop twice
    incident = {v: [e.id for e, _ in ends] for v, ends in c.incidence.items()}

    def drop(eid):
        for x in edges.pop(eid).ends:
            incident[x].remove(eid)

    # pruning a leaf re-examines only its neighbour; the pruned set is the
    # same in any order, and the stability bound keeps a core it never reaches
    leaves = [v for v in finite if len(incident[v]) == 1]
    for v in leaves:
        e = edges[incident[v][0]]
        w = e.ends[0] if e.ends[1] == v else e.ends[1]
        drop(e.id)
        del finite[v]
        if w in finite and len(incident[w]) == 1:
            leaves.append(w)
    # smooth 2-valent finite vertices in one pass: the edge that replaces
    # v's two keeps the valency of every other vertex (two edges to one
    # neighbour become a loop there), so no vertex becomes 2-valent later
    for v in sorted(finite):
        if len(incident[v]) != 2:
            continue
        # two distinct edges, at most one unbounded: a lone loop vertex
        # (g = 1, no ends) and a line (g = 0, two ends) break the bound
        e1, e2 = (edges[i] for i in incident[v])
        u = e1.ends[0] if e1.ends[1] == v else e1.ends[1]
        w = e2.ends[0] if e2.ends[1] == v else e2.ends[1]
        ln = e1.length + e2.length if e1.is_bounded and e2.is_bounded else None
        # keep the infinite endpoint second: it is the unbounded edge's far end
        if not e1.is_bounded:
            u, w = w, u
        nid = f"{e1.id}+{e2.id}"
        drop(e1.id)
        drop(e2.id)
        while nid in edges:
            nid += "'"
        edges[nid] = Edge(nid, (u, w), ln)
        for x in (u, w):
            incident[x].append(nid)
        del finite[v]
    out = TropicalCurve(tuple(finite), c.infinite_vertices, tuple(edges.values()))
    if not is_stable(out):
        raise NotStabilizable("no stable curve under this input")
    return out
