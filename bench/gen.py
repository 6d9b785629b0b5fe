"""Seeded input generators for the benchmark.

Everything here is plain data (lists, dicts, Fractions) built from a
``random.Random``; nothing imports the library, so edits to ``src/`` or to
the test suite cannot change what a workload feeds it.  Every curve is
balanced by construction: stars whose directions sum to zero, sprouting an
end into a new vertex whose new ends sum to the old direction, lattice
polygons closed into a cycle and rebalanced with one end per corner, theta
graphs, and zero-slope decorations (loops, hanging trees).  Marked points
are contracted ends hung on a new trivalent vertex that subdivides an edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

F = Fraction
MAX_MULT = 4    # largest multiplicity of a generated end or edge


class Retry(Exception):
    """The current draw hit a bound; start the curve again."""


def mult(v) -> int:
    """Integral length (gcd of the entries) of an integer vector."""
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return g


def det2(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def vsum(*vs):
    return tuple(map(sum, zip(*vs)))


def neg(v):
    return tuple(-x for x in v)


def along(p, t, d):
    return tuple(x + t * y for x, y in zip(p, d))


@dataclass
class Curve:
    """A parameterized curve with its point or line constraints, as data.

    ``edges`` holds (id, u, w, length) with length None for unbounded edges
    (u finite, w infinite); ``h`` maps finite vertices to points of Q^n and
    infinite vertices to integer directions (zero for a marked end).
    Constraints bind to the first infinite vertices, in order.
    """

    n: int
    finite: list = field(default_factory=list)
    infinite: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    h: dict = field(default_factory=dict)
    constraints: list | None = None   # [(basis rows, point)]
    serial: int = 0

    def nid(self, tag):
        self.serial += 1
        return f"{tag}{self.serial}"

    def add_finite(self, point):
        vid = self.nid("v")
        self.finite.append(vid)
        self.h[vid] = tuple(F(x) for x in point)
        return vid

    def add_end(self, v, direction, front=False):
        w = self.nid("w")
        self.infinite.insert(0, w) if front else self.infinite.append(w)
        self.h[w] = tuple(F(x) for x in direction)
        self.edges.append((self.nid("e"), v, w, None))
        return w

    def add_edge(self, u, w, length):
        self.edges.append((self.nid("e"), u, w, F(length)))

    def true_ends(self):
        return [e for e in self.edges if e[3] is None and any(self.h[e[2]])]

    def subdivide_with_mark(self, e, s):
        """Put a marked trivalent vertex on edge e at fraction s of a bounded
        edge, or at parameter s along an end; returns the new vertex."""
        eid, u, w, ln = e
        if ln is None:
            x = self.add_finite(along(self.h[u], s, self.h[w]))
            self.edges.remove(e)
            self.edges.append((eid, x, w, None))
            self.add_edge(u, x, s)
        else:
            x = self.add_finite(tuple(a + s * (b - a)
                                      for a, b in zip(self.h[u], self.h[w])))
            self.edges.remove(e)
            self.add_edge(u, x, s * ln)
            self.add_edge(x, w, (1 - s) * ln)
        self.add_end(x, (0,) * self.n, front=True)
        return x

    def to_json(self) -> dict:
        """The curve as a tropicorr/1 file body (written here, not by the
        library, so the cli workload also exercises the parser)."""
        data = {
            "schema": "tropicorr/1",
            "lattice_rank": self.n,
            "char": 0,
            "finite_vertices": [{"id": v, "h": [str(x) for x in self.h[v]]}
                                for v in self.finite],
            "infinite_vertices": [{"id": v, "h": [int(x) for x in self.h[v]]}
                                  for v in self.infinite],
            "edges": [{"id": eid, "ends": [u, w],
                       "length": "inf" if ln is None else str(ln)}
                      for eid, u, w, ln in self.edges],
        }
        if self.constraints is not None:
            data["constraints"] = [
                {"L_basis": [list(r) for r in basis],
                 "point": [str(x) for x in point]}
                for basis, point in self.constraints]
        return data

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)


def rand_q(rng):
    return F(rng.randint(1, 4), rng.choice((1, 2)))


def rand_dir(rng, n, spread=2, max_mult=2):
    while True:
        v = tuple(rng.randint(-spread, spread) for _ in range(n))
        if any(v) and mult(v) <= max_mult:
            return v


def star(rng, c, arms):
    root = c.add_finite([rand_q(rng) for _ in range(c.n)])
    while True:
        dirs = [rand_dir(rng, c.n) for _ in range(arms - 1)]
        last = neg(vsum(*dirs))
        if any(last) and mult(last) <= MAX_MULT:
            break
    for d in dirs + [last]:
        c.add_end(root, d)


def sprout(rng, c, extra=1):
    """Replace a random end by a bounded edge to a new vertex carrying
    ``extra + 1`` ends whose directions sum to the old one."""
    ends = c.true_ends()
    if not ends:
        return
    e = rng.choice(ends)
    _, v, w, _ = e
    d = tuple(int(x) for x in c.h[w])
    for _ in range(20):
        news = [rand_dir(rng, c.n) for _ in range(extra)]
        last = vsum(d, neg(vsum(*news)))
        if any(last) and mult(last) <= MAX_MULT:
            break
    else:
        raise Retry
    t = rand_q(rng)
    x = c.add_finite(along(c.h[v], t, d))
    c.edges.remove(e)
    c.infinite.remove(w)
    del c.h[w]
    c.add_edge(v, x, t)
    for g in news + [last]:
        c.add_end(x, g)


def mark(rng, c, count, distinct=False):
    """Marked points on random ends, on ``count`` different ends when
    ``distinct``; returns how many were placed."""
    if distinct:
        ends = c.true_ends()
        if len(ends) < count:
            return 0
        for e in rng.sample(ends, count):
            c.subdivide_with_mark(e, rand_q(rng))
        return count
    done = 0
    for _ in range(count):
        ends = c.true_ends()
        if not ends:
            break
        c.subdivide_with_mark(rng.choice(ends), rand_q(rng))
        done += 1
    return done


def polygon(rng, c, sides):
    """A genus-one cycle through lattice points, one end per corner."""
    for _ in range(50):
        vecs = [rand_dir(rng, c.n) for _ in range(sides - 1)]
        closing = neg(vsum(*vecs))
        if any(closing) and mult(closing) <= 2:
            vecs.append(closing)
            break
    else:
        raise Retry
    pts = [tuple(rand_q(rng) for _ in range(c.n))]
    for v in vecs[:-1]:
        pts.append(vsum(pts[-1], v))
    ids = [c.add_finite(pt) for pt in pts]
    dens = []
    for i, v in enumerate(vecs):
        den = rng.choice((1, 2))
        if mult(v) * den > MAX_MULT:
            den = 1
        dens.append(den)
        c.add_edge(ids[i], ids[(i + 1) % sides], F(1, den))
    for i in range(sides):
        ray = neg(vsum(tuple(-dens[i - 1] * x for x in vecs[i - 1]),
                       tuple(dens[i] * x for x in vecs[i])))
        if any(ray):
            c.add_end(ids[i], ray)


def theta(rng, c, strands):
    """Two vertices joined by parallel edges: superabundant on purpose.  The
    total multiplicity goes up to MAX_MULT + 1 = 5, so that char 5 divides
    some l(e) and the DM check at 5 is not vacuous."""
    while True:
        d = rand_dir(rng, c.n)
        if mult(d) == 1:
            break
    a = c.add_finite([rand_q(rng) for _ in range(c.n)])
    z = c.add_finite(vsum(c.h[a], d))
    dens = [rng.choice((1, 2)) for _ in range(strands)]
    while sum(dens) > MAX_MULT + 1:
        dens[dens.index(2)] = 1
    for den in dens:
        c.add_edge(a, z, F(1, den))
    out = tuple(sum(dens) * x for x in d)
    c.add_end(a, neg(out))
    c.add_end(z, out)


def decorate(rng, c, loop, tree):
    """Zero-slope decorations: a loop at a vertex, a hanging path."""
    if loop:
        v = rng.choice(c.finite)
        c.edges.append((c.nid("e"), v, v, rand_q(rng)))
    if tree:
        cur = rng.choice(c.finite)
        for _ in range(rng.randint(1, 2)):
            x = c.add_finite(c.h[cur])
            c.add_edge(cur, x, rand_q(rng))
            cur = x


def point_constraints(c, k):
    """Point constraints through the finite neighbours of the first k
    infinite vertices (the marked ends), satisfied by construction."""
    nbr = {w: u for _, u, w, ln in c.edges if ln is None}
    c.constraints = [((), c.h[nbr[w]]) for w in c.infinite[:k]]


def mixed_constraints(rng, c, k):
    """Point constraints, or in rank 3 sometimes a line through the marked
    vertex shifted along its own direction."""
    nbr = {w: u for _, u, w, ln in c.edges if ln is None}
    items = []
    for w in c.infinite[:k]:
        pt = c.h[nbr[w]]
        if c.n == 2 or rng.random() < 0.5:
            items.append(((), pt))
        else:
            vec = rand_dir(rng, c.n, max_mult=1)
            items.append(((vec,), along(pt, rng.randint(-2, 2), vec)))
    c.constraints = items


# ---------------------------------------------------------------------------
# the curve families


def rigid_plane_tree(rng, ends):
    """A trivalent plane tree with ``ends`` ends and ends - 1 marked points
    in Mikhalkin-general position: every component of the curve minus the
    points holds exactly one end.

    The tree grows from a tripod by sprouting, and the cut set grows with
    it.  When an uncut end sprouts, one of its two new ends is cut.  When a
    cut end sprouts, either its cut moves onto the new bounded segment and
    one new end is cut, or both new ends are cut.  Both moves keep one end
    per component.  Every vertex has pairwise non-parallel edges, so each
    vertex multiplicity is nonzero.
    """
    spread = 3
    c = Curve(2)
    v0 = c.add_finite((rand_q(rng), rand_q(rng)))
    while True:
        a, b = rand_dir(rng, 2, spread, 3), rand_dir(rng, 2, spread, 3)
        if det2(a, b) and max(map(abs, vsum(a, b))) <= spread + 1:
            break
    for d in (a, b, neg(vsum(a, b))):
        c.add_end(v0, d)
    cut = {e[0]: False for e in c.edges}
    for e in rng.sample(c.edges, 2):
        cut[e[0]] = True
    while len(c.true_ends()) < ends:
        e = rng.choice(c.true_ends())
        eid, v, w, _ = e
        d = tuple(int(x) for x in c.h[w])
        for _ in range(50):
            g = rand_dir(rng, 2, spread, 3)
            rest = vsum(d, neg(g))
            if (det2(g, rest) and any(rest) and mult(rest) <= 3
                    and max(map(abs, rest)) <= spread + 2):
                break
        else:
            raise Retry
        t = rand_q(rng)
        x = c.add_finite(along(c.h[v], t, d))
        was_cut = cut.pop(eid)
        c.edges.remove(e)
        c.infinite.remove(w)
        del c.h[w]
        c.add_edge(v, x, t)
        seg = c.edges[-1][0]
        c.add_end(x, g)
        c.add_end(x, rest)
        new_ids = [ee[0] for ee in c.edges[-2:]]
        cut[seg] = False
        for i in new_ids:
            cut[i] = False
        if was_cut and rng.random() < 0.5:
            cut[new_ids[0]] = cut[new_ids[1]] = True
        else:
            cut[seg] = was_cut
            cut[rng.choice(new_ids)] = True
    for eid in sorted((i for i, on in cut.items() if on),
                      key=lambda i: int(i[1:])):
        e = next(ee for ee in c.edges if ee[0] == eid)
        c.subdivide_with_mark(e, rand_q(rng) if e[3] is None
                              else F(rng.randint(1, 3), 4))
    point_constraints(c, ends - 1)
    return c


def rigid_space_tree(rng, marks):
    """A trivalent tree in rank 3 with 2 * marks ends and ``marks`` points,
    each on a different end.  Cutting there leaves every component with as
    many ends as points on its boundary, which is what rank 3 needs (each
    point fixes a line, codimension 2); the expected dimension then equals
    the codimension of the constraints."""
    c = Curve(3)
    star(rng, c, 3)
    while len(c.true_ends()) < 2 * marks:
        before = len(c.true_ends())
        sprout(rng, c)
        if len(c.true_ends()) == before:
            raise Retry
    if len(c.true_ends()) != 2 * marks:
        raise Retry
    mark(rng, c, marks, distinct=True)
    point_constraints(c, marks)
    return c


def rigid_elliptic(rng, n=2):
    """A genus-one polygon with k + 1 ends and k points on different ends
    (k = 2 or 3): expected dimension 2k + 1, the codimension of the points
    plus one for the fixed j-invariant."""
    c = Curve(n)
    polygon(rng, c, rng.randint(3, 4))
    while len(c.true_ends()) < 3:
        sprout(rng, c)
    k = len(c.true_ends()) - 1
    if k > 3:
        raise Retry
    mark(rng, c, k, distinct=True)
    point_constraints(c, k)
    return c


def decorated_constrained(rng, n):
    """Stars with sprouts or polygons, one or two marked points with point
    or line constraints, and zero-slope decorations.  Most such curves fail
    a counting hypothesis; that refusal is itself the checked output."""
    c = Curve(n)
    if rng.random() < 0.5:
        star(rng, c, rng.randint(3, 5))
        for _ in range(rng.randint(0, 2)):
            sprout(rng, c, extra=rng.randint(1, 2))
    else:
        polygon(rng, c, rng.randint(3, 5))
    k = mark(rng, c, rng.randint(1, 2))
    if not k:
        raise Retry
    decorate(rng, c, rng.random() < 0.25, rng.random() < 0.25)
    mixed_constraints(rng, c, k)
    return c


def unconstrained(rng, n, kind, size, sprouts, loop, tree):
    """Curves for the structure workload: a star with ``size`` arms, a
    polygon with ``size`` sides, or a theta graph with ``size`` strands,
    then ``sprouts`` sprouted ends and the chosen zero-slope decorations."""
    c = Curve(n)
    if kind == "star":
        star(rng, c, size)
    elif kind == "polygon":
        polygon(rng, c, size)
    else:
        theta(rng, c, size)
    for _ in range(sprouts):
        sprout(rng, c)
    decorate(rng, c, loop, tree)
    return c


def draw(rng, make, *args, max_finite=None, min_finite=None):
    """Call a family until a draw fits the vertex bounds."""
    while True:
        try:
            c = make(rng, *args)
        except Retry:
            continue
        nf = len(c.finite)
        if (max_finite is None or nf <= max_finite) and \
                (min_finite is None or nf >= min_finite):
            return c
