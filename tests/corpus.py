"""Seeded random corpus of balanced parameterized curves.

Curves are grown by operations that preserve balancing exactly: stars with
directions summing to zero, sprouting a ray into a new vertex with fresh
rays, closing random lattice polygons into genus-one cycles, parallel-edge
theta graphs (superabundant on purpose), plus zero-slope decorations (loops,
hanging trees, marked ends).  Constraints are placed so that they are
satisfied by construction.  All multiplicities are kept <= 4 and curves have
at most 6 finite vertices.
"""

import random
from fractions import Fraction

from tropicorr.complexes import rank
from tropicorr.exactla import integral_length
from tropicorr.paramcurve import (
    ParamTropicalCurve,
    constraint_set,
    marked_pairs,
    param_violations,
)
from tropicorr.tropgraph import Edge, TropicalCurve

F = Fraction
MAX_MULT = 4


class Retry(Exception):
    pass


class Builder:
    def __init__(self, n):
        self.n = n
        self.finite = []
        self.infinite = []
        self.edges = []
        self.h = {}
        self.serial = 0

    def nid(self, tag):
        self.serial += 1
        return f"{tag}{self.serial}"

    def add_finite(self, hvec):
        vid = self.nid("v")
        self.finite.append(vid)
        self.h[vid] = tuple(F(x) for x in hvec)
        return vid

    def add_end(self, vfin, direction, front=False):
        if any(direction) and integral_length(tuple(int(x) for x in direction)) > MAX_MULT:
            raise Retry
        vid = self.nid("w")
        if front:
            self.infinite.insert(0, vid)
        else:
            self.infinite.append(vid)
        self.h[vid] = tuple(F(x) for x in direction)
        self.edges.append(Edge(self.nid("e"), (vfin, vid), None))
        return vid

    def true_ends(self):
        return [e for e in self.edges
                if e.length is None and any(self.h[e.ends[1]])]

    def add_edge(self, u, w, length):
        eid = self.nid("e")
        self.edges.append(Edge(eid, (u, w), F(length)))
        return eid

    def build(self):
        c = TropicalCurve(tuple(self.finite), tuple(self.infinite),
                          tuple(self.edges))
        p = ParamTropicalCurve(c, self.n, dict(self.h))
        assert not param_violations(p), "generator produced an unbalanced curve"
        return p


def rand_q(rng, dens=(1, 2)):
    return F(rng.randint(1, 4), rng.choice(dens))


def rand_dir(rng, n, spread=2):
    while True:
        v = tuple(rng.randint(-spread, spread) for _ in range(n))
        if any(v) and integral_length(v) <= 2:
            return v


def rand_primitive(rng, n):
    while True:
        v = rand_dir(rng, n)
        if integral_length(v) == 1:
            return v


def neg(v):
    return tuple(-x for x in v)


def vsum(*vs):
    return tuple(map(sum, zip(*vs)))


def star(rng, b, arms):
    root = b.add_finite([rand_q(rng) for _ in range(b.n)])
    while True:
        dirs = [rand_dir(rng, b.n) for _ in range(arms - 1)]
        last = neg(vsum(*dirs))
        if any(last) and integral_length(last) <= MAX_MULT:
            break
    for d in dirs + [last]:
        b.add_end(root, d)
    return root


def sprout(rng, b, extra=1):
    """Replace a random nonzero-direction end with a new vertex carrying
    fresh rays; balancing is solved for the last ray."""
    ends = b.true_ends()
    if not ends:
        return
    e = rng.choice(ends)
    v, w = e.ends
    d = tuple(int(x) for x in b.h[w])
    t = rand_q(rng)
    news = None
    for _ in range(20):
        cand = [rand_dir(rng, b.n) for _ in range(extra)]
        last = vsum(d, neg(vsum(*cand)))
        if any(last) and integral_length(last) <= MAX_MULT:
            news = cand
            break
    if news is None:
        news, last = [], d
    x = b.add_finite(vsum(b.h[v], tuple(t * c for c in d)))
    b.edges.remove(e)
    b.infinite.remove(w)
    del b.h[w]
    b.add_edge(v, x, t)
    for g in news:
        b.add_end(x, g)
    b.add_end(x, last)


def mark(rng, b, count):
    """Attach contracted (marked) ends: each subdivides a nonzero end, so
    the marked vertex is trivalent.  Marked ends go first in the infinite
    order (constraints bind there)."""
    done = 0
    for _ in range(count):
        ends = b.true_ends()
        if not ends:
            break
        e = rng.choice(ends)
        v, w = e.ends
        d = b.h[w]
        t = rand_q(rng)
        x = b.add_finite(vsum(b.h[v], tuple(t * c for c in d)))
        b.edges.remove(e)
        b.edges.append(Edge(e.id, (x, w), None))
        b.add_edge(v, x, t)
        b.add_end(x, (0,) * b.n, front=True)
        done += 1
    return done


def polygon(rng, b, sides):
    """A genus-one cycle through random lattice points, rebalanced with one
    ray per corner."""
    for _ in range(50):
        vecs = [rand_dir(rng, b.n) for _ in range(sides - 1)]
        closing = neg(vsum(*vecs))
        if any(closing) and integral_length(closing) <= 2:
            vecs.append(closing)
            break
    else:
        raise Retry
    start = [rand_q(rng) for _ in range(b.n)]
    pts = [tuple(F(x) for x in start)]
    for v in vecs[:-1]:
        pts.append(vsum(pts[-1], tuple(F(x) for x in v)))
    ids = [b.add_finite(pt) for pt in pts]
    dens = []
    for i, v in enumerate(vecs):
        den = rng.choice((1, 2))
        if integral_length(v) * den > MAX_MULT:
            den = 1
        dens.append(den)
        b.add_edge(ids[i], ids[(i + 1) % sides], F(1, den))
    for i in range(sides):
        defect = vsum(tuple(-dens[i - 1] * x for x in vecs[i - 1]),
                      tuple(dens[i] * x for x in vecs[i]))
        ray = neg(defect)
        if any(ray):
            b.add_end(ids[i], ray)
    return ids


def theta(rng, b, strands):
    """Two vertices joined by parallel multiple edges: superabundant."""
    while True:
        d = rand_dir(rng, b.n)
        if integral_length(d) == 1:
            break
    a = b.add_finite([rand_q(rng) for _ in range(b.n)])
    z = b.add_finite(vsum(b.h[a], tuple(F(x) for x in d)))
    dens = [rng.choice((1, 2)) for _ in range(strands)]
    while sum(dens) > MAX_MULT:
        dens[dens.index(2)] = 1
    for den in dens:
        b.add_edge(a, z, F(1, den))
    out = tuple(sum(dens) * x for x in d)
    b.add_end(a, neg(out))
    b.add_end(z, out)


def zero_loop(rng, b):
    v = rng.choice(b.finite)
    b.edges.append(Edge(b.nid("e"), (v, v), rand_q(rng)))


def zero_tree(rng, b, size=2):
    cur = rng.choice(b.finite)
    for _ in range(size):
        x = b.add_finite(b.h[cur])
        b.add_edge(cur, x, rand_q(rng))
        cur = x


def _decorate(rng, b):
    if rng.random() < 0.3:
        zero_loop(rng, b)
    if rng.random() < 0.3:
        zero_tree(rng, b, rng.randint(1, 2))


def random_curve(rng, n=None, decorations=True):
    while True:
        nn = n or rng.choice((2, 3))
        b = Builder(nn)
        try:
            kind = rng.random()
            if kind < 0.45:
                star(rng, b, rng.randint(3, 5))
                for _ in range(rng.randint(0, 2)):
                    sprout(rng, b, extra=rng.randint(1, 2))
            elif kind < 0.8:
                polygon(rng, b, rng.randint(3, 5))
                if rng.random() < 0.4:
                    sprout(rng, b)
            else:
                theta(rng, b, rng.randint(2, 3))
            if decorations:
                _decorate(rng, b)
        except Retry:
            continue
        if len(b.finite) <= 6:
            return b.build()


def constraints_at_marks(rng, p, k):
    """Point or hyperplane-type constraints satisfied at the first k
    (marked) infinite vertices."""
    n = p.lattice_rank
    items = []
    for _, vfin in marked_pairs(p, k):
        if n == 2 or rng.random() < 0.5:
            items.append(((), p.hv(vfin)))
        else:
            vec = rand_primitive(rng, n)
            shift = rng.randint(-2, 2)
            point = vsum(p.hv(vfin), tuple(F(shift * c) for c in vec))
            items.append(([vec], point))
    return constraint_set(items, n)


def random_constrained_curve(rng, n=None, decorations=True):
    while True:
        nn = n or rng.choice((2, 3))
        b = Builder(nn)
        try:
            if rng.random() < 0.5:
                star(rng, b, rng.randint(3, 5))
                for _ in range(rng.randint(0, 2)):
                    sprout(rng, b, extra=rng.randint(1, 2))
            else:
                polygon(rng, b, rng.randint(3, 5))
            k = mark(rng, b, rng.randint(1, 2))
            if decorations:
                if rng.random() < 0.25:
                    zero_loop(rng, b)
                if rng.random() < 0.25:
                    zero_tree(rng, b)
        except Retry:
            continue
        if k and len(b.finite) <= 6:
            p = b.build()
            return p, constraints_at_marks(rng, p, k)


def rigid_genus0(rng, n=2):
    """Trivalent genus-zero curve with point constraints of full
    codimension: rank = codim A, the plain counting regime."""
    while True:
        k = rng.randint(2, 3)
        need = (n - 1) * (k - 1) + 2
        b = Builder(n)
        try:
            star(rng, b, 3)
            while len(b.true_ends()) < need:
                before = len(b.true_ends())
                sprout(rng, b, extra=1)
                if len(b.true_ends()) == before and len(b.finite) > 8:
                    raise Retry
            if mark(rng, b, k) < k:
                raise Retry
        except Retry:
            continue
        p = b.build()
        cons = constraint_set([((), p.hv(vfin))
                               for _, vfin in marked_pairs(p, k)], n)
        if rank(p) == cons.codim:
            return p, cons


def rigid_with_lines(rng):
    """Trivalent genus-zero curve in rank 3 with k = 2 or 3 marks, the
    first 3k - rank bound to lines and the rest to points: codim A = rank,
    with constraint spaces of rank 1."""
    while True:
        b = Builder(3)
        try:
            star(rng, b, 3)
            for _ in range(rng.randint(0, 2)):
                sprout(rng, b)
            k = rng.randint(2, 3)
            if mark(rng, b, k) < k:
                raise Retry
        except Retry:
            continue
        p = b.build()
        lines = 3 * k - rank(p)
        if 1 <= lines <= k:
            break
    return p, constraint_set(
        [([rand_primitive(rng, 3)] if i < lines else (), p.hv(vfin))
         for i, (_, vfin) in enumerate(marked_pairs(p, k))], 3)


def elliptic_rigid(rng, n=2):
    """Trivalent genus-one curve with a nonzero-slope cycle and point
    constraints with rank = codim + 1, the elliptic counting regime.  A
    regular genus-one curve with e ends deforms in e dimensions and k points
    cut (n - 1) k, so it grows (n - 1) k + 1 ends before marking; with
    fewer, only superabundant curves (planar cycles in rank 3) pass."""
    while True:
        k = rng.randint(2, 3)
        b = Builder(n)
        try:
            polygon(rng, b, rng.randint(3, 4))
            while len(b.true_ends()) < (n - 1) * k + 1:
                sprout(rng, b, extra=1)
            if mark(rng, b, k) < k:
                raise Retry
        except Retry:
            continue
        p = b.build()
        cons = constraint_set([((), p.hv(vfin))
                               for _, vfin in marked_pairs(p, k)], n)
        if rank(p) == cons.codim + 1:
            return p, cons


def plane_tree(seed, ends):
    """An unconstrained rank-2 tree grown from a tripod by sprouting until
    it has ``ends`` nonzero ends."""
    rng = random.Random(seed)
    while True:
        b = Builder(2)
        try:
            star(rng, b, 3)
            while len(b.true_ends()) < ends:
                sprout(rng, b)
        except Retry:
            continue
        return b.build()


def moved(p, cons, a, t, lam=1):
    """p and its constraints cons (or None) under the affine map
    x -> lam a x + t, with lam > 0 rational: a finite h(v) and a
    constraint's point go to lam a h(v) + t, an infinite h(w) and a
    constraint's basis row to a h(w), and each bounded length l(e) to
    lam l(e), so every edge keeps its slope up to a."""
    def image(v, shift=True):
        av = tuple(sum(r * x for r, x in zip(row, v)) for row in a)
        return tuple(lam * x + s for x, s in zip(av, t)) if shift else av

    g, inf = p.curve, set(p.curve.infinite_vertices)
    scaled = TropicalCurve(g.finite_vertices, g.infinite_vertices, tuple(
        e._replace(length=lam * e.length) if e.is_bounded else e
        for e in g.edges))
    q = ParamTropicalCurve(scaled, p.lattice_rank, {
        v: image(hv, v not in inf) for v, hv in p.h.items()})
    if cons is None:
        return q, None
    return q, constraint_set(
        [([image(r, False) for r in c.space.basis], image(c.point))
         for c in cons.items], p.lattice_rank)


def relabeled(p, rng):
    """p with every vertex and edge id renamed to a fresh name drawn from
    rng, each list in its order.  Constraints bind by infinite-vertex
    order, so they carry over unchanged."""
    g = p.curve
    fresh = iter(f"n{i}" for i in rng.sample(
        range(10 ** 6), len(g.vertex_ids()) + len(g.edges)))
    name = {v: next(fresh) for v in g.vertex_ids()}
    renamed = TropicalCurve(
        tuple(name[v] for v in g.finite_vertices),
        tuple(name[v] for v in g.infinite_vertices),
        tuple(e._replace(id=next(fresh), ends=tuple(name[v] for v in e.ends))
              for e in g.edges))
    return ParamTropicalCurve(renamed, p.lattice_rank,
                              {name[v]: hv for v, hv in p.h.items()})


def marked_trees(seed, count, size=13, marks=4):
    """Trees with at least ``size`` finite vertices and ``marks`` point or
    line constraints: large enough that the elimination in
    ``invariant_factors`` takes unit pivots of positive Markowitz cost
    (fill-in) and then Euclid steps on a core without units, with
    torsion."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        b = Builder(rng.choice((2, 3)))
        try:
            star(rng, b, 3)
            while len(b.finite) < size - marks:
                sprout(rng, b, extra=rng.randint(1, 2))
            if mark(rng, b, marks) < marks:
                continue
        except Retry:
            continue
        p = b.build()
        out.append((p, constraints_at_marks(rng, p, marks)))
    return out


def corpus(seed, size, constrained=True, decorations=True):
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        if constrained:
            out.append(random_constrained_curve(rng, decorations=decorations))
        else:
            out.append((random_curve(rng, decorations=decorations), None))
    return out


def elliptic_corpus(seed, size):
    """Genus-one constrained curves whose cycles have nonzero slopes."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        b = Builder(rng.choice((2, 3)))
        try:
            polygon(rng, b, rng.randint(3, 5))
            if rng.random() < 0.5:
                sprout(rng, b)
            k = mark(rng, b, rng.randint(1, 2))
        except Retry:
            continue
        if k and len(b.finite) <= 6:
            p = b.build()
            out.append((p, constraints_at_marks(rng, p, k)))
    return out
