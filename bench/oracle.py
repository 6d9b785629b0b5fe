"""Output checks that share no code with the library.

``mikhalkin_multiplicity`` recomputes a plane count from the generator's
own data: stabilize (prune finite leaves, then ignore 2-valent vertices,
whose smoothing leaves every other vertex's outgoing directions unchanged),
and multiply |det(w1 u1, w2 u2)| over the vertices with exactly three
nonzero-slope edges (Mikhalkin, "Enumerative tropical algebraic geometry in
R^2", JAMS 2005).  ``digest`` hashes a canonical text of a result so that
two commits can be compared item by item.
"""

from __future__ import annotations

import hashlib
from collections import Counter


def _outgoing(c, edges):
    """Weighted outgoing direction of every edge end at a finite vertex."""
    out = {v: [] for v in c.finite}
    for _, u, w, ln in edges:
        if ln is None:
            out[u].append(c.h[w])
            continue
        d = tuple((b - a) / ln for a, b in zip(c.h[u], c.h[w]))
        out[u].append(d)
        out[w].append(tuple(-x for x in d))
    return out


def mikhalkin_multiplicity(c) -> int:
    edges = list(c.edges)
    finite = set(c.finite)
    while True:
        deg = Counter()
        for _, u, w, _ in edges:
            deg[u] += 1
            deg[w] += 1
        leaves = {v for v in finite if deg[v] == 1}
        if not leaves:
            break
        edges = [e for e in edges if e[1] not in leaves and e[2] not in leaves]
        finite -= leaves
    total = 1
    for v, dirs in _outgoing(c, edges).items():
        if v not in finite:
            continue
        moving = [d for d in dirs if any(d)]
        if len(dirs) == 3 and len(moving) == 3:
            (a0, a1), (b0, b1) = moving[0], moving[1]
            total *= abs(a0 * b1 - a1 * b0)
    return int(total)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]
