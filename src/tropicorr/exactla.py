"""Exact integer linear algebra.

Matrices are immutable tuples of tuples of Python ints (row-major), so all
arithmetic is arbitrary precision and values can be shared freely; the one
exception is that ``invariant_factors`` also takes sparse rows, dicts
{col: value} of the nonzeros.  The module provides invariant factors (the
Smith normal form without its transforms), the Hermite normal form,
cokernels, sublattices in canonical (HNF) form and the quotient
presentation of a saturated one, read off one HNF, and base change of
finitely generated abelian groups along the coefficient groups used
downstream (Z, Q, a field of characteristic p, and the units k* of an
algebraically closed field).  It holds only what the engine calls; the
general lattice routes the tests compare against live with the tests.

``invariant_factors`` is one elimination over sparse rows, units first
and Euclid steps on whatever is left, with no dense phase: it suits the
sparse, mostly +-1 matrices of the obstruction complexes.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from typing import NamedTuple

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic matrix helpers


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def integral_length(v) -> int:
    """gcd of the entries; 0 for the zero vector."""
    return gcd(*v)


def primitive_vector(v) -> Vec | None:
    """v divided by its integral length, or None for the zero vector."""
    g = gcd(*v)
    if g == 0:
        return None
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# Smith normal form


def invariant_factors(a) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of A: the nonzero diagonal of
    its Smith normal form, computed without the transforms.  A row is a
    dict {col: value} of its nonzeros or a dense sequence; either is
    copied on entry.

    One sparse elimination (Dumas, Saunders and Villard, J. Symbolic
    Comput. 2001).  The pivot is an entry of least absolute value, ties
    broken by the least Markowitz cost (r - 1)(c - 1), r and c the
    nonzeros in its row and column; zero-cost unit pivots (a +-1 alone in
    its row or column) come off a worklist, and the search for the others
    stops at the first unit of cost 16 or less.  Row operations reduce
    column j of the pivot p at (i, j) modulo p.  Once column j holds
    only p, column operations reduce row i modulo p and touch no other
    row.  A remainder is nonzero only when p does not divide the entry,
    and is then smaller than p in absolute value, so it becomes the next
    pivot (Euclid); a pivot that clears both its row and its column
    splits A as diag(p, A'), and row i and column j are dropped.  Every
    step multiplies by unimodular matrices, which leave the invariant
    factors alone, so the pivot order cannot change the result.  The
    pivots collected form a diagonal matrix, brought into a divisibility
    chain by replacing each pair (a, b) with (gcd(a, b), lcm(a, b))."""
    rows = {}                      # row -> {col: nonzero entry}
    cols = {}                      # col -> rows with a nonzero there
    for i, row in enumerate(a):
        r = (dict(row) if isinstance(row, dict)
             else {j: row[j] for j in compress(range(len(row)), row)})
        if r:
            rows[i] = r
            for j in r:
                cols.setdefault(j, set()).add(i)
    # (row, None) or (None, col) that may hold a single nonzero
    todo = [(i, None) for i, r in rows.items() if len(r) == 1]
    todo += [(None, j) for j, c in cols.items() if len(c) == 1]
    units = 0
    core = []                      # the pivots that are not units

    def scan():
        least = cost = pos = None
        for i, r in rows.items():
            n = len(r) - 1
            for j, x in r.items():
                if x < 0:
                    x = -x
                if least is None or x <= least:
                    m = n * (len(cols[j]) - 1)
                    if least is None or x < least or m < cost:
                        least, cost, pos = x, m, (i, j)
                        if least == 1 and cost <= 16:
                            return pos     # a cheap unit: stop scanning
        return pos

    while rows:
        pos = None
        while todo and pos is None:
            i, j = todo.pop()
            if i is None and len(cols.get(j, ())) == 1:
                (i,) = cols[j]
            elif j is None and len(rows.get(i, ())) == 1:
                (j,) = rows[i]
            else:
                continue
            if rows[i][j] in (1, -1):
                pos = i, j
        i, j = pos or scan()
        while True:
            piv = rows[i]
            p = piv.pop(j)
            col = cols[j]
            col.discard(i)
            nxt = None
            for k in tuple(col):
                r = rows[k]
                x = r.pop(j)
                q = x // p
                if q:
                    x -= q * p
                    for c, y in piv.items():
                        y = r.get(c, 0) - q * y
                        if y:
                            r[c] = y
                            cols[c].add(k)
                        else:
                            del r[c]
                            cols[c].discard(k)
                            todo.append((None, c))
                if x:              # Euclid: a smaller pivot in column j
                    r[j] = x
                    if nxt is None or abs(x) < abs(rows[nxt][j]):
                        nxt = k
                    continue
                col.discard(k)
                if r:
                    todo.append((k, None))
                else:
                    del rows[k]
            if nxt is not None:
                piv[j] = p
                col.add(i)
                i = nxt
                continue
            # column j holds only p: reduce row i modulo p
            for c in tuple(piv):
                x = piv[c] % p
                if x:
                    piv[c] = x
                else:
                    del piv[c]
                    cols[c].discard(i)
                    todo.append((None, c))
            if piv:                # Euclid: a smaller pivot in row i
                piv[j] = p
                col.add(i)
                j = min(piv, key=lambda c: abs(piv[c]))
                continue
            del rows[i], cols[j]
            if p in (1, -1):
                units += 1
            else:
                core.append(abs(p))
            break
    for s, x in enumerate(core):   # diag(a, b) ~ diag(gcd, lcm)
        for t in range(s + 1, len(core)):
            g = gcd(x, core[t])
            core[t] = x // g * core[t]
            x = g
        core[s] = x
    return (1,) * units + tuple(core)


# ---------------------------------------------------------------------------
# Hermite normal form (row style) for canonical lattice bases


def hnf(rows, ncols: int) -> Mat:
    """Row-style Hermite normal form: pivots positive and strictly to the
    right as you go down, entries above a pivot reduced into [0, pivot).
    Zero rows are dropped, so equal lattices have equal HNFs."""
    work = [list(r) for r in rows if any(r)]
    if len(work) == 1:   # a single row only gets a positive pivot
        sign = 1 if next(x for x in work[0] if x) > 0 else -1
        return freeze([[sign * x for x in work[0]]])
    pr = 0
    for col in range(ncols):
        if pr >= len(work):
            break
        while True:
            pivots = [i for i in range(pr, len(work)) if work[i][col] != 0]
            if not pivots:
                break
            best = min(pivots, key=lambda i: (abs(work[i][col]), i))
            work[pr], work[best] = work[best], work[pr]
            if work[pr][col] < 0:
                work[pr] = [-x for x in work[pr]]
            p = work[pr][col]
            done = True
            for i in range(pr + 1, len(work)):
                if work[i][col]:
                    q = work[i][col] // p
                    work[i] = [x - q * y for x, y in zip(work[i], work[pr])]
                    if work[i][col]:
                        done = False
            if done:
                break
        if pr < len(work) and work[pr][col] != 0:
            p = work[pr][col]
            for i in range(pr):
                q = work[i][col] // p
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[pr])]
            pr += 1
        work = [r for r in work if any(r)]
    return freeze(r for r in work if any(r))


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of the immutable values that check or derive fields in their
    own ``__init__`` and store them with ``__dict__.update``: equal, hashed
    and shown by the fields named in ``_fields``.  Setting or deleting an
    attribute raises AttributeError; ``cached_property`` writes straight to
    ``__dict__``, so caches still work and are not fields."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FGAbelianGroup(Record):
    """Canonical form: free rank plus invariant factors >= 2 in a
    divisibility chain.  Unique per isomorphism class."""

    _fields = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        self.__dict__.update(rank=rank, torsion=torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def torsion_order(self) -> int:
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None if self.rank else self.torsion_order

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel_group(a: Mat) -> FGAbelianGroup:
    """Z^rows / column span of A, in canonical form."""
    divisors = invariant_factors(a)
    return FGAbelianGroup(len(a) - len(divisors),
                          tuple(d for d in divisors if d > 1))


# ---------------------------------------------------------------------------
# sublattices


class Sublattice(Record):
    """Sublattice of Z^ambient_rank given by a basis (rows).  The basis is
    canonicalized to HNF at construction, so equal lattices compare equal."""

    _fields = ("ambient_rank", "basis")

    def __init__(self, ambient_rank: int, basis: Mat):
        canon = hnf(basis, ambient_rank)
        if len(canon) != len([r for r in basis if any(r)]):
            raise ValueError("basis rows must be linearly independent")
        self.__dict__.update(ambient_rank=ambient_rank, basis=canon)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_rank - self.rank


def quotient_presentation(lat: Sublattice) -> Mat:
    """Matrix Q (corank x n) presenting Z^n / lat -> Z^corank for a
    saturated lat: x maps to Q @ x.

    The HNF of (B^T | I), B the r x n basis, is (W B^T | W) with W
    unimodular, and W B^T = (T; 0) with T triangular, as B^T has full
    column rank.  So Z^n / lat = Z^r / T Z^r + Z^(n-r), the second
    summand read by the last n - r rows of W, and lat is saturated iff
    the r pivots of T are all 1 (Cohen, A Course in Computational
    Algebraic Number Theory, section 2.4)."""
    n, r = lat.ambient_rank, lat.rank
    if r == 0:
        return identity(n)
    h = hnf([[b[i] for b in lat.basis] + [int(i == j) for j in range(n)]
             for i in range(n)], r + n)
    if any(h[i][i] != 1 for i in range(r)):
        raise ValueError("quotient presentation requires a saturated lattice")
    return tuple(row[r:] for row in h[r:])


# ---------------------------------------------------------------------------
# coefficient groups and base change


class CoeffGroup(Record):
    """Z, Q, a field k of characteristic p, or the units k* of an
    algebraically closed field of characteristic p."""

    _fields = ("kind", "p")     # kind: "Z" | "Q" | "field" | "kstar"

    def __init__(self, kind: str, p: int = 0):
        if kind not in ("Z", "Q", "field", "kstar"):
            raise ValueError(f"unknown coefficient group kind {kind!r}")
        if p and not _is_prime(p):
            raise ValueError("characteristic must be zero or prime")
        self.__dict__.update(kind=kind, p=p)

    @staticmethod
    def integers() -> "CoeffGroup":
        return CoeffGroup("Z")

    @staticmethod
    def rationals() -> "CoeffGroup":
        return CoeffGroup("Q")

    @staticmethod
    def field(p: int = 0) -> "CoeffGroup":
        return CoeffGroup("field", p)

    @staticmethod
    def units(p: int = 0) -> "CoeffGroup":
        return CoeffGroup("kstar", p)

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Q":
            return "Q"
        if self.kind == "field":
            return f"k(char {self.p})"
        return f"k*(char {self.p})"


# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIMALITY_BOUND (ValueError above)."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_to_part(d: int, p: int) -> int:
    """Largest divisor of d coprime to p (d itself when p = 0)."""
    if p <= 1:
        return d
    while d % p == 0:
        d //= p
    return d


class GroupSize(NamedTuple):
    """Size of a group built from copies of a coefficient group G plus a
    finite part.  free_rank counts copies of G (G = Z or k*), kdim is a
    k-vector-space dimension, finite_order is the order when the whole group
    is finite and None otherwise."""

    free_rank: int = 0
    kdim: int = 0
    finite_order: int | None = 1

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and self.kdim == 0 and self.finite_order == 1

    @property
    def is_finite(self) -> bool:
        return self.finite_order is not None

    def __str__(self):
        if self.kdim or self.free_rank:
            bits = []
            if self.free_rank:
                bits.append(f"G^{self.free_rank}")
            if self.kdim:
                bits.append(f"k^{self.kdim}")
            return " + ".join(bits)
        return str(self.finite_order)


def base_change(group: FGAbelianGroup, g: CoeffGroup, mode: str) -> GroupSize:
    """A (x) G for mode="tensor" and Tor^1(A, G) for mode="tor".

    Z/d (x) k is k iff p | d and 0 otherwise; Z/d (x) k* = 0 and
    Z/d (x) Q = 0; Tor(Z/d, k*) = mu_d whose order is the prime-to-p part
    of d; Tor(free, G) = 0.
    """
    if mode not in ("tensor", "tor"):
        raise ValueError("mode must be 'tensor' or 'tor'")
    p_torsion = sum(1 for d in group.torsion if g.p and d % g.p == 0)
    if mode == "tensor":
        if g.kind == "Z":
            order = None if group.rank else group.torsion_order
            return GroupSize(free_rank=group.rank, finite_order=order)
        if g.kind == "Q":
            return GroupSize(kdim=group.rank,
                             finite_order=1 if group.rank == 0 else None)
        if g.kind == "field":
            dim = group.rank + p_torsion
            return GroupSize(kdim=dim, finite_order=1 if dim == 0 else None)
        # k*: divisible, so all torsion dies
        return GroupSize(free_rank=group.rank,
                         finite_order=1 if group.rank == 0 else None)
    # Tor^1: the free part never contributes
    if g.kind in ("Z", "Q"):
        return GroupSize()
    if g.kind == "field":
        return GroupSize(kdim=p_torsion, finite_order=1 if p_torsion == 0 else None)
    order = 1
    for d in group.torsion:
        order *= prime_to_part(d, g.p)
    return GroupSize(finite_order=order)


def combine_sizes(a: GroupSize, b: GroupSize) -> GroupSize:
    """Size of an extension of b by a (both over the same G)."""
    free = a.free_rank + b.free_rank
    kdim = a.kdim + b.kdim
    if a.finite_order is None or b.finite_order is None:
        order = None
    else:
        order = a.finite_order * b.finite_order
    if free or kdim:
        order = None
    return GroupSize(free_rank=free, kdim=kdim, finite_order=order)


__all__ = [
    "Mat", "Vec", "freeze", "identity",
    "integral_length", "primitive_vector",
    "invariant_factors", "hnf", "FGAbelianGroup",
    "cokernel_group", "Sublattice", "quotient_presentation",
    "CoeffGroup", "prime_to_part", "GroupSize", "base_change",
    "combine_sizes",
]
