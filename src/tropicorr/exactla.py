"""Exact integer linear algebra.

Matrices are immutable tuples of tuples of Python ints (row-major), so all
arithmetic is arbitrary precision and values can be shared freely; the one
exception is that ``invariant_factors`` also takes sparse rows, dicts
{col: value} of the nonzeros.  The module provides Smith and Hermite
normal forms, integer kernels and cokernels, sublattices in canonical (HNF)
form and the quotient presentation of a saturated one, and base change of
finitely generated abelian groups along the coefficient groups used
downstream (Z, Q, a field of characteristic p, and the units k* of an
algebraically closed field).  It holds only what the engine calls; the
general lattice routes the tests compare against live with the tests.

``snf`` (with the transforms U and V) reduces the whole matrix densely.
``invariant_factors`` first eliminates unit pivots over sparse rows and
hands only the remaining core to the same dense elimination, which suits
the sparse, mostly +-1 matrices of the obstruction complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic matrix helpers


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


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


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ..."""

    U: Mat
    D: Mat
    V: Mat
    divisors: tuple[int, ...]


def _smith(a, transforms: bool):
    """The elimination behind snf and invariant_factors, with snf's pivot
    rule.  Reduces a copy of A to Smith form D and returns (D, U, V) as
    lists of rows; U and V are recorded only when transforms is set (None
    otherwise)."""
    d = [[int(x) for x in row] for row in a]
    m = len(d)
    n = len(d[0]) if d else 0
    u = [list(row) for row in identity(m)] if transforms else None
    v = [list(row) for row in identity(n)] if transforms else None
    t = 0

    # Rows above t are zero outside the diagonal, and so are columns left of
    # t below the diagonal: column operations on D need only rows t..m-1.

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(t, m):
            row = d[k]
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst -= q * row src
        d[dst] = [x - q * y for x, y in zip(d[dst], d[src])]
        if u is not None:
            u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for k in range(t, m):
            row = d[k]
            if row[src]:
                row[dst] -= q * row[src]
        if v is not None:
            for row in v:
                row[dst] -= q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def pick_pivot():
        # a unit is the smallest possible value, so the first one met in
        # row-major order is the pivot and the scan can stop there
        best = None
        pos = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                val = abs(row[j])
                if val and (best is None or val < best):
                    if val == 1:
                        return i, j
                    best = val
                    pos = (i, j)
        return pos

    while t < min(m, n):
        pos = pick_pivot()
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(t, i, d[i][t] // p)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(t, j, d[t][j] // p)
                    if d[t][j]:
                        dirty = True
            if dirty:
                pos = pick_pivot()
                continue
            # cross is clear; enforce the divisibility chain (a unit pivot
            # divides everything)
            p = d[t][t]
            offender = None
            if p != 1:
                for i in range(t + 1, m):
                    if any(x % p for x in d[i][t + 1:]):
                        offender = i
                        break
            if offender is None:
                break
            add_row(offender, t, -1)
            pos = pick_pivot()
        t += 1
    return d, u, v


def _divisors(d) -> tuple[int, ...]:
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))
                 if d[i][i] != 0)


def snf(a: Mat) -> SNFResult:
    """Smith normal form over Z, with the transforms U and V.

    Pivoting is deterministic: the smallest nonzero absolute value in the
    remaining submatrix wins, ties broken in row-major order.
    """
    d, u, v = _smith(a, transforms=True)
    return SNFResult(freeze(u), freeze(d), freeze(v), _divisors(d))


def invariant_factors(a) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of A, i.e. ``snf(a).divisors``,
    computed without building U and V.  A row is a dict {col: value} of
    its nonzeros or a dense sequence; either is copied on entry.

    Unit pivots are eliminated first, over sparse rows (Dumas, Saunders and
    Villard, J. Symbolic Comput. 2001).  A pivot +-1 at (i, j) is taken with
    the least Markowitz cost (r - 1)(c - 1), r and c the nonzeros in its row
    and column; zero-cost pivots (a singleton row or column) come off a
    worklist, and the search for the others stops at the first row holding
    one of cost 1 or less.  Row operations clear column j; the pivot divides
    all of row i, and column operations clearing it touch no other row, so
    A becomes diag(1, A') and row i and column j are dropped.  Every step
    multiplies by unimodular matrices, which leave the invariant factors
    alone, so the pivot order cannot change the result.  The core left
    without unit entries goes to the dense elimination."""
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
    while True:
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
        if pos is None:
            best = None
            for i, r in rows.items():
                for j, x in r.items():
                    if x == 1 or x == -1:
                        cost = (len(r) - 1) * (len(cols[j]) - 1)
                        if best is None or cost < best:
                            best, pos = cost, (i, j)
                if pos is not None and best <= 1:
                    break          # cost 1 is cheap enough: stop scanning
            if pos is None:
                break
        i, j = pos
        piv = rows.pop(i)
        p = piv.pop(j)
        for c in piv:
            cols[c].discard(i)
            todo.append((None, c))
        for k in cols.pop(j) - {i}:
            r = rows[k]
            q = r.pop(j) * p           # p = 1/p for a unit
            for c, x in piv.items():
                y = r.get(c, 0) - q * x
                if y:
                    r[c] = y
                    cols[c].add(k)
                else:
                    del r[c]
                    cols[c].discard(k)
                    todo.append((None, c))
            if r:
                todo.append((k, None))
            else:
                del rows[k]
        units += 1
    if not rows:
        return (1,) * units
    order = sorted({j for r in rows.values() for j in r})
    d, _, _ = _smith([[r.get(j, 0) for j in order] for r in rows.values()],
                     transforms=False)
    return (1,) * units + _divisors(d)


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
# finitely generated abelian groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """Canonical form: free rank plus invariant factors >= 2 in a
    divisibility chain.  Unique per isomorphism class."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

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


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of Z^ambient_rank given by a basis (rows).  The basis is
    canonicalized to HNF at construction, so equal lattices compare equal."""

    ambient_rank: int
    basis: Mat

    def __post_init__(self):
        canon = hnf(self.basis, self.ambient_rank)
        if len(canon) != len([r for r in self.basis if any(r)]):
            raise ValueError("basis rows must be linearly independent")
        object.__setattr__(self, "basis", canon)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_rank - self.rank


def quotient_presentation(lat: Sublattice) -> Mat:
    """Matrix Q (corank x n) presenting Z^n / lat -> Z^corank for a
    saturated lat: x maps to Q @ x.  Deterministic via the SNF of the basis."""
    n = lat.ambient_rank
    if lat.rank == 0:
        return identity(n)
    res = snf(lat.basis)
    if any(d != 1 for d in res.divisors):
        raise ValueError("quotient presentation requires a saturated lattice")
    vt = transpose(res.V)
    return vt[lat.rank:]


# ---------------------------------------------------------------------------
# coefficient groups and base change


@dataclass(frozen=True)
class CoeffGroup:
    """Z, Q, a field k of characteristic p, or the units k* of an
    algebraically closed field of characteristic p."""

    kind: str  # "Z" | "Q" | "field" | "kstar"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "field", "kstar"):
            raise ValueError(f"unknown coefficient group kind {self.kind!r}")
        if self.p and not _is_prime(self.p):
            raise ValueError("characteristic must be zero or prime")

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


@dataclass(frozen=True)
class GroupSize:
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
    "Mat", "Vec", "freeze", "identity", "transpose",
    "integral_length", "primitive_vector", "SNFResult", "snf",
    "invariant_factors", "hnf", "FGAbelianGroup",
    "cokernel_group", "Sublattice", "quotient_presentation",
    "CoeffGroup", "prime_to_part", "GroupSize", "base_change",
    "combine_sizes",
]
