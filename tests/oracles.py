"""Reference routes the tests compare the engine against.

Each route here computes the same quantity as an engine path by a more
general or more direct method: the Smith normal form with its transforms,
by a textbook elimination that shares no code with the library's; integer
kernels from its transforms; lattice membership, intersection, saturation
and index by rational solving and integer kernels; ranks by Gauss-Jordan
elimination and determinants by Bareiss; constraint membership by
Fraction products with the presentation; the one-term quotient complex,
each edge's and constraint's rows an annihilator by the oracles' own kernel;
the full matrix of every complex, assembled straight from the curve
(Fraction directions, each constraint's annihilator by the oracles' own
kernel, the cycle by edge deletion), with E^1 as its kernel lattice and
the plain ranks by Fraction elimination; the six-term comparison ledger
from one plain and one stacky report; cones of any dimension, checked
with the oracles' own rank, and their coordinates in Fractions; a
vertex's ray through (h(v), 1), from h in Fractions; the fan
axiom over every pair of cones; the all-pairs stacky compatibility;
isomorphism of metric graphs; stabilization by rescanning every edge;
edge directions, balancing,
violation lists, edge geometry and reduction exponents in Fractions, each
bounded edge's direction taken from each end; Mikhalkin's multiplicity of
a plane curve, the count by vertex determinants; the cycle of a genus-one
curve by deleting each bounded edge in turn; zero-slope classes by
label propagation, and the zero-slope contraction built from them; the
complexes that the subdivision and contraction lemmas compare; and every
count hypothesis flag, each computed whether or not an earlier one fails.
The engine calls none of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from tropicorr import paramcurve as pc
from tropicorr.complexes import ComplexSpec, compute, sizes_over
from tropicorr.errors import CrossCheckFailed, NotBalanced, NotStabilizable
from tropicorr.exactla import (
    CoeffGroup,
    Mat,
    Sublattice,
    freeze,
    hnf,
    integral_length,
    primitive_vector,
)
from tropicorr.paramcurve import AffineConstraintSet, ParamTropicalCurve
from tropicorr.tropgraph import (
    Edge,
    TropicalCurve,
    _unbounded_ends,
    cycle_edges,
    genus,
    is_stable,
    satisfies_stability_bound,
    validate,
)

F = Fraction


# ---------------------------------------------------------------------------
# matrices


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


class Smith(NamedTuple):
    """U @ A @ V == D with U, V unimodular and D diagonal, its nonzero
    entries the divisors d1 | d2 | ... in order."""

    U: Mat
    D: Mat
    V: Mat
    divisors: tuple[int, ...]


def smith(a) -> Smith:
    """Smith normal form over Z of a dense matrix, with its transforms, by
    the textbook elimination.  The pivot is the least nonzero |entry| of
    the remaining block, searched column by column (ties to the left
    column, then the upper row).  Division with remainder clears its row
    and column; a nonzero remainder is a smaller pivot.  Once they are
    clear, a row of the block that the pivot does not divide is added to
    the pivot row, and the loop goes on."""
    d = [list(row) for row in a]
    m, n = len(d), len(d[0]) if d else 0
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    for t in range(min(m, n)):
        while True:
            block = [(abs(d[i][j]), j, i) for j in range(t, n)
                     for i in range(t, m) if d[i][j]]
            if not block:
                break
            _, j, i = min(block)
            d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
            for row in d + v:
                row[t], row[j] = row[j], row[t]
            p = d[t][t]
            for i in range(t + 1, m):
                q = d[i][t] // p
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                q = d[t][j] // p
                for row in d + v:
                    row[j] -= q * row[t]
            if (any(d[i][t] for i in range(t + 1, m))
                    or any(d[t][t + 1:])):
                continue
            bad = next((i for i in range(t + 1, m)
                        if any(x % p for x in d[i][t + 1:])), None)
            if bad is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    divisors = tuple(d[t][t] for t in range(min(m, n)) if d[t][t])
    return Smith(freeze(u), freeze(d), freeze(v), divisors)


def random_unimodular(rng, n: int) -> Mat:
    """A random n x n integer matrix of determinant +-1: the row transform
    of a random matrix's Smith form."""
    return smith([[rng.randint(-3, 3) for _ in range(n)]
                  for _ in range(n)]).U


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def fraction_maps_to_zero(presentation: Mat, v) -> bool:
    """Constraint membership the direct way: v lies in space_Q iff the
    presentation of N -> N/space sends it to zero, multiplied out in
    Fractions."""
    return not any(mat_vec(presentation, v))


def det(a: Mat) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a) -> int:
    return len(smith(a).divisors)


def kernel_basis(a: Mat) -> Mat:
    """Basis of the integer kernel {x : A x = 0}: the last columns of the
    unimodular V of A's Smith form, so the kernel is saturated."""
    a = freeze(a)
    if not a or not a[0]:
        return ()
    res = smith(a)
    return transpose(res.V)[len(res.divisors):]


def rank_mod_p(a: Mat, p: int) -> int:
    """Rank of A over the prime field F_p, by Gauss-Jordan elimination."""
    m = [[x % p for x in row] for row in a]
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(x * inv) % p for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[row])]
        row += 1
    return row


def solve_rational(a_rows, target):
    """Solve x @ A = target over Q for the row vector x, where A is given by
    its rows.  Returns a tuple of Fractions or None when inconsistent."""
    rows = [[Fraction(x) for x in r] for r in a_rows]
    t = [Fraction(x) for x in target]
    ncols = len(t)
    # Gaussian elimination on the transposed system A^T x^T = target^T
    aug = [[rows[j][i] for j in range(len(rows))] + [t[i]] for i in range(ncols)]
    nvars = len(rows)
    pivot_of_var = [-1] * nvars
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_of_var[c] = r
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    sol = []
    for c in range(nvars):
        sol.append(aug[pivot_of_var[c]][-1] if pivot_of_var[c] >= 0 else Fraction(0))
    return tuple(sol)


# ---------------------------------------------------------------------------
# sublattices


def contains(lat: Sublattice, v) -> bool:
    """Is the integer vector v in lat?"""
    sol = solve_rational(lat.basis, v)
    return sol is not None and all(x.denominator == 1 for x in sol)


def zero_lattice(n: int) -> Sublattice:
    return Sublattice(n, ())


def full_lattice(n: int) -> Sublattice:
    return Sublattice(n, identity(n))


def saturation(lat: Sublattice) -> Sublattice:
    """Smallest sublattice containing lat with torsion-free quotient:
    the Q-span intersected with Z^n, computed as a double kernel."""
    if lat.rank == 0:
        return lat
    ann = kernel_basis(lat.basis)
    if not ann:
        return full_lattice(lat.ambient_rank)
    return Sublattice(lat.ambient_rank, kernel_basis(ann))


def lattice_intersect(l1: Sublattice, l2: Sublattice) -> Sublattice:
    if l1.ambient_rank != l2.ambient_rank:
        raise ValueError("ambient ranks differ")
    if l1.rank == 0 or l2.rank == 0:
        return zero_lattice(l1.ambient_rank)
    cols = [list(row) for row in transpose(l1.basis)]
    for i, row in enumerate(transpose(l2.basis)):
        cols[i].extend(-x for x in row)
    combos = kernel_basis(freeze(cols))
    gens = []
    for combo in combos:
        coeffs = combo[: l1.rank]
        gens.append(tuple(
            sum(c * row[j] for c, row in zip(coeffs, l1.basis))
            for j in range(l1.ambient_rank)
        ))
    return Sublattice(l1.ambient_rank, hnf(gens, l1.ambient_rank))


def lattice_index(outer: Sublattice, inner: Sublattice) -> int:
    """Index [outer : inner] for inner a finite-index sublattice of outer."""
    if outer.ambient_rank != inner.ambient_rank:
        raise ValueError("ambient ranks differ")
    if outer.rank != inner.rank:
        raise ValueError("sublattice ranks differ, index is infinite")
    coords = []
    for row in inner.basis:
        sol = solve_rational(outer.basis, row)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("inner lattice not contained in outer")
        coords.append(tuple(int(x) for x in sol))
    d = det(freeze(coords))
    if d == 0:
        raise ValueError("degenerate basis")
    return abs(d)


def lattice_intersect_span(lat: Sublattice, space: Sublattice) -> Sublattice:
    """lat intersected with the Q-span of space."""
    if space.rank == 0 or lat.rank == 0:
        return zero_lattice(lat.ambient_rank)
    ann = kernel_basis(space.basis)
    if not ann:
        return lat
    # rows of lat.basis whose combos are killed by every annihilator
    m = mat_mul(freeze(ann), transpose(lat.basis))
    combos = kernel_basis(m)
    gens = []
    for combo in combos:
        gens.append(tuple(
            sum(c * row[j] for c, row in zip(combo, lat.basis))
            for j in range(lat.ambient_rank)
        ))
    return Sublattice(lat.ambient_rank, hnf(gens, lat.ambient_rank))


# ---------------------------------------------------------------------------
# parameterized curves: the Fraction route for directions and balancing


def _as_int_vec(a):
    """The vector as a tuple of ints, or None if some entry is not integral."""
    if any(F(x).denominator != 1 for x in a):
        return None
    return tuple(int(x) for x in a)


def fraction_direction(p: ParamTropicalCurve, e: Edge):
    """(h(target)-h(init))/|e| along the default orientation for bounded e,
    and h(v_infinity) for unbounded e, in Fractions."""
    if e.is_bounded:
        u, w = pc._orient(e)
        return tuple((y - x) / e.length for x, y in zip(p.hv(u), p.hv(w)))
    _, far = _unbounded_ends(e, set(p.curve.infinite_vertices))
    return p.hv(far)


def fraction_outgoing(p: ParamTropicalCurve, v: str):
    """(edge, outgoing vector) for each edge end at v: (h(w)-h(v))/|e| along
    a bounded edge to w, h(w) along an unbounded edge to an infinite w."""
    inf_set = set(p.curve.infinite_vertices)
    for e, w in p.curve.incidence.get(v, ()):
        if e.is_bounded:
            yield e, tuple((y - x) / e.length for x, y in zip(p.hv(v), p.hv(w)))
        elif w in inf_set:
            yield e, p.hv(w)


def fraction_balancing_defects(p: ParamTropicalCurve) -> dict:
    """Nonzero balancing sums per finite vertex."""
    out = {}
    for v in p.curve.finite_vertices:
        total = (F(0),) * p.lattice_rank
        for _, vec in fraction_outgoing(p, v):
            total = tuple(x + y for x, y in zip(total, vec))
        if any(total):
            out[v] = total
    return out


def fraction_violations(p: ParamTropicalCurve) -> list[str]:
    """param_violations by the Fraction route, message for message."""
    out = list(validate(p.curve))
    for v in p.curve.vertex_ids():
        if v not in p.h:
            out.append(f"missing h({v})")
        elif len(p.h[v]) != p.lattice_rank:
            out.append(f"h({v}) has wrong length")
    if out:
        return out
    for v in p.curve.infinite_vertices:
        if _as_int_vec(p.hv(v)) is None:
            out.append(f"h({v}) must be integral for an infinite vertex")
    for e in p.curve.bounded_edges():
        if _as_int_vec(fraction_direction(p, e)) is None:
            out.append(f"edge {e.id}: (h(v)-h(v'))/|e| is not integral")
    for v, defect in fraction_balancing_defects(p).items():
        out.append(f"balancing fails at {v}: defect {tuple(map(str, defect))}")
    return out


def fraction_edge_geometry(p: ParamTropicalCurve, eid: str) -> pc.EdgeGeometry:
    """edge_geometry from the Fraction direction of the one edge asked."""
    e = p.curve.edge(eid)
    d = _as_int_vec(fraction_direction(p, e))
    if d is None:
        raise NotBalanced(f"edge {eid} has non-integral direction")
    return pc.EdgeGeometry(primitive_vector(d), integral_length(d))


def fraction_reduction_exponents(p: ParamTropicalCurve, v: str):
    """reduction_exponents of a balanced curve from the outgoing vectors."""
    out = []
    for e, vec in sorted(fraction_outgoing(p, v), key=lambda end: end[0].id):
        ivec = _as_int_vec(vec)
        if ivec is None:
            raise CrossCheckFailed("integral_exponents", f"edge {e.id}")
        out.append((e.id, ivec))
    return out


def mikhalkin_multiplicity(p: ParamTropicalCurve) -> int:
    """Mikhalkin's multiplicity of a plane curve: the product of
    |det(w1 u1, w2 u2)| over the finite vertices with three moving edges,
    w u the weighted direction of an edge, after pruning finite leaves.
    Directions are taken in Fractions from h, as a vertex sees them: the
    difference of h over a bounded edge divided by its length, h of the
    far end of an unbounded one."""
    finite = set(p.curve.finite_vertices)
    edges = list(p.curve.edges)
    while True:
        ends = [v for e in edges for v in e.ends]
        leaves = {v for v in finite if ends.count(v) == 1}
        if not leaves:
            break
        finite -= leaves
        edges = [e for e in edges if not leaves & set(e.ends)]
    out = F(1)
    for v in finite:
        moving = []
        for e in edges:
            for near, far in (e.ends, e.ends[::-1]):
                if near != v:
                    continue
                if e.is_bounded:
                    vec = tuple((y - x) / e.length
                                for x, y in zip(p.hv(v), p.hv(far)))
                else:
                    vec = p.hv(far)
                if any(vec):
                    moving.append(vec)
        if len(moving) == 3:
            (a, b), (c, d) = moving[:2]
            out *= abs(a * d - b * c)
    assert out.denominator == 1, out
    return int(out)


# ---------------------------------------------------------------------------
# complexes: the one-term quotient form over a field


def quotient_form_dims(p: ParamTropicalCurve,
                       constraints: AffineConstraintSet | None,
                       group: CoeffGroup) -> tuple[int, int]:
    """Kernel/cokernel dimensions of the one-term quotient complex

        sum_v N_G -> sum_{E^b} (N/N_e)_G  (+ constraint blocks)

    quasi-isomorphic to the plain two-term complex over any coefficients,
    and to the stacky one as well when every l(e) is invertible.  The tests
    use it as an independent route to the same dimensions: each edge's
    rows are the annihilator of its Fraction direction and each
    constraint's come from ``constraint_blocks``, with no presentation."""
    if group.kind not in ("Q", "field"):
        raise ValueError("quotient form needs a field")
    p_char = 0 if group.kind == "Q" else group.p
    n = p.lattice_rank
    vertices = tuple(p.curve.finite_vertices)
    vindex = {v: i for i, v in enumerate(vertices)}
    rows = []
    for e in p.curve.bounded_edges():
        init, target = pc._orient(e)
        # N -> N/N_e by the annihilator of the direction (all of Z^n at 0)
        for a in kernel_basis((_as_int_vec(fraction_direction(p, e)),)):
            row = [0] * (n * len(vertices))
            if init != target:
                for k in range(n):
                    row[n * vindex[init] + k] -= a[k]
                    row[n * vindex[target] + k] += a[k]
            rows.append(row)
    for vfin, ann in constraint_blocks(p, constraints):
        for a in ann:
            row = [0] * (n * len(vertices))
            row[n * vindex[vfin]:n * vindex[vfin] + n] = a
            rows.append(row)
    mat = freeze(rows)
    r = rank_mod_p(mat, p_char) if p_char else rank(mat)
    return n * len(vertices) - r, len(mat) - r


def fraction_rank(rows) -> int:
    """Rank over Q of a matrix given by its rows, by Gauss-Jordan
    elimination in Fractions."""
    m = [[F(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def constraint_blocks(p: ParamTropicalCurve,
                      constraints: AffineConstraintSet | None):
    """(vertex, rows) per constraint, read straight off the curve:
    constraint i binds at the finite neighbour of the i-th infinite vertex,
    found in the edge list, with one row per vector of a basis of the
    integer annihilator of L_i, the kernel of L_i's basis (all of Z^n at a
    point)."""
    n, c = p.lattice_rank, p.curve
    blocks = []
    for vinf, con in zip(c.infinite_vertices,
                         constraints.items if constraints else ()):
        (vfin,) = (x for e in c.edges if vinf in e.ends for x in e.ends
                   if x != vinf)
        # a zero row when L_i = 0, so that the kernel is all of Z^n
        blocks.append((vfin, kernel_basis(con.space.basis or ((0,) * n,))))
    return blocks


class FullComplex(NamedTuple):
    """A complex's full integer matrix with its own layout: finite vertex
    vertices[i] owns the x columns n i, ..., n i + n - 1, and ycol maps each
    bounded edge of nonzero direction to its y column; dim is the domain's
    dimension, which a matrix with no rows does not show."""

    matrix: Mat
    vertices: tuple[str, ...]
    ycol: dict[str, int]
    dim: int


def full_complex(p: ParamTropicalCurve, spec: ComplexSpec) -> FullComplex:
    """The complex of spec assembled straight from the curve.  Bounded edge
    u -> w, in its default orientation, gives the n rows x_w - x_u + w_e y_e,
    with no y_e at zero direction: w_e is the Fraction direction d_e in the
    stacky variant and d_e / gcd(d_e) = s_e in the plain one.  Each
    constraint's rows sit on its vertex's x columns as ``constraint_blocks``
    gives them.  The elliptic j-row is 1 on the y columns of
    ``oracle_cycle_ids``.  Nothing is checked: the engine's ``compute``
    rejects the specs that have no complex."""
    n, c = p.lattice_rank, p.curve
    vertices = tuple(c.finite_vertices)
    vcol = {v: n * i for i, v in enumerate(vertices)}
    dirs = [(e, _as_int_vec(fraction_direction(p, e)))
            for e in c.bounded_edges()]
    ycol = {}
    for e, d in dirs:
        if any(d):
            ycol[e.id] = n * len(vertices) + len(ycol)
    dim = n * len(vertices) + len(ycol)
    rows = []
    for e, d in dirs:
        u, w = pc._orient(e)
        l = gcd(*d) if spec.variant == "b" else 1     # w_e = d_e / l
        for k in range(n):
            row = [0] * dim
            row[vcol[u] + k] -= 1
            row[vcol[w] + k] += 1       # so a loop has no x terms
            if e.id in ycol:
                row[ycol[e.id]] = d[k] // l
            rows.append(row)
    for vfin, ann in constraint_blocks(p, spec.constraints):
        for a in ann:
            row = [0] * dim
            row[vcol[vfin]:vcol[vfin] + n] = a
            rows.append(row)
    if spec.elliptic:
        cycle = [ycol[eid] for eid in oracle_cycle_ids(c)]
        rows.append([int(j in cycle) for j in range(dim)])
    return FullComplex(freeze(rows), vertices, ycol, dim)


def plain_complex_ranks(p: ParamTropicalCurve) -> tuple[int, int, int]:
    """(c, rank E^1, rank E^2) of the plain complex (b, no constraints):
    ``full_complex`` reduced over Q by Fraction elimination; c counts the
    bounded edges of zero direction."""
    full = full_complex(p, ComplexSpec("b"))
    r = fraction_rank(full.matrix)
    return (len(p.curve.bounded_edges()) - len(full.ycol), full.dim - r,
            len(full.matrix) - r)


def e1_lattice(full: FullComplex) -> Sublattice:
    """E^1 of a complex: the kernel lattice of its full matrix in Z^dim,
    all of it when the matrix has no rows."""
    if not full.matrix:
        return full_lattice(full.dim)
    return Sublattice(full.dim, kernel_basis(full.matrix))


def six_term_ledgers(p: ParamTropicalCurve,
                     constraints: AffineConstraintSet | None, fields):
    """The dimensions of the comparison sequence

    0 -> sum mu_l(e)(G) -> CE^1_G -> E^1_G -> sum G/l(e)G -> CE^2_G -> E^2_G -> 0

    over each field G of ``fields``, base-changed from one (beta, A) and one
    (b, A) report; the sequence is exact iff the alternating sum vanishes.
    mu is read off the oracle's (beta, A) matrix as its y_e columns that
    vanish in G: the column holds l(e) s_e, which is zero mod p iff p | l(e)
    as s_e is primitive.  quot counts the edges whose l(e) is zero in G."""
    ce = compute(p, ComplexSpec("beta", constraints))
    ee = compute(p, ComplexSpec("b", constraints))
    full = full_complex(p, ComplexSpec("beta", constraints))
    ycols = list(zip(*full.matrix))[len(full.vertices) * p.lattice_rank:]
    mults = [pc.edge_geometry(p, e.id).multiplicity
             for e in p.curve.bounded_edges()]
    ledgers = []
    for g in fields:
        (ce1, ce2), (e1, e2) = (sizes_over(rep.E1_rank, rep.E2, g)
                                for rep in (ce, ee))
        mu = sum(1 for col in ycols if g.p and all(x % g.p == 0 for x in col))
        quot = sum(1 for m in mults if m and g.p and m % g.p == 0)
        ledgers.append({"mu": mu, "CE1": ce1.kdim, "E1": e1.kdim,
                        "quot": quot, "CE2": ce2.kdim, "E2": e2.kdim})
    return ledgers


# ---------------------------------------------------------------------------
# cones: Fraction coordinates, spans compared through the integer kernel
# of [g1 g2 -h1 -h2]


def cone(*gens):
    """The cone over gens in the engine's spelling, the ascending tuple of
    their distinct primitive vectors: () for none, (r,) for a ray; raises
    ValueError on a zero or on two parallel generators."""
    prims = set()
    for g in gens:
        p = primitive_vector(g)
        if p is None:
            raise ValueError("zero generator")
        prims.add(p)
    if len(prims) == 2 and rank(tuple(prims)) < 2:
        raise ValueError("generators are parallel")
    return tuple(sorted(prims))


def ray_through(h):
    """The primitive integer vector on the ray through (h, 1), for h in
    Fractions: the single generator of the cone over (den h, den)."""
    den = lcm(*(F(x).denominator for x in h))
    (r,) = cone(tuple(int(F(x) * den) for x in h) + (den,))
    return r


def oracle_coords_in(conee, w):
    """(a, b) in Q with w = a g1 + b g2, or None outside the span."""
    if not conee:
        return (F(0), F(0)) if all(x == 0 for x in w) else None
    if len(conee) == 1:
        (g,) = conee
        k = next(i for i, x in enumerate(g) if x)
        a = F(w[k], g[k])
        return (a, F(0)) if all(a * x == y for x, y in zip(g, w)) else None
    g1, g2 = conee
    for i in range(len(g1)):
        for j in range(i + 1, len(g1)):
            d = g1[i] * g2[j] - g1[j] * g2[i]
            if d:
                a = F(w[i] * g2[j] - w[j] * g2[i], d)
                b = F(g1[i] * w[j] - g1[j] * w[i], d)
                if all(a * x + b * y == z for x, y, z in zip(g1, g2, w)):
                    return (a, b)
                return None
    raise ValueError("degenerate 2-cone")


def oracle_contains(conee, w):
    coords = oracle_coords_in(conee, w)
    return coords is not None and coords[0] >= 0 and coords[1] >= 0


def oracle_intersect(c1, c2):
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    if not c1:
        return ()
    if len(c1) == 1:
        if len(c2) == 1:
            return c1 if c1 == c2 else ()
        return c1 if oracle_contains(c2, c1[0]) else ()
    g1, g2 = c1
    h1, h2 = c2
    ker = kernel_basis(tuple(zip(g1, g2, tuple(-x for x in h1),
                                 tuple(-x for x in h2))))
    if len(ker) == 0:
        return ()
    if len(ker) >= 2:  # same plane: order the candidate rays by angle
        cands = sorted({g for g in c1 if oracle_contains(c2, g)}
                       | {g for g in c2 if oracle_contains(c1, g)})
        if not cands:
            return ()
        key = []
        for g in cands:
            a, b = oracle_coords_in(c1, g)
            key.append((b / (a + b), g))
        lo, hi = min(key)[1], max(key)[1]
        return (lo,) if lo == hi else cone(lo, hi)
    a1, a2, _, _ = ker[0]
    w = primitive_vector(tuple(a1 * x + a2 * y for x, y in zip(g1, g2)))
    for cand in (w, tuple(-x for x in w)):
        if oracle_contains(c1, cand) and oracle_contains(c2, cand):
            return (cand,)
    return ()


def is_face(f, c):
    if not f or f == c:
        return True
    if len(c) == 2 and len(f) == 1:
        return f[0] in c
    return False


def check_fan(cones):
    """Violations of the fan axiom, over every pair of cones: the faces of
    every cone belong to the collection, and every pairwise intersection
    is a common face."""
    out = []
    cones = list(dict.fromkeys(cones))
    present = set(cones)
    for c in cones:
        if len(c) == 2:
            for g in c:
                if (g,) not in present:
                    out.append(f"facet ray of cone{c} missing from the fan")
    for i, c1 in enumerate(cones):
        for c2 in cones[i + 1:]:
            inter = oracle_intersect(c1, c2)
            if not (is_face(inter, c1) and is_face(inter, c2)):
                out.append(f"cone{c1} and cone{c2} meet in cone{inter}, "
                           "not a common face")
    return out


# ---------------------------------------------------------------------------
# stacky compatibility over every pair of cones


def all_pairs_compatible(st):
    """Reference route: restricted to the span of every pairwise
    intersection, the sublattices of the two cones agree."""
    cones = list(st.fan.cones)
    lattices = st.assignment        # canonical bases, built on each read
    for i, c1 in enumerate(cones):
        for c2 in cones[i:]:
            inter = oracle_intersect(st.scaled_of[c1], st.scaled_of[c2])
            span = Sublattice(st.fan.ambient_rank, inter)
            if (lattice_intersect_span(lattices[c1], span)
                    != lattice_intersect_span(lattices[c2], span)):
                return False
    return True


# ---------------------------------------------------------------------------
# metric graphs: isomorphism (infinite vertices matched in order) and
# stabilization by rescanning


def _lenkey(ln):
    return (1, Fraction(0)) if ln is None else (0, ln)


def _refine_colors(c: TropicalCurve, colors):
    infinite = {v: i for i, v in enumerate(c.infinite_vertices)}
    while True:
        sig = {}
        for v in c.vertex_ids():
            around = []
            for e in c.edges:
                for a, b in (e.ends, e.ends[::-1]):
                    if a == v:
                        around.append((_lenkey(e.length), colors[b]))
            sig[v] = (colors[v], infinite.get(v, -1), tuple(sorted(around)))
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in sig}
        if new == colors:
            return colors
        colors = new


def tropical_isomorphic(c1: TropicalCurve, c2: TropicalCurve) -> bool:
    """Isomorphism of metric graphs matching edge lengths and the order of
    the infinite vertices."""
    if (len(c1.finite_vertices) != len(c2.finite_vertices)
            or len(c1.infinite_vertices) != len(c2.infinite_vertices)
            or len(c1.edges) != len(c2.edges)):
        return False
    col1 = _refine_colors(c1, {v: 0 for v in c1.vertex_ids()})
    col2 = _refine_colors(c2, {v: 0 for v in c2.vertex_ids()})
    if sorted(col1.values()) != sorted(col2.values()):
        return False

    def edge_multiset(c, u, v):
        return sorted((e.length for e in c.edges
                       if set(e.ends) == {u, v} or (u == v and e.ends == (u, u))),
                      key=_lenkey)

    mapping = dict(zip(c1.infinite_vertices, c2.infinite_vertices))
    for a, b in mapping.items():
        if col1[a] != col2[b]:
            return False
    free1 = [v for v in sorted(c1.finite_vertices)]
    used = set(mapping.values())

    def consistent(a, b):
        for x, y in mapping.items():
            if edge_multiset(c1, a, x) != edge_multiset(c2, b, y):
                return False
        return edge_multiset(c1, a, a) == edge_multiset(c2, b, b)

    def backtrack(k):
        if k == len(free1):
            return True
        a = free1[k]
        for b in sorted(c2.finite_vertices):
            if b in used or col1[a] != col2[b] or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if backtrack(k + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    return backtrack(0)


def stabilize_by_rescanning(c):
    """The prune and smooth loops as they ran on every input, stable or not,
    rescanning every edge for each vertex; kept as the oracle."""
    if validate(c) or not satisfies_stability_bound(c):
        raise NotStabilizable("oracle: invalid or unstabilizable")
    finite = list(c.finite_vertices)
    edges = {e.id: e for e in c.edges}

    def val(v):
        return sum((e.ends[0] == v) + (e.ends[1] == v) for e in edges.values())

    changed = True
    while changed:
        changed = False
        for v in sorted(finite):
            if val(v) == 1:
                del edges[next(i for i, e in edges.items() if v in e.ends)]
                finite.remove(v)
                changed = True
    changed = True
    while changed:
        changed = False
        for v in sorted(finite):
            inc = [e for e in edges.values() if v in e.ends]
            if sum((e.ends[0] == v) + (e.ends[1] == v) for e in inc) != 2:
                continue
            if len(inc) == 1:
                raise NotStabilizable("oracle: degenerate loop")
            e1, e2 = inc
            u = e1.ends[0] if e1.ends[1] == v else e1.ends[1]
            w = e2.ends[0] if e2.ends[1] == v else e2.ends[1]
            if e1.is_bounded and e2.is_bounded:
                ln = e1.length + e2.length
            elif e1.is_bounded != e2.is_bounded:
                ln = None
            else:
                raise NotStabilizable("oracle: two unbounded edges")
            if ln is None and u in set(c.infinite_vertices):
                u, w = w, u
            nid = f"{e1.id}+{e2.id}"
            del edges[e1.id]
            del edges[e2.id]
            while nid in edges:
                nid += "'"
            edges[nid] = Edge(nid, (u, w), ln)
            finite.remove(v)
            changed = True
    out = TropicalCurve(tuple(finite), c.infinite_vertices, tuple(edges.values()))
    if not is_stable(out):
        raise NotStabilizable("oracle: not stable")
    return out


# ---------------------------------------------------------------------------
# genus one and zero-slope contraction: no spanning tree


def _connected(vertices, pairs) -> bool:
    """Are the vertices one component through the edges given as end pairs?"""
    seen, stack = set(), list(vertices[:1])
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(b for x, y in pairs for a, b in ((x, y), (y, x))
                         if a == v)
    return seen >= set(vertices)


def oracle_cycle_ids(c: TropicalCurve) -> list[str]:
    """The cycle of a genus-one curve, in edge order: a bounded edge is on
    it iff the finite vertices stay connected without it."""
    bounded = c.bounded_edges()
    return [e.id for e in bounded
            if _connected(c.finite_vertices,
                          [f.ends for f in bounded if f.id != e.id])]


def oracle_zero_slope_classes(p: ParamTropicalCurve) -> dict[str, str]:
    """Each finite vertex's class under the bounded edges with h equal at
    both ends, named by its least id: every vertex starts with its own id
    as label, and both ends of such an edge take the lesser label until no
    label changes."""
    label = {v: v for v in p.curve.finite_vertices}
    flat = [e.ends for e in p.curve.bounded_edges()
            if p.hv(e.ends[0]) == p.hv(e.ends[1])]
    changed = True
    while changed:
        changed = False
        for u, w in flat:
            least = min(label[u], label[w])
            if label[u] != least or label[w] != least:
                label[u] = label[w] = least
                changed = True
    return label


def oracle_contraction(p: ParamTropicalCurve) -> ParamTropicalCurve:
    """p with its bounded zero-slope edges contracted: each vertex goes to
    its ``oracle_zero_slope_classes`` label, and h descends."""
    label = oracle_zero_slope_classes(p)
    edges = tuple(Edge(e.id, tuple(label.get(v, v) for v in e.ends), e.length)
                  for e in p.curve.edges
                  if not e.is_bounded or p.hv(e.ends[0]) != p.hv(e.ends[1]))
    c = TropicalCurve(tuple(dict.fromkeys(label.values())),
                      p.curve.infinite_vertices, edges)
    return ParamTropicalCurve(c, p.lattice_rank,
                              {v: p.hv(v) for v in c.vertex_ids()})


def lemma_complexes(p: ParamTropicalCurve,
                    constraints: AffineConstraintSet | None = None):
    """(E^1 rank, E^2) of the plain and the stacky complex, and of the
    j-augmented one when p has genus one and no zero-slope cycle edge: the
    complexes whose change the subdivision and contraction lemmas state."""
    specs = [ComplexSpec("b", constraints), ComplexSpec("beta", constraints)]
    if genus(p.curve) == 1 and all(pc.edge_geometry(p, e.id).slope
                                   for e in cycle_edges(p.curve)):
        specs.append(ComplexSpec("beta", constraints, elliptic=True))
    return [(rep.E1_rank, rep.E2) for rep in (compute(p, s) for s in specs)]


# ---------------------------------------------------------------------------
# count hypotheses: every flag, whatever the others say


def eager_hypotheses(p_st: ParamTropicalCurve,
                     constraints: AffineConstraintSet, char_p: int,
                     elliptic: bool):
    """Every hypothesis flag of a count on the stabilization p_st, each
    computed even when an earlier one fails: the (beta, A) and, when
    elliptic, (beta, A, j) complexes are built whenever the curve satisfies
    the constraint, and codim_match compares c + rank E^1 of the oracles'
    own plain complex (``plain_complex_ranks``).  A count raises the first
    False flag in CHECK_ORDER, and returns this record when every flag
    holds."""
    from tropicorr.counting import CountHypotheses

    con = pc.check_constraint(p_st, constraints)
    c, e1, _ = plain_complex_ranks(p_st)
    mults = [pc.edge_geometry(p_st, e.id).multiplicity
             for e in p_st.curve.edges]
    regular = elliptic_regular = None
    if con.satisfies:
        specs = [ComplexSpec("beta", constraints)]
        if elliptic:
            specs.append(ComplexSpec("beta", constraints, elliptic=True))
        reports = [compute(p_st, spec) for spec in specs]
        # E^2 (x) k vanishes iff E^2 is finite of order prime to char k
        verdicts = [con.simple and not rep.E2.rank
                    and not (char_p and rep.E2.torsion_order % char_p == 0)
                    for rep in reports]
        regular = verdicts[0]
        if elliptic:
            elliptic_regular = verdicts[1]
    return CountHypotheses(
        trivalent=all(len(p_st.curve.incidence[v]) == 3
                      for v in p_st.curve.finite_vertices),
        satisfies_A=con.satisfies,
        codim_match=c + e1 == constraints.codim + elliptic,
        no_zero_slope_bounded=all(
            pc.edge_geometry(p_st, e.id).slope is not None
            for e in p_st.curve.bounded_edges()),
        char_ok=char_p == 0 or all(m % char_p for m in mults if m),
        regular=bool(regular),
        elliptic_regular=elliptic_regular,
    )
