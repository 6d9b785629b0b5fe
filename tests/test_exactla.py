import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from corpus import (
    Builder,
    constraints_at_marks,
    corpus,
    elliptic_corpus,
    marked_trees,
)
from oracles import (
    contains,
    det,
    full_complex,
    full_lattice,
    kernel_basis,
    lattice_index,
    lattice_intersect,
    lattice_intersect_span,
    mat_mul,
    random_unimodular,
    rank,
    saturation,
    smith,
    solve_rational,
    zero_lattice,
)
from tropicorr import exactla
from tropicorr.complexes import ComplexSpec, compute, sizes_over
from tropicorr.curvefile import load
from tropicorr.errors import TropicorrError
from tropicorr.exactla import (
    CoeffGroup,
    FGAbelianGroup,
    GroupSize,
    Sublattice,
    cokernel_group,
    freeze,
    hnf,
    identity,
    integral_length,
    invariant_factors,
    primitive_vector,
    quotient_presentation,
)
from tropicorr.tropgraph import genus


def submatrix_det(a, rows, cols):
    return det(freeze([[a[i][j] for j in cols] for i in rows]))


def divisors_by_minor_gcds(a):
    """Independent SNF oracle: the k-th determinantal divisor is the gcd of
    all k x k minors, and the invariant factors are their quotients."""
    m, n = len(a), len(a[0]) if a else 0
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, submatrix_det(a, rows, cols))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def zeros(rows, cols):
    return ((0,) * cols,) * rows


def is_diagonal(a):
    return all(x == 0 for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def check_snf(a):
    """The oracle's Smith form of A, its certificate checked, and the
    engine's invariant factors pinned to its divisors."""
    res = smith(a)
    m, n = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(res.U, freeze(a)), res.V) == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    assert is_diagonal(res.D)
    diag = [res.D[i][i] for i in range(min(m, n))]
    nz = [d for d in diag if d]
    assert list(res.divisors) == nz
    assert all(d > 0 for d in nz)
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert invariant_factors(a) == res.divisors
    return res


def test_snf_pinned_examples():
    assert check_snf([[2]]).divisors == (2,)
    assert check_snf([[2, 4], [6, 8]]).divisors == (2, 4)
    assert check_snf([[0, 0, 0], [0, 0, 0], [0, 0, 0]]).divisors == ()


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20110)
    for _ in range(160):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = check_snf(a)
        assert list(res.divisors) == divisors_by_minor_gcds(a)


def test_snf_random_certificates_bulk():
    # >= 1000 random matrices up to 8x8 with entries in [-10, 10]: the
    # oracle's certificates, and the engine's invariant factors against them
    rng = random.Random(777)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        check_snf(a)


def test_invariant_factors_match_snf_divisors():
    rng = random.Random(1001)
    cases = [(), ((), (), ()), zeros(3, 3), zeros(2, 5), zeros(6, 1)]
    for _ in range(400):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        bound = rng.choice((1, 3, 2**40))
        density = rng.choice((0.2, 0.6, 1.0))
        cases.append(freeze(
            [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]))
    for a in cases:
        assert invariant_factors(a) == smith(a).divisors, a


SMALL_ENTRIES = (0, 1, -1, 2, -2, 3, -4, 6)


def permuted(rng, a):
    rows = list(a)
    rng.shuffle(rows)
    order = list(range(len(a[0]) if a else 0))
    rng.shuffle(order)
    return freeze([[row[j] for j in order] for row in rows])


def test_unit_elimination_matches_dense_route_in_any_pivot_order():
    rng = random.Random(6006)
    cases = [(), ((),) * 4, zeros(1, 1), zeros(5, 9),
             freeze([[2**40, 1, 0], [1, -2**40, 3], [0, 2**40, 1]])]
    for _ in range(600):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        entries = rng.choice((SMALL_ENTRIES,
                              (0, 2, -2, 3, -4, 6),      # no unit: all core
                              (1, -1),
                              (0, 1, -1, 2**40, -2**40)))
        density = rng.choice((0.15, 0.4, 1.0))
        cases.append(freeze(
            [[rng.choice(entries) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]))
    for a in cases:
        want = smith(a).divisors
        assert invariant_factors(a) == want, a
        for _ in range(3):
            assert invariant_factors(permuted(rng, a)) == want, a


def _shape(rng, n, finite, bounded, ends, marked):
    """A curve from vertex positions (the first roots the spanning tree),
    bounded edges (u, w, length) and ends (vertex, direction), with a
    contracted end and a satisfied constraint at each marked vertex."""
    pad = (0,) * (n - 2)
    b = Builder(n)
    ids = {v: b.add_finite(pos + pad) for v, pos in finite.items()}
    for u, w, length in bounded:
        b.add_edge(ids[u], ids[w], Fraction(length))
    for v, direction in ends:
        b.add_end(ids[v], direction + pad)
    for v in reversed(marked):
        b.add_end(ids[v], (0,) * n, front=True)
    p = b.build()
    return p, constraints_at_marks(rng, p, len(marked))


def tree_route_shapes(seed):
    """Shapes the spanning-tree reduction treats specially: three parallel
    bounded edges (genus 2), a genus-2 theta graph without loops or
    parallel edges, and a zero-slope tree edge at the root that lies on the
    paths to both marked vertices, and on a fundamental cycle or off the
    cycle of a curve with a j-row."""
    rng = random.Random(seed)
    out = []
    for n in (2, 3):
        out.append(_shape(
            rng, n, {"a": (0, 0), "b": (1, 0)},
            [("a", "b", 1), ("a", "b", "1/2"), ("a", "b", "1/3")],
            [("a", (-3, 1)), ("a", (-3, -1)), ("b", (3, 1)), ("b", (3, -1))],
            ["b"]))
        out.append(_shape(
            rng, n, {"a": (0, 0), "b": (2, 0), "c": (1, 1), "d": (1, -1)},
            [("a", "b", 1), ("a", "c", 1), ("c", "b", 1), ("a", "d", 1),
             ("d", "b", "1/2")],
            [("a", (-2, 1)), ("a", (-2, -1)), ("b", (2, 1)), ("b", (3, 0)),
             ("c", (0, 2)), ("d", (-1, -2)), ("d", (0, -1))],
            ["d", "c"]))
        out.append(_shape(
            rng, n, {"a1": (0, 0), "a2": (0, 0), "b": (1, 0), "c": (0, 1),
                     "m": (0, -1)},
            [("a1", "a2", 2), ("a1", "b", 1), ("b", "c", 1), ("c", "a2", 1),
             ("a2", "m", 1)],
            [("a1", (-1, 0)), ("b", (2, -1)), ("c", (-1, 2)), ("m", (0, -1))],
            ["m", "c"]))
        out.append(_shape(
            rng, n, {"r": (0, 0), "a": (0, 0), "b": (1, 0), "c": (0, 1)},
            [("r", "a", 1), ("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
            [("r", (1, 1)), ("r", (-1, -1)), ("a", (-1, -1)), ("b", (2, -1)),
             ("c", (-1, 2))],
            ["c", "b"]))
    return out


def every_complex():
    """(curve, report, the oracle's full complex) for every complex of the
    fixtures, the corpora, a few large marked trees and the tree-route
    shapes that the engine computes."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    curves = [load(str(f))[:2] for f in sorted(fixtures.glob("*.json"))]
    curves += corpus(5005, 60) + elliptic_corpus(5006, 30)
    curves += marked_trees(5007, 6) + tree_route_shapes(5008)
    for p, a in curves:
        for variant in ("b", "beta"):
            for cons in {None, a}:
                for elliptic in {False, genus(p.curve) == 1}:
                    spec = ComplexSpec(variant, cons, elliptic)
                    try:
                        rep = compute(p, spec)
                    except TropicorrError:
                        continue
                    yield p, rep, full_complex(p, spec)


def test_unit_elimination_on_every_complex_matrix():
    seen = 0
    for _, _, full in every_complex():
        mat = full.matrix
        assert invariant_factors(mat) == smith(mat).divisors, mat
        seen += 1
    assert seen >= 450, seen


def test_sparse_count_route_matches_dense_reference():
    # compute reduces the tree-reduced sparse rows; the reference assembles
    # the full matrix from the curve, reduces it with the oracle's Smith
    # form and reads E^1's rank and E^2 off its divisors
    seen = 0
    large_torsion = set()
    for p, rep, full in every_complex():
        mat = full.matrix
        divisors = smith(mat).divisors
        assert (rep.n_rows, rep.domain_dim) == (len(mat), full.dim)
        assert rep.E1_rank == full.dim - len(divisors)
        assert rep.E2 == FGAbelianGroup(
            len(mat) - len(divisors), tuple(d for d in divisors if d > 1))
        if len(p.curve.finite_vertices) >= 13 and rep.E2.torsion:
            large_torsion.add(rep.E2.torsion)
        seen += 1
    assert seen >= 450, seen
    assert len(large_torsion) >= 3, large_torsion


def test_diagonal_inputs_need_the_gcd_lcm_chain():
    # every entry is its own pivot, so only the chain step makes the
    # divisors divide each other; zero rows and columns and permutations
    # around it change nothing
    assert invariant_factors([[4, 0], [0, 6]]) == (2, 12)
    assert invariant_factors([{1: 6}, {0: 4}]) == (2, 12)
    big = 2**40
    a = [[3 * big, 0, 0], [0, 2 * big, 0], [0, 0, 5]]
    want = (1, big, 30 * big)
    assert smith(a).divisors == want
    rng = random.Random(4040)
    for zero_rows, zero_cols in ((0, 0), (2, 0), (0, 3), (1, 2)):
        padded = freeze([row + [0] * zero_cols for row in a]
                        + [[0] * (3 + zero_cols)] * zero_rows)
        for _ in range(4):
            b = permuted(rng, padded)
            assert smith(b).divisors == want
            assert invariant_factors(b) == want, b


def test_unit_free_pivots_that_divide_neither_row_nor_column():
    # the least entry divides no other entry of its row or column, so each
    # case takes Euclid steps before any pivot is dropped
    cases = [[[2, 3], [3, 5]], [[4, 6], [6, 9]], [[2, 3], [5, 7]],
             [[6, 4], [9, 6]], [[2, 3, 0], [3, 5, 2], [0, 2, 4]],
             [[4, 6, 10], [6, 9, 15], [10, 15, 4]],
             [[6, 10, 15], [10, 15, 6], [15, 6, 10]]]
    for a in cases:
        want = smith(a).divisors
        assert invariant_factors(a) == want, a
        assert invariant_factors(
            [{j: x for j, x in enumerate(row) if x} for row in a]) == want
    assert invariant_factors([[2, 3], [3, 5]]) == (1, 1)
    assert invariant_factors([[4, 6], [6, 9]]) == (1,)


def test_large_sparse_unit_free_matrices():
    # no unit anywhere, up to 40 x 40: the elimination runs on Euclid
    # steps and fill-in alone
    rng = random.Random(4141)
    entries = (2, -2, 3, -3, 4, -4, 6, -6)
    torsion = 0
    for _ in range(30):
        m, n = rng.randint(20, 40), rng.randint(20, 40)
        density = rng.choice((0.04, 0.08, 0.15))
        a = freeze([[rng.choice(entries) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(m)])
        want = smith(a).divisors
        assert invariant_factors(a) == want, a
        torsion += any(d > 1 for d in want)
    assert torsion >= 10, torsion


def test_only_cycle_constraint_and_j_rows_reach_the_reduction(monkeypatch):
    # a tree edge's rows are unit pivots on its child's columns, so compute
    # hands invariant_factors at most n g + sum corank L_i rows, +1 with j
    seen = []
    reduce = exactla.invariant_factors
    monkeypatch.setattr(exactla, "invariant_factors",
                        lambda a: seen.append(len(a)) or reduce(a))
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    checked = 0
    for f in sorted(fixtures.glob("*.json")):
        p, a = load(str(f))[:2]
        g = genus(p.curve)
        for variant in ("b", "beta"):
            for cons in (None, a):
                for elliptic in {False, g == 1}:
                    seen.clear()
                    try:
                        compute(p, ComplexSpec(variant, cons, elliptic))
                    except TropicorrError:
                        continue
                    bound = (p.lattice_rank * g + elliptic
                             + (cons.codim if cons else 0))
                    assert len(seen) == 1 and seen[0] <= bound, (f, seen)
                    checked += 1
    assert checked >= 20, checked
    p = load(str(fixtures / "line2pts.json"))[0]
    seen.clear()
    compute(p, ComplexSpec("b"))
    assert seen == [0]


def test_kernel_basis_examples():
    assert kernel_basis(identity(2)) == ()
    assert kernel_basis([[1, 1]]) in (((1, -1),), ((-1, 1),))
    assert kernel_basis([[2, 4], [6, 8]]) == ()


def test_kernel_rank_nullity():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = freeze([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        ker = kernel_basis(a)
        assert len(ker) + rank(a) == n
        for v in ker:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        # kernel is saturated: dividing a basis combo by an integer stays inside
        sat = saturation(Sublattice(n, ker)) if ker else zero_lattice(n)
        assert sat == Sublattice(n, ker)


def test_cokernel_examples():
    assert cokernel_group([[2, 0], [0, 3]]) == FGAbelianGroup(0, (6,))
    assert cokernel_group([[0, 0], [0, 0]]) == FGAbelianGroup(2)
    assert cokernel_group(identity(2)).is_trivial


def test_cokernel_unimodular_invariance():
    rng = random.Random(4242)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = freeze([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        g = cokernel_group(a)
        u, v = random_unimodular(rng, m), random_unimodular(rng, n)
        assert cokernel_group(mat_mul(u, a)) == g
        assert cokernel_group(mat_mul(a, v)) == g


def test_hnf_canonical():
    # two generating sets of the same lattice agree after HNF
    b1 = hnf([[2, 0], [0, 3]], 2)
    b2 = hnf([[2, 3], [2, 0], [4, 3]], 2)
    assert b1 == b2
    assert hnf([[0, 0]], 2) == ()
    assert hnf([[4, 6], [2, 2]], 2) == hnf([[2, 2], [0, 2]], 2)


def test_hnf_of_one_row_makes_its_first_nonzero_positive():
    # one row through the general loop, with leading zeros and either sign
    rng = random.Random(4011)
    for _ in range(2000):
        n = rng.randint(1, 5)
        lead = rng.randint(0, n)
        row = [0] * lead + [rng.randint(-9, 9) for _ in range(n - lead)]
        nonzero = [x for x in row if x]
        if not nonzero:
            assert hnf([row], n) == ()
            continue
        sign = 1 if nonzero[0] > 0 else -1
        assert hnf([row], n) == (tuple(sign * x for x in row),), row


def test_saturation_examples():
    assert saturation(Sublattice(2, [[2, 0]])) == Sublattice(2, [[1, 0]])
    assert saturation(Sublattice(2, [[1, 1]])) == Sublattice(2, [[1, 1]])
    # full-rank sublattice saturates to the ambient lattice
    assert saturation(Sublattice(2, [[2, 4], [0, 6]])) == full_lattice(2)


def test_saturation_idempotent_and_index():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        rows = [row for row in hnf(rows, n)]
        lat = Sublattice(n, rows)
        sat = saturation(lat)
        assert saturation(sat) == sat
        if lat.rank:
            assert lattice_index(sat, lat) >= 1


def test_lattice_ops_examples():
    assert primitive_vector((2, 2)) == (1, 1)
    assert integral_length((2, 2)) == 2
    assert lattice_intersect(Sublattice(2, [[1, 0]]), Sublattice(2, [[1, 1]])).rank == 0
    assert lattice_index(full_lattice(2), Sublattice(2, [[2, 0], [0, 3]])) == 6


def test_lattice_intersect_sum_random():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.randint(2, 4)
        l1 = Sublattice(n, hnf([[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(rng.randint(1, n))], n))
        l2 = Sublattice(n, hnf([[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(rng.randint(1, n))], n))
        inter = lattice_intersect(l1, l2)
        for row in inter.basis:
            assert contains(l1, row) and contains(l2, row)
        s = Sublattice(n, hnf(l1.basis + l2.basis, n))
        for row in l1.basis + l2.basis:
            assert contains(s, row)
        # Grassmann identity at the level of ranks
        assert l1.rank + l2.rank == inter.rank + s.rank


def test_lattice_intersect_brute_force_oracle():
    # membership-level equality on a box of small vectors
    rng = random.Random(808)
    from itertools import product

    for _ in range(12):
        l1 = Sublattice(2, hnf([[rng.randint(-3, 3) for _ in range(2)]
                                for _ in range(rng.randint(1, 2))], 2))
        l2 = Sublattice(2, hnf([[rng.randint(-3, 3) for _ in range(2)]
                                for _ in range(rng.randint(1, 2))], 2))
        inter = lattice_intersect(l1, l2)
        for v in product(range(-6, 7), repeat=2):
            both = contains(l1, v) and contains(l2, v)
            assert contains(inter, v) == both, (l1, l2, v)


def test_lattice_intersect_span():
    l1 = full_lattice(3)
    space = Sublattice(3, [[1, 1, 0]])
    got = lattice_intersect_span(l1, space)
    assert got == Sublattice(3, [[1, 1, 0]])
    l2 = Sublattice(3, [[2, 0, 0], [0, 1, 1]])
    got = lattice_intersect_span(l2, Sublattice(3, [[1, 0, 0]]))
    assert got == Sublattice(3, [[2, 0, 0]])


def test_quotient_presentation():
    lat = Sublattice(3, [[1, 0, 0]])
    q = quotient_presentation(lat)
    assert len(q) == 2
    # presentation kills the lattice and is surjective
    for row in lat.basis:
        assert all(sum(a * b for a, b in zip(qrow, row)) == 0 for qrow in q)
    assert rank(q) == 2
    assert quotient_presentation(zero_lattice(2)) == identity(2)
    # random lattices of every rank in Z^2..Z^5: a saturated one is
    # presented with kernel exactly the lattice and onto Z^corank, any
    # other is refused
    rng = random.Random(2121)
    refused = presented = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        lat = Sublattice(n, hnf(rows, n))
        if lattice_index(saturation(lat), lat) > 1:
            with pytest.raises(ValueError, match="saturated"):
                quotient_presentation(lat)
            refused += 1
            continue
        q = quotient_presentation(lat)
        assert len(q) == lat.corank and all(len(row) == n for row in q)
        assert Sublattice(n, kernel_basis(q) if q else identity(n)) == lat
        assert smith(q).divisors == (1,) * lat.corank
        presented += 1
    assert refused >= 100 and presented >= 300, (refused, presented)


def _tensor(a, g):
    """A (x) G: E^2_G of ``sizes_over`` with E^2 = A."""
    return sizes_over(0, a, g)[1]


def _tor(a, g):
    """Tor(A, G): E^1_G of ``sizes_over`` with E^1 = 0 and E^2 = A."""
    return sizes_over(0, a, g)[0]


def test_base_change_examples():
    k5 = CoeffGroup.field(5)
    assert _tensor(FGAbelianGroup(1), k5) == GroupSize(kdim=1, finite_order=None)
    ks0 = CoeffGroup.units(0)
    assert _tor(FGAbelianGroup(0, (2,)), ks0).finite_order == 2
    ks2 = CoeffGroup.units(2)
    assert _tor(FGAbelianGroup(0, (2,)), ks2).finite_order == 1


def test_base_change_rationals_rank():
    rng = random.Random(7)
    q = CoeffGroup("Q")
    for _ in range(20):
        g = FGAbelianGroup(rng.randint(0, 3), tuple(sorted({2, 4, 12}))[: rng.randint(0, 3)])
        assert _tensor(g, q).kdim == g.rank
        assert _tor(g, q).is_trivial


def test_base_change_field_and_units():
    g = FGAbelianGroup(0, (2, 6))
    f2 = CoeffGroup.field(2)
    f3 = CoeffGroup.field(3)
    assert _tensor(g, f2).kdim == 2
    assert _tensor(g, f3).kdim == 1
    assert _tor(g, f2).kdim == 2
    assert _tor(g, CoeffGroup.units(2)).finite_order == 3
    assert _tor(g, CoeffGroup.units(0)).finite_order == 12
    assert _tensor(g, CoeffGroup.units(5)).is_trivial


def test_solve_rational():
    sol = solve_rational([[2, 0], [0, 2]], [1, 3])
    assert sol == (Fraction(1, 2), Fraction(3, 2))
    assert solve_rational([[1, 0]], [0, 1]) is None
