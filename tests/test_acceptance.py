"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured evidence."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from corpus import corpus, elliptic_corpus, elliptic_rigid, rigid_genus0
from fixture_curves import doubled_line, line_through_two_points, x_configuration
from oracles import (
    check_fan,
    det,
    lemma_complexes,
    mat_mul,
    oracle_contraction,
    plain_complex_ranks,
    six_term_ledgers,
    smith,
)
from tropicorr.complexes import ComplexSpec, compute, rank, sizes_over
from tropicorr.counting import correspondence_count, elliptic_count
from tropicorr.errors import HypothesisFailed
from tropicorr.exactla import CoeffGroup, FGAbelianGroup
from tropicorr.fanmodel import build_K, gamma_tr, ramification, refine_to_fan
from tropicorr.paramcurve import (
    edge_geometry,
    extend_parameterization,
    is_dm,
    zero_slope_bounded_count,
)
from tropicorr.stacky import stacky_data
from tropicorr.tropgraph import Subdivide, genus

F = Fraction
FIELDS = (CoeffGroup("Q"), CoeffGroup.field(2), CoeffGroup.field(3),
          CoeffGroup.field(5))


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_line_through_two_points():
    t0 = time.time()
    p, a = line_through_two_points()
    res = correspondence_count(p, a, 0)
    dt = time.time() - t0
    assert res.count == 1
    assert (res.torsor_order, res.stacky_factor) == (1, 1)
    assert len(res.cross_checks) == 3
    assert dt < 1.0
    report(1, f"line through two points counts 1 = 1 x 1 in {dt:.3f}s")


def test_criterion_2_doubled_line():
    t0 = time.time()
    p, a = doubled_line()
    for char_p in (0, 3):
        res = correspondence_count(p, a, char_p)
        assert res.count == 4
    ce2 = compute(p, ComplexSpec("beta", a)).E2
    assert ce2 == FGAbelianGroup(0, (2, 2))
    with pytest.raises(HypothesisFailed):
        correspondence_count(p, a, 2)
    dt = time.time() - t0
    assert dt < 1.0
    report(2, f"doubled line counts 4 at char 0 and 3, CE2 = Z/2+Z/2, "
              f"char 2 rejected, in {dt:.3f}s")


_CORPUS = None


def get_corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = corpus(20250521, 200)
    return _CORPUS


def test_criterion_3_six_term_ledger():
    checked = 0
    for p, a in get_corpus():
        for d in six_term_ledgers(p, a, FIELDS):
            assert (d["mu"] - d["CE1"] + d["E1"] - d["quot"] + d["CE2"]
                    - d["E2"]) == 0, d
            checked += 1
    assert checked == 200 * 4
    report(3, f"six-term ledger balanced in {checked} (curve, field) cases")


def overvalency(c):
    """Sum of valency - 3 over the finite vertices, counted from the edge
    ends (a loop twice) with no library code."""
    ends = Counter(x for e in c.edges for x in e.ends)
    return sum(ends[v] - 3 for v in c.finite_vertices)


def test_criterion_4_rank_formula():
    # c, E^1 and E^2 of the plain complex come from plain_complex_ranks,
    # which shares no assembly or reduction with the library
    checked = 0
    for p, a in get_corpus():
        c, e1, e2 = plain_complex_ranks(p)
        rep = compute(p, ComplexSpec("b"))
        assert (zero_slope_bounded_count(p), rep.E1_rank, rep.E2.rank) == (
            c, e1, e2)
        chi = 1 - genus(p.curve)
        rhs = ((p.lattice_rank - 3) * chi + len(p.curve.unbounded_edges())
               - overvalency(p.curve) + e2)
        assert rank(p) == c + e1 == rhs, (rank(p), c + e1, rhs)
        checked += 1
    assert checked == 200
    report(4, f"deformation rank = c + rank E^1 over Q = the closed formula "
              f"on {checked} curves")


def _random_subdivision(rng, p):
    steps = []
    for e in p.curve.bounded_edges():
        if edge_geometry(p, e.id).slope is None or rng.random() < 0.5:
            continue
        cuts = sorted({F(rng.randint(1, 5), 6) * e.length
                       for _ in range(rng.randint(1, 2))})
        steps.append(Subdivide(e.id, tuple(cuts)))
    for e in p.curve.unbounded_edges():
        if edge_geometry(p, e.id).slope is None or rng.random() < 0.7:
            continue
        steps.append(Subdivide(e.id, (F(rng.randint(1, 4), 2),)))
    return extend_parameterization(p, steps), sum(len(s.distances) for s in steps)


def test_criterion_5_transport():
    rng = random.Random(99991)
    pairs = contractions = 0
    for p, a in get_corpus()[:100]:
        p_sub, n_new = _random_subdivision(rng, p)
        assert len(p_sub.h.keys() - p.h.keys()) == n_new
        for (r, e2), (r_sub, e2_sub) in zip(lemma_complexes(p, a),
                                            lemma_complexes(p_sub, a)):
            assert (r_sub, e2_sub) == (r + n_new, e2)
        pairs += 1
        pbar = oracle_contraction(p)
        assert not zero_slope_bounded_count(pbar)
        drop = genus(p.curve) - genus(pbar.curve)
        for (r, e2), (rbar, e2bar) in zip(lemma_complexes(p, a),
                                          lemma_complexes(pbar, a)):
            assert (r, e2.torsion) == (rbar, e2bar.torsion)
            assert e2.rank == e2bar.rank + p.lattice_rank * drop
        full = compute(p, ComplexSpec("b"))
        small = compute(pbar, ComplexSpec("b"))
        assert full.E2.rank == small.E2.rank + p.lattice_rank * drop
        contractions += 1
    assert pairs >= 100
    report(5, f"subdivision/contraction transport exact on {pairs} pairs "
              f"and {contractions} contractions")


def test_criterion_6_fan_axiom_and_idempotence():
    checked = 0
    for p, _ in corpus(424243, 100, constrained=False):
        fan = refine_to_fan(build_K(p))
        assert not check_fan(fan)
        tr = gamma_tr(p)
        assert set(build_K(tr)) == set(fan)
        assert gamma_tr(tr).curve == tr.curve
        checked += 1
    x = x_configuration()
    tr = gamma_tr(x)
    new = [v for v in tr.curve.finite_vertices
           if v not in x.curve.finite_vertices]
    assert len(new) == 2 and all(tr.hv(v) == (1, 1) for v in new)
    report(6, f"fan axiom and gamma_tr idempotence on {checked} curves "
              "+ X fixture gains one vertex per crossing edge at (1,1)")


def test_criterion_7_snf_certificates():
    # the certificates are the oracle's, whose elimination shares no code
    # with the engine's; the engine's invariant factors, from dense and
    # from {col: value} rows, must equal their divisors
    from tropicorr.exactla import freeze, invariant_factors

    t0 = time.time()
    rng = random.Random(20240717)
    for _ in range(1000):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = freeze([[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)])
        res = smith(a)
        assert mat_mul(mat_mul(res.U, a), res.V) == res.D
        assert abs(det(res.U)) == 1 and abs(det(res.V)) == 1
        for x, y in zip(res.divisors, res.divisors[1:]):
            assert y % x == 0
        assert all(res.D[i][j] == 0
                   for i in range(m) for j in range(n) if i != j)
        assert invariant_factors(a) == res.divisors
        assert invariant_factors(
            [{j: x for j, x in enumerate(row) if x} for row in a]
        ) == res.divisors
    dt = time.time() - t0
    assert dt < 10.0
    report(7, f"1000 SNF certificates verified and invariant factors "
              f"pinned to them in {dt:.2f}s")


def test_criterion_8_stacky_consistency():
    checked = 0
    for p, _ in corpus(31337, 40, constrained=False):
        tr = gamma_tr(p)
        a = ramification(tr, 1)["minimal_a"]
        st = stacky_data(tr, a)  # verifies compatibility + facet identities
        for char_p in (2, 3, 5):
            assert is_dm(p, char_p) == all(o % char_p for o in st.orders())
        checked += 1
    report(8, f"DM criterion matches stabilizer orders on {checked} curves "
              "at chars 2, 3, 5 (lattice compatibility verified throughout)")


def test_criterion_9_elliptic_identity():
    ledgers = 0
    for p, a in elliptic_corpus(5150, 50):
        cej = compute(p, ComplexSpec("beta", a, elliptic=True))
        ce = compute(p, ComplexSpec("beta", a))
        for grp in (CoeffGroup("Q"), CoeffGroup.field(5)):
            cej1, cej2 = sizes_over(cej.E1_rank, cej.E2, grp)
            ce1, ce2 = sizes_over(ce.E1_rank, ce.E2, grp)
            alternating = cej1.kdim - ce1.kdim + 1 - cej2.kdim + ce2.kdim
            assert alternating == 0
            ledgers += 1
    rng = random.Random(1618)
    attempted = agreed = 0
    while agreed < 12 and attempted < 80:
        p, a = elliptic_rigid(rng)
        attempted += 1
        try:
            res = elliptic_count(p, a, 0)
        except HypothesisFailed:
            continue
        # the count already equates the direct SNF and Tor routes
        assert len(res.cross_checks) == 2
        agreed += 1
    assert ledgers == 100 and agreed >= 12
    report(9, f"j-augmented ledger balanced in {ledgers} cases; elliptic "
              f"count cross-checks agreed on {agreed}/{attempted} rigid instances")


def _e1_kstar(rep, char_p):
    return sizes_over(rep.E1_rank, rep.E2, CoeffGroup.units(char_p))[0]


def test_criterion_10_kstar_order_law():
    lawful = 0
    for p, a in get_corpus():
        for cons in (a, None):
            e_rep = compute(p, ComplexSpec("b", cons))
            ce_rep = compute(p, ComplexSpec("beta", cons))
            for char_p in (0, 2, 3, 5):
                e1 = _e1_kstar(e_rep, char_p)
                ce1 = _e1_kstar(ce_rep, char_p)
                if e1.finite_order is None or ce1.finite_order is None:
                    continue
                mults = [edge_geometry(p, e.id).multiplicity
                         for e in p.curve.bounded_edges()]
                mults = [m for m in mults if m]
                if char_p and any(m % char_p == 0 for m in mults):
                    continue
                prod = 1
                for m in mults:
                    prod *= m
                assert ce1.finite_order == e1.finite_order * prod
                lawful += 1
    # rigid instances make both orders finite in quantity
    rng = random.Random(8128)
    for _ in range(25):
        p, a = rigid_genus0(rng, rng.choice((2, 3)))
        e1 = _e1_kstar(compute(p, ComplexSpec("b", a)), 0)
        ce1 = _e1_kstar(compute(p, ComplexSpec("beta", a)), 0)
        if e1.finite_order is None or ce1.finite_order is None:
            continue
        prod = 1
        for e in p.curve.bounded_edges():
            m = edge_geometry(p, e.id).multiplicity
            prod *= m if m else 1
        assert ce1.finite_order == e1.finite_order * prod
        lawful += 1
    assert lawful >= 25
    report(10, f"k*-order law |CE1| = |E1| * prod l(e) exact in {lawful} "
               "finite instances")
