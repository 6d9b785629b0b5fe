import ast
import gc
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from corpus import corpus, elliptic_corpus, rigid_genus0, rigid_with_lines
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
)
from tropicorr import complexes, counting, exactla, fanmodel, stacky, tropgraph
from tropicorr import paramcurve as pc
from tropicorr.counting import (
    CountHypotheses,
    correspondence_count,
    elliptic_count,
    moduli_dimension,
    stacky_multiplier,
)
from tropicorr.curvefile import load
from tropicorr.errors import (
    CrossCheckFailed,
    GenusNotOne,
    HypothesisFailed,
    NotBalanced,
    TropicorrError,
    ZeroSlopeCycleEdge,
)
from tropicorr.paramcurve import constraint_set, extend_parameterization, param_curve
from tropicorr.tropgraph import SubdivideBounded, curve


def test_moduli_dimension():
    p, _ = line_through_two_points()
    assert moduli_dimension(p) == 0
    fourval = param_curve(
        curve(["v"], ["a", "b", "c", "d"],
              [("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("v", "c"), None), ("r4", ("v", "d"), None)]),
        2, {"v": (0, 0), "a": (1, 0), "b": (-1, 0), "c": (0, 1), "d": (0, -1)})
    assert moduli_dimension(fourval) == 1


def test_unbalanced_curve_is_not_counted():
    # a leaf hung off w3 unbalances w3 and the leaf; stabilization prunes
    # it, but the counting layer rejects the input instead of counting 9
    p, a = triangle_elliptic()
    c = p.curve
    hung = tropgraph.TropicalCurve(
        c.finite_vertices + ("y",), c.infinite_vertices,
        c.edges + (tropgraph.Edge("bad", ("w3", "y"), Fraction(1)),))
    q = param_curve(hung, 2, {**p.h, "y": (1, 1)})
    assert elliptic_count(p, a, 0).count == 9
    assert pc.stabilize_param(q).curve == c
    for call in (elliptic_count, correspondence_count):
        with pytest.raises(NotBalanced):
            call(q, a, 0)
    for call in (moduli_dimension, stacky_multiplier):
        with pytest.raises(NotBalanced):
            call(q)


def test_stacky_multiplier():
    p, _ = line_through_two_points()
    assert stacky_multiplier(p) == 1
    dbl, _ = doubled_line()
    assert stacky_multiplier(dbl) == 4
    single3 = param_curve(
        curve(["v", "w"], ["a", "b", "c", "d"],
              [("e", ("v", "w"), "1/3"),
               ("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("w", "c"), None), ("r4", ("w", "d"), None)]),
        2, {"v": (0, 0), "w": (1, 0), "a": (-1, 0), "b": (-2, 0),
            "c": (1, 0), "d": (2, 0)})
    assert stacky_multiplier(single3) == 3


def test_correspondence_count_line():
    p, a = line_through_two_points()
    res = correspondence_count(p, a, 0)
    assert res.count == 1
    assert (res.torsor_order, res.stacky_factor) == (1, 1)
    assert len(res.cross_checks) == 3


def test_correspondence_count_doubled_line():
    p, a = doubled_line()
    for char_p in (0, 3):
        res = correspondence_count(p, a, char_p)
        assert res.count == 4
        assert (res.torsor_order, res.stacky_factor) == (1, 4)
    with pytest.raises(HypothesisFailed) as err:
        correspondence_count(p, a, 2)
    assert err.value.flag == "char_ok"


def test_correspondence_count_hypothesis_flags():
    p, a = line_through_two_points()
    # wrong number of constraints: codimension mismatch
    short = constraint_set([((), (-1, 0))], 2)
    with pytest.raises(HypothesisFailed) as err:
        correspondence_count(p, short, 0)
    assert err.value.flag == "codim_match"
    # unsatisfied constraint
    bad = constraint_set([((), (7, 7)), ((), (1, 1))], 2)
    with pytest.raises(HypothesisFailed) as err:
        correspondence_count(p, bad, 0)
    assert err.value.flag == "satisfies_A"
    # non-trivalent after stabilization
    fourval = param_curve(
        curve(["v"], ["m1", "a", "b", "c", "d"],
              [("g", ("v", "m1"), None),
               ("r1", ("v", "a"), None), ("r2", ("v", "b"), None),
               ("r3", ("v", "c"), None), ("r4", ("v", "d"), None)]),
        2, {"v": (0, 0), "m1": (0, 0), "a": (1, 0), "b": (-1, 0),
            "c": (0, 1), "d": (0, -1)})
    with pytest.raises(HypothesisFailed) as err:
        correspondence_count(fourval, constraint_set([((), (0, 0))], 2), 0)
    assert err.value.flag == "trivalent"


def test_count_subdivision_invariant():
    p, a = doubled_line()
    p2 = extend_parameterization(p, [SubdivideBounded("e1", ("1/4",))])
    res = correspondence_count(p2, a, 0)
    assert res.count == 4


def test_count_normalizes_two_valent_marked_vertex():
    # pushing the marked point onto a zero-slope stalk (subdividing its
    # contracted end) must not change the count: stabilization smooths the
    # 2-valent marked vertex back onto its support
    from tropicorr.tropgraph import SubdivideUnbounded

    p, a = line_through_two_points()
    p2 = extend_parameterization(p, [SubdivideUnbounded("g1", (1,))])
    assert p2.hv("g1.v1") == p.hv("v1")
    res = correspondence_count(p2, a, 0)
    assert res.count == 1


def test_plane_counts_equal_mikhalkin_multiplicity():
    # an independent route: the oracle multiplies vertex determinants of
    # Fraction directions and shares no code with invariant_factors.  In
    # characteristic p > 0 with every edge multiplicity prime to p the
    # count is the same, unless p divides it, when E^2 has p-torsion and
    # the curve is not regular
    rng = random.Random(31)
    counted = 0
    at_char = Counter()
    for _ in range(200):
        p, a = rigid_genus0(rng, 2)
        try:
            want = correspondence_count(p, a, 0).count
        except HypothesisFailed:
            continue
        assert oracles.mikhalkin_multiplicity(p) == want, p
        counted += 1
        for char in (2, 3, 5):
            if not pc.is_dm(pc.stabilize_param(p), char):
                continue
            if want % char:
                assert correspondence_count(p, a, char).count == want
                at_char[char] += 1
            else:
                with pytest.raises(HypothesisFailed, match="regular"):
                    correspondence_count(p, a, char)
    assert counted >= 60, counted
    assert min(at_char[char] for char in (2, 3, 5)) >= 20, at_char


PRIMES_TO_50 = [n for n in range(2, 51) if all(n % d for d in range(2, n))]


def test_plane_counts_fail_at_exactly_the_predicted_bad_primes():
    # a prime is bad when it divides an edge multiplicity of the
    # stabilization (the curve is not DM there: char_ok) or, failing that,
    # the Mikhalkin multiplicity (E^2 has p-torsion: regular); at every
    # other prime the count is the char-0 count
    rng = random.Random(31)
    curves = []
    while len(curves) < 132:
        p, a = rigid_genus0(rng, 2)
        try:
            curves.append((p, a, correspondence_count(p, a, 0).count))
        except HypothesisFailed:
            pass
    refused = Counter()
    for p, a, want in curves:
        p_st = pc.stabilize_param(p)
        mults = [oracles.fraction_edge_geometry(p_st, e.id).multiplicity
                 for e in p_st.curve.edges]
        mikhalkin = oracles.mikhalkin_multiplicity(p)
        for char in PRIMES_TO_50:
            if any(m % char == 0 for m in mults if m):
                flag = "char_ok"
            elif mikhalkin % char == 0:
                flag = "regular"
            else:
                assert correspondence_count(p, a, char).count == want
                continue
            with pytest.raises(HypothesisFailed) as err:
                correspondence_count(p, a, char)
            assert err.value.flag == flag, (p, char)
            refused[flag] += 1
    assert refused["char_ok"] >= 100 and refused["regular"] >= 20, refused


def test_elliptic_count_triangle():
    p, a = triangle_elliptic()
    res = elliptic_count(p, a, 0)
    assert res.count == 9
    assert res.hypotheses.elliptic_regular
    res5 = elliptic_count(p, a, 5)
    assert res5.count == 9
    with pytest.raises(HypothesisFailed) as err:
        elliptic_count(p, a, 3)  # 3 divides |CE2(Gamma,A,j)| = 9
    assert err.value.flag == "elliptic_regular"


def test_elliptic_count_genus_errors():
    p, a = line_through_two_points()
    with pytest.raises(GenusNotOne):
        elliptic_count(p, a, 0)
    tri, a3 = triangle_elliptic()
    with pytest.raises(HypothesisFailed) as err:
        elliptic_count(tri, constraint_set([((), (-1, -1))], 2), 0)
    assert err.value.flag == "codim_match"


def test_count_raises_first_false_flag_of_eager_reference():
    # the constrained corpus (elliptic counts on its genus-one curves too)
    # and the elliptic corpus, at chars 0, 2, 3 and 5: a count raises the
    # first False flag of the record that computes every flag, and returns
    # that record when all hold
    cases = []
    for p, a in corpus(1515, 80):
        cases.append((correspondence_count, p, a, False))
        if tropgraph.genus(p.curve) == 1:
            cases.append((elliptic_count, p, a, True))
    cases += [(elliptic_count, p, a, True)
              for p, a in elliptic_corpus(1516, 40)]
    seen = set()
    for count, p, a, elliptic in cases:
        for char_p in (0, 2, 3, 5):
            try:
                ref = oracles.eager_hypotheses(pc.stabilize_param(p), a,
                                               char_p, elliptic)
            except ZeroSlopeCycleEdge:
                # a zero-slope cycle edge fails no_zero_slope_bounded, so
                # the count stops there or earlier, before (beta, A, j)
                with pytest.raises(HypothesisFailed) as err:
                    count(p, a, char_p)
                assert err.value.flag in ("trivalent", "codim_match",
                                          "no_zero_slope_bounded")
                seen.add(ZeroSlopeCycleEdge)
                continue
            first = next((flag for flag in CountHypotheses.CHECK_ORDER
                          if getattr(ref, flag) is False), None)
            try:
                res = count(p, a, char_p)
            except HypothesisFailed as exc:
                assert exc.flag == first
            else:
                assert first is None and res.hypotheses == ref
            seen.add(first)
    assert {"trivalent", "codim_match", "char_ok", "regular",
            "elliptic_regular", None, ZeroSlopeCycleEdge} <= seen


ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def _count_calls(monkeypatch, names, module=exactla):
    """Wrap the module's functions in every tropicorr namespace that bound
    them and return the live call counters."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("tropicorr")
                    and getattr(mod, name, None) is fn):
                monkeypatch.setattr(mod, name, wrapper)
    return calls


FIXTURE_COUNTS = [
    (correspondence_count, "line2pts.json", 1),
    (correspondence_count, "dblline.json", 4),
    (elliptic_count, "triangle_elliptic.json", 9),
]


@pytest.mark.parametrize("count, fixture, expected", FIXTURE_COUNTS)
def test_count_reduces_each_matrix_once(monkeypatch, count, fixture, expected):
    # (b, none) for the rank, then (b, A) and (beta, A) for a plane count or
    # (beta, A) and (beta, A, j) for an elliptic one; no Hermite form needed.
    # The constraint was presented once, when it was built, and satisfaction
    # and simplicity read that presentation.  The three complexes share one
    # frame, built for the stabilized curve
    p, a, _, _ = load(str(FIXTURES / fixture))
    general = ("hnf", "quotient_presentation")
    calls = _count_calls(monkeypatch, ("invariant_factors",) + general)
    frames = _count_calls(monkeypatch, ("_frame",), complexes)
    assert count(p, a, 0).count == expected
    assert calls == {"invariant_factors": 3, **dict.fromkeys(general, 0)}
    assert frames == {"_frame": 1}


def test_counts_keep_no_curve_alive():
    # counts keep no state between calls and leave no new attribute on a
    # curve object: after 50 counts, no curve of theirs is still alive
    attributes = {"curve", "lattice_rank", "h", "_violations", "_slopes",
                  "_stabilization"}
    refs = []
    for p, a in corpus(2305, 50):
        try:
            correspondence_count(p, a, 0)
        except TropicorrError:
            pass
        st = pc.stabilize_param(p)
        assert set(vars(p)) <= attributes and set(vars(st)) <= attributes
        refs.append((weakref.ref(p), weakref.ref(st)))
    del p, a, st
    gc.collect()
    assert all(r() is None for pair in refs for r in pair)


def _outcome(run, *args):
    """A complex's E^1 rank and E^2, a count, or the error it ends in."""
    try:
        res = run(*args)
    except TropicorrError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(res, counting.CountResult):
        return res.count
    return res.E1_rank, res.E2


def _outcomes(p, a):
    """Every complex on (p, a), and each count at chars 0, 2 and 3."""
    elliptic = tropgraph.genus(p.curve) == 1
    out = [_outcome(complexes.compute, p, complexes.ComplexSpec(v, cons, j))
           for v in ("b", "beta") for cons in (None, a)
           for j in {False, elliptic}]
    out += [_outcome(count, p, a, char_p)
            for count in (correspondence_count, elliptic_count)[:1 + elliptic]
            for char_p in (0, 2, 3)]
    return out


def test_counts_do_not_depend_on_the_presentation(monkeypatch):
    # two presentations of N -> N/L differ by a unimodular matrix on the
    # left, so building each constraint of rank >= 1 with U P in place of
    # its presentation P moves no E^1 rank, no E^2 and no count
    rng = random.Random(2323)
    items = [(p, a) for p, a in corpus(20250521, 200)
             + elliptic_corpus(5150, 50)
             if any(con.space.rank for con in a.items)]
    items += [rigid_with_lines(rng) for _ in range(40)]
    present = exactla.quotient_presentation

    def turned(lat):
        q = present(lat)
        return (oracles.mat_mul(oracles.random_unimodular(rng, len(q)), q)
                if lat.rank else q)

    with monkeypatch.context() as patch:
        patch.setattr(pc, "quotient_presentation", turned)
        rebuilt = [pc.constraint_set([(con.space.basis, con.point)
                                      for con in a.items], p.lattice_rank)
                   for p, a in items]
    turned_count = counted = 0
    for (p, a), b in zip(items, rebuilt):
        turned_count += sum(c.presentation != d.presentation
                            for c, d in zip(a.items, b.items))
        before = _outcomes(p, a)
        assert _outcomes(p, b) == before
        counted += sum(isinstance(x, int) for x in before)
    assert turned_count >= 100 and counted >= 30, (turned_count, counted)


# (count, curve file, char, the flag it fails, complexes it builds): the
# flags before codim_match read no complex, codim_match and the two after
# it read the (b, none) rank complex, and each regularity flag one more
FAILING_COUNTS = [
    (elliptic_count, "tests/golden/inputs/loop_elliptic.json", 0,
     "trivalent", 0),
    (correspondence_count, "tests/golden/inputs/missed_point.json", 0,
     "satisfies_A", 0),
    (correspondence_count, "fixtures/triangle_elliptic.json", 0,
     "codim_match", 1),
    (elliptic_count, "tests/golden/inputs/pendant_elliptic.json", 0,
     "no_zero_slope_bounded", 1),
    (correspondence_count, "fixtures/dblline.json", 2, "char_ok", 1),
    (correspondence_count, "tests/golden/inputs/heavy_vertex.json", 3,
     "regular", 2),
    (elliptic_count, "fixtures/triangle_elliptic.json", 3,
     "elliptic_regular", 3),
]


@pytest.mark.parametrize("count, path, char_p, flag, built", FAILING_COUNTS,
                         ids=[case[3] for case in FAILING_COUNTS])
def test_failing_count_builds_only_the_complexes_its_flags_read(
        monkeypatch, count, path, char_p, flag, built):
    p, a, _, _ = load(str(ROOT / path))
    computed = _count_calls(monkeypatch, ("_reduce",), complexes)
    ranks = _count_calls(monkeypatch, ("_rank",), complexes)
    with pytest.raises(HypothesisFailed) as err:
        count(p, a, char_p)
    assert err.value.flag == flag
    assert computed == {"_reduce": built}
    assert ranks == {"_rank": min(built, 1)}


@pytest.mark.parametrize("count, fixture, expected", FIXTURE_COUNTS)
def test_count_builds_no_dense_complex_matrix(monkeypatch, count, fixture,
                                              expected):
    # each complex is reduced as tree-reduced sparse rows; the dense full
    # matrix is assembled only when a report's matrix is read
    p, a, _, _ = load(str(FIXTURES / fixture))
    reports, dense = [], []
    reduce, matrix = complexes._reduce, complexes.ComplexReport.matrix

    def recorded(*args):
        reports.append(reduce(*args))
        return reports[-1]

    monkeypatch.setattr(complexes, "_reduce", recorded)
    monkeypatch.setattr(complexes.ComplexReport, "matrix", property(
        lambda rep: dense.append(rep) or matrix.fget(rep)))
    assert count(p, a, 0).count == expected
    assert len(reports) == 3 and dense == []
    shapes = [(len(m), len(m[0])) for m in (rep.matrix for rep in reports)]
    assert shapes == [(rep.n_rows, rep.domain_dim) for rep in reports]
    assert len(dense) == 3


@pytest.mark.parametrize("count, fixture, expected", FIXTURE_COUNTS)
def test_count_computes_each_fact_once(monkeypatch, count, fixture, expected):
    # per curve object: one violation list and one derivation of the edge
    # directions, covering every edge; per count: one simplicity check of
    # the constraint.  The fixtures are stable, so their stabilization is
    # the curve itself and the directions are derived once per count, on
    # that one object
    p, a, _, _ = load(str(FIXTURES / fixture))
    assert tropgraph.is_stable(p.curve)
    alive = []      # holds every object seen, so no id is reused meanwhile
    violations, derived, simple = Counter(), Counter(), Counter()
    covered = {}

    def counted(counter, fn, key):
        def wrapper(q, *args):
            alive.append(q)
            counter[key(q, *args)] += 1
            return fn(q, *args)
        return wrapper

    monkeypatch.setattr(pc, "_collect_violations",
                        counted(violations, pc._collect_violations, id))
    derive_slopes = pc._derive_slopes

    def derive(q):
        slopes = derive_slopes(q)
        covered[id(q)] = set(slopes.edges)
        return slopes

    monkeypatch.setattr(pc, "_derive_slopes", counted(derived, derive, id))
    monkeypatch.setattr(pc, "_simple",
                        counted(simple, pc._simple, lambda q, a: None))
    assert count(p, a, 0).count == expected
    assert violations and set(violations.values()) == {1}
    assert derived == {id(p): 1}
    assert covered == {id(p): {e.id for e in p.curve.edges}}
    assert simple == {None: 1}


@pytest.mark.parametrize("count, fixture, expected", FIXTURE_COUNTS)
def test_count_decides_constraint_satisfaction_once(monkeypatch, count,
                                                    fixture, expected):
    # the count decides it once, before its flags, and its constrained
    # complexes are reduced without deciding it again
    p, a, _, _ = load(str(FIXTURES / fixture))
    calls = []
    unsatisfied = pc._unsatisfied
    monkeypatch.setattr(pc, "_unsatisfied",
                        lambda q, b: calls.append(q) or unsatisfied(q, b))
    assert count(p, a, 0).count == expected
    assert calls == [p]


def _count(p, a):
    return correspondence_count(p, a, 0)


def _fan(p, a):
    return fanmodel.fan_model(fanmodel.gamma_tr(p))


def _stacky(p, a):
    tr = fanmodel.gamma_tr(p)
    return stacky.stacky_data(tr, fanmodel.ramification(tr, 1)["minimal_a"])


def _node_stack(p, a):
    return stacky.node_stack(fanmodel.gamma_tr(p))


def _half_edge_exponents(p, a):
    # dblline's edge e1 from v0 to v1 = (-1/4, 0) has direction (-1/2, 0)
    return fanmodel.reduction_exponents(
        pc.ParamTropicalCurve(p.curve, p.lattice_rank,
                              {**p.h, "v1": (Fraction(-1, 4), Fraction(0))}),
        "v0")


def _elliptic(p, a):
    return elliptic_count(p, a, 0)


_fan_model = fanmodel.fan_model
_sizes_over = complexes.sizes_over
_reduce = complexes._reduce


# cross-check -> (module, function to break, its broken stand-in, fixture,
# the call that must report it); the stand-in makes one route disagree with
# the others
BROKEN_ROUTES = {
    "count_routes": (counting, "stacky_multiplier", lambda p: 2,
                     "dblline.json", _count),
    # E1 gains a free rank, so E1 over k* is infinite
    "torsor_finite": (complexes, "sizes_over",
                      lambda r, e2, g: _sizes_over(r + 1, e2, g),
                      "dblline.json", _count),
    # the Tor route reads E2 of twice its order
    "elliptic_routes": (complexes, "sizes_over",
                        lambda r, e2, g: _sizes_over(
                            r, exactla.FGAbelianGroup(
                                0, (2 * e2.torsion_order,)), g),
                        "triangle_elliptic.json", _elliptic),
    # the (beta, A, j) complex reports E1 of rank 1, the others stay
    "elliptic_finite": (complexes, "_reduce",
                        lambda p, frame, spec: complexes.ComplexReport(
                            (rep := _reduce(p, frame, spec)).source,
                            rep.spec, rep.domain_dim, rep.n_rows,
                            rep.E1_rank + 1, rep.E2)
                        if spec.elliptic else _reduce(p, frame, spec),
                        "triangle_elliptic.json", _elliptic),
    "fan_axiom": (fanmodel, "gamma_tr", lambda p: p, "xconfig.json", _fan),
    # every facet ray read as outside its 2-cone's sublattice
    "stacky_compatibility": (stacky, "_ray_multiplier",
                             lambda rows, s: 0, "dblline.json", _stacky),
    # every stabilizer order read as that of dependent rows
    "stacky_index": (stacky, "_index", lambda rows: 0, "xconfig.json",
                     _stacky),
    # l(sigma) = 1 on every cone, below dblline's edge multiplicity 2
    "node_order": (fanmodel, "fan_model",
                   lambda p: (fm := _fan_model(p))._replace(
                       l_sigma=dict.fromkeys(fm.l_sigma, 1)),
                   "dblline.json", _node_stack),
    # l(rho) = 1 on every eta ray, below dblline's end multiplicity 2
    "marked_order": (fanmodel, "fan_model",
                     lambda p: (fm := _fan_model(p))._replace(
                         l_rho=dict.fromkeys(fm.l_rho, 1)),
                     "dblline.json", _node_stack),
    # the balancing gate lets a curve with a non-integral edge through
    "integral_exponents": (pc, "require_balanced", lambda p: None,
                           "dblline.json", _half_edge_exponents),
}


def broken_route_code(check):
    """Run the named cross-check's call with one of its routes broken, and
    return the code of the CrossCheckFailed raised (None when nothing is
    raised)."""
    module, name, broken, fixture, call = BROKEN_ROUTES[check]
    p, a, _, _ = load(str(FIXTURES / fixture))
    original = getattr(module, name)
    setattr(module, name, broken)
    try:
        call(p, a)
    except CrossCheckFailed as exc:
        return exc.code
    finally:
        setattr(module, name, original)
    return None


@pytest.mark.parametrize("check", sorted(BROKEN_ROUTES))
def test_cross_check_failure_raises(check):
    assert broken_route_code(check) == f"CrossCheckFailed:{check}"


@pytest.mark.parametrize("check", sorted(BROKEN_ROUTES))
def test_cross_check_failure_survives_optimize(check):
    # under -O every bare assert is gone, so only a raised error can report
    script = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "assert False, 'asserts must be stripped'; "
              "import test_counting; "
              "print(test_counting.broken_route_code(sys.argv[3]))")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(ROOT / "src"),
         str(ROOT / "tests"), check],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"CrossCheckFailed:{check}"


def test_every_cross_check_has_a_broken_route():
    # cone_generators is raised by _coords_in on parallel generators, which
    # test_fanmodel.py breaks directly
    codes = set()
    for path in (ROOT / "src" / "tropicorr").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "CrossCheckFailed"):
                codes.add(node.args[0].value)
    assert codes == set(BROKEN_ROUTES) | {"cone_generators"}
