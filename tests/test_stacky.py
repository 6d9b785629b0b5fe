import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import corpus
from fixture_curves import (
    doubled_line,
    line_through_two_points,
    triangle_elliptic,
    x_configuration,
)
from oracles import (
    all_pairs_compatible,
    lattice_index,
    lattice_intersect_span,
    saturation,
)
from tropicorr import exactla, stacky
from tropicorr.cli import run
from tropicorr.curvefile import load
from tropicorr.errors import CrossCheckFailed, NotReduced
from tropicorr.exactla import Sublattice, primitive_vector
from tropicorr.fanmodel import fan_model, gamma_tr, ramification
from tropicorr.paramcurve import is_dm, param_curve
from tropicorr.stacky import (
    _verify_compatibility,
    node_stack,
    stacky_data,
    stacky_to_json,
)
from tropicorr.tropgraph import curve

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_trivial_stacky_data():
    p, _ = line_through_two_points()
    st = stacky_data(gamma_tr(p), 1)
    assert set(st.orders()) == {1}


def test_eta_ray_order_two():
    dbl, _ = doubled_line()
    tr = gamma_tr(dbl)
    st = stacky_data(tr, 2)  # lengths 1/2 need ramification 2
    # the eta rays carry multiplicity 2, hence order-2 stabilizers
    eta_orders = [st.stabilizer_order[c] for c in st.fan.cones
                  if len(c) == 1 and c[0] in set(st.fan.eta_rays)]
    assert set(eta_orders) == {2}


def test_doubled_line_cone_order():
    # |e| = 1 with displacement (2,2): l(sigma) = 2 and the cone stabilizer
    # has order 2 = index of <((0,0),1),((2,2),0)> in the cone lattice
    c = curve(["v", "w"], ["a", "b"],
              [("e", ("v", "w"), 1),
               ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)])
    p = param_curve(c, 2, {"v": (0, 0), "w": (2, 2), "a": (-2, -2), "b": (2, 2)})
    st = stacky_data(gamma_tr(p), 1)
    two_cone_orders = sorted(st.stabilizer_order[c] for c in st.fan.two_cones())
    # bounded cone has order 2; the two unbounded cones inherit the eta order
    assert 2 in two_cone_orders
    bounded_lat = next(st.assignment[c] for c in st.fan.two_cones()
                       if all(g[-1] == 1 for g in c))
    assert bounded_lat == Sublattice(3, ((0, 0, 1), (2, 2, 0)))


def test_not_reduced():
    dbl, _ = doubled_line()
    with pytest.raises(NotReduced):
        stacky_data(gamma_tr(dbl), 1)


def test_is_dm_examples():
    p, _ = line_through_two_points()
    assert is_dm(p, 0) and is_dm(p, 2) and is_dm(p, 5)
    dbl, _ = doubled_line()
    assert not is_dm(dbl, 2)
    assert is_dm(dbl, 3)


def test_is_dm_matches_stabilizer_orders():
    for p in (line_through_two_points()[0], doubled_line()[0],
              triangle_elliptic()[0], x_configuration()):
        tr = gamma_tr(p)
        a = ramification(tr, 1)["minimal_a"]
        st = stacky_data(tr, a)
        for char_p in (2, 3, 5, 7):
            expect = all(o % char_p for o in st.orders())
            assert is_dm(p, char_p) == expect, (char_p, st.orders())


def test_node_stack():
    p, _ = line_through_two_points()
    ns = node_stack(gamma_tr(p))
    assert set(ns.node_orders.values()) <= {1}
    assert set(ns.marked_orders.values()) <= {1}
    # two parallel edges of multiplicities 2 and 3 share one cone:
    # lcm 6 gives node orders 3 and 2
    c = curve(["v", "w"], ["a", "b"],
              [("e2", ("v", "w"), F(1, 2)), ("e3", ("v", "w"), F(1, 3)),
               ("r1", ("v", "a"), None), ("r2", ("w", "b"), None)])
    p2 = param_curve(c, 2, {"v": (0, 0), "w": (1, 1),
                            "a": (-5, -5), "b": (5, 5)})
    ns = node_stack(gamma_tr(p2))
    assert sorted(ns.node_orders.values()) == [2, 3]
    assert sorted(ns.marked_orders.values()) == [1, 1]  # l(v) = 5 = l(rho)


def test_stacky_json():
    p, _ = doubled_line()
    st = stacky_data(gamma_tr(p), 2)
    data = stacky_to_json(st)
    assert data["a"] == 2
    assert set(data["assignment"]) == set(data["stabilizer_orders"])


def face_local_compatible(st):
    try:
        _verify_compatibility(st)
    except CrossCheckFailed as exc:
        assert exc.code == "CrossCheckFailed:stacky_compatibility"
        return False
    return True


def corrupted(st):
    """Copies of st with one cone's basis rows changed: one row scaled by
    2 or 3."""
    for c, rows in st.bases.items():
        for i in range(len(rows)):
            for k in (2, 3):
                bad = list(rows)
                bad[i] = tuple(k * x for x in bad[i])
                yield st._replace(bases={**st.bases, c: tuple(bad)})


def _stacky_of(p):
    tr = gamma_tr(p)
    return stacky_data(tr, ramification(tr, 1)["minimal_a"])


def test_face_local_compatibility_matches_all_pairs():
    verdicts = []
    for p, _ in corpus(8086, 12, constrained=False):
        st = _stacky_of(p)
        assert all_pairs_compatible(st) and face_local_compatible(st)
        for bad in corrupted(st):
            verdict = face_local_compatible(bad)
            assert verdict == all_pairs_compatible(bad)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_compatibility_restricts_twice_per_two_cone(monkeypatch):
    calls = []
    multiplier = stacky._ray_multiplier
    monkeypatch.setattr(stacky, "_ray_multiplier",
                        lambda *args: calls.append(1) or multiplier(*args))
    for p in (doubled_line()[0], triangle_elliptic()[0], x_configuration()):
        st = _stacky_of(p)
        calls.clear()
        _verify_compatibility(st)
        assert len(calls) == 2 * len(st.fan.two_cones()) > 0


def test_ray_restriction_matches_the_kernel_route():
    # lattices of rank 2 in Z^3 and Z^4, the 2-cones' rows, against
    # primitive vectors in and outside their span: m s spans the kernel
    # route's restriction
    rng = random.Random(2718)
    outside = inside = 0
    for _ in range(300):
        n = rng.choice((3, 4))
        rows = []
        while len(rows) < 2:
            row = tuple(rng.randint(-4, 4) for _ in range(n))
            if any(row):
                rows.append(row)
        try:
            lat = Sublattice(n, tuple(rows))
        except ValueError:          # dependent rows
            continue
        coeffs = [rng.randint(-3, 3) for _ in lat.basis]
        combo = tuple(sum(c * row[k] for c, row in zip(coeffs, lat.basis))
                      for k in range(n))
        for s in (primitive_vector(combo),
                  primitive_vector(tuple(rng.randint(-3, 3) for _ in range(n)))):
            if s is None:
                continue
            want = lattice_intersect_span(lat, Sublattice(n, (s,)))
            m = stacky._ray_multiplier(tuple(rows), s)
            got = Sublattice(n, (tuple(m * x for x in s),))
            assert got == want, (lat, s)
            inside += want.rank
            outside += 1 - want.rank
    assert inside > 100 and outside > 100


def test_compatibility_failure_names_cone_ray_and_lattices():
    st = _stacky_of(doubled_line()[0])
    c = st.fan.two_cones()[0]
    ray = (c[0],)
    lat = st.assignment[ray]
    doubled = tuple(tuple(2 * x for x in row) for row in st.bases[ray])
    with pytest.raises(CrossCheckFailed) as info:
        _verify_compatibility(st._replace(bases={**st.bases, ray: doubled}))
    message = str(info.value)
    for part in (f"cone{c}", ray[0], lat.basis,
                 Sublattice(lat.ambient_rank, doubled).basis):
        assert str(part) in message


def test_dependent_rows_fail_the_index_check(monkeypatch, capsys):
    # a 2-cone whose rows came out dependent fails a named check that names
    # the cone and its rows, in the library and through the CLI
    index = stacky._index
    monkeypatch.setattr(stacky, "_index",
                        lambda rows: 0 if len(rows) == 2 else index(rows))
    fixture = str(FIXTURES / "xconfig.json")
    tr = gamma_tr(load(fixture)[0])
    with pytest.raises(CrossCheckFailed) as info:
        stacky_data(tr, ramification(tr, 1)["minimal_a"])
    assert info.value.code == "CrossCheckFailed:stacky_index"
    c = fan_model(tr).two_cones()[0]
    assert str(info.value).startswith("the rows ((")
    assert str(info.value).endswith(f" of cone{c} are linearly dependent")
    assert run(["stacky", fixture, "--json"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"code": "CrossCheckFailed:stacky_index",
                     "message": str(info.value)}


def test_orders_match_lattice_index_in_the_cone_lattice():
    # the order read off the invariant factors of N'_sigma against the
    # index of N'_sigma in N_sigma, the saturated span of the scaled cone
    curves = [p for p, _ in corpus(8086, 12, constrained=False)]
    curves += [doubled_line()[0], triangle_elliptic()[0], x_configuration()]
    orders = []
    for p in curves:
        st = _stacky_of(p)
        n1 = st.fan.ambient_rank
        lattices = st.assignment
        for c, order in st.stabilizer_order.items():
            sc = st.scaled_of[c]
            outer = (saturation(Sublattice(n1, sc)) if c
                     else Sublattice(n1, ()))
            assert order == lattice_index(outer, lattices[c]), c
            orders.append(order)
    assert max(orders) > 1


def test_stacky_data_needs_no_saturation_or_index(monkeypatch):
    # saturation, lattice_index and kernel_basis are test oracles the
    # library cannot reach; with the compatibility check included, no
    # Hermite form is needed either
    curves = [doubled_line()[0], triangle_elliptic()[0], x_configuration()]
    calls = []
    hnf = exactla.hnf
    for mod in list(sys.modules.values()):       # wherever the name is bound
        if (getattr(mod, "__name__", "").startswith("tropicorr")
                and getattr(mod, "hnf", None) is hnf):
            monkeypatch.setattr(mod, "hnf",
                                lambda *args: calls.append("hnf") or hnf(*args))
    scaled = stacky._scaled_gen
    monkeypatch.setattr(stacky, "_scaled_gen",
                        lambda *args: calls.append("scale") or scaled(*args))
    for p in curves:
        st = _stacky_of(p)
        # one scaled generator per ray of the fan, nothing else called
        assert calls == ["scale"] * len(st.fan.rays())
        calls.clear()
