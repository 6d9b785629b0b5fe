"""The package namespace: every name in the export table resolves to its
home module's object, the README session runs, and the library's records
keep their value semantics."""

import functools
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropicorr
from fixture_curves import doubled_line
from tropicorr import _EXPORTS, complexes, counting, exactla, fanmodel, stacky
from tropicorr import paramcurve as pc
from tropicorr import tropgraph

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.mark.parametrize("name", list(_EXPORTS))
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"tropicorr.{_EXPORTS[name]}")
    assert getattr(tropicorr, name) is getattr(home, name)


def test_dir_lists_every_export():
    assert set(_EXPORTS) <= set(dir(tropicorr))
    assert sorted(tropicorr.__all__) == sorted(_EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropicorr.no_such_name
    assert not hasattr(tropicorr, "_smith")
    assert not hasattr(tropicorr, "snf")


def test_readme_session_runs(capsys):
    text = README.read_text(encoding="utf-8")
    session = re.search(r"A quick session:\s*```python\n(.*?)```", text,
                        re.DOTALL).group(1)
    exec(compile(session, str(README), "exec"), {})
    assert capsys.readouterr().out == "1\n"


@functools.cache
def records():
    """One instance of every record class of the library, by class name,
    taken from the outputs of a doubled-line run where there are any."""
    p, a = doubled_line()
    rep = complexes.compute(p, complexes.ComplexSpec("beta", a))
    verdict = complexes.regularity(p, a, exactla.CoeffGroup.field(3))
    res = counting.correspondence_count(p, a, 0)
    tr = fanmodel.gamma_tr(p)
    out = [p, p.curve, p.curve.edges[0], pc.edge_geometry(p, "e1"), a,
           a.items[0], a.items[0].space, pc.check_constraint(p, a), rep.spec,
           rep, rep.E2, verdict, verdict.obstruction,
           exactla.CoeffGroup.units(3), res, res.hypotheses, tr, tr.fan,
           stacky.stacky_data(tr, fanmodel.ramification(tr, 1)["minimal_a"]),
           stacky.node_stack(tr),
           tropgraph.AttachTree("v0", tropgraph.curve(["r"]), "r")]
    cases = {type(x).__name__: x for x in out}
    # the one subdivision step, on a bounded and on an unbounded edge
    cases["SubdivideBounded"] = tropgraph.Subdivide("e1", (Fraction(1, 4),))
    cases["SubdivideUnbounded"] = tropgraph.Subdivide("f1", (Fraction(1),))
    return cases


RECORDS = ["ParamTropicalCurve", "TropicalCurve", "Edge", "EdgeGeometry",
           "AffineConstraintSet", "AffineConstraint", "Sublattice",
           "ConstraintReport", "ComplexSpec", "ComplexReport",
           "FGAbelianGroup", "RegularityVerdict", "GroupSize", "CoeffGroup",
           "CountResult", "CountHypotheses", "RefinedCurve", "FanModel",
           "StackySigma", "NodeStackData", "SubdivideBounded",
           "SubdivideUnbounded", "AttachTree"]
# hold dicts or a mapping proxy, so cannot be hashed
UNHASHABLE = {"ParamTropicalCurve", "RefinedCurve", "FanModel", "StackySigma",
              "NodeStackData"}

# class -> (constructor call, its ValueError message): checks that raise,
# not asserts, so they hold under python -O too
VALUE_ERRORS = {
    "FGAbelianGroup": [
        ("exactla.FGAbelianGroup(0, (2, 3))",
         "torsion coefficients must form a chain"),
        ("exactla.FGAbelianGroup(0, (1,))", "torsion coefficients must be >= 2")],
    "CoeffGroup": [
        ("exactla.CoeffGroup('R')", "unknown coefficient group kind 'R'"),
        ("exactla.CoeffGroup('field', 4)", "characteristic must be zero or prime")],
    "Sublattice": [
        ("exactla.Sublattice(2, ((1, 0), (2, 0)))",
         "basis rows must be linearly independent")],
    "ComplexSpec": [
        ("complexes.ComplexSpec('gamma')", "variant must be 'b' or 'beta'")],
    "AffineConstraint": [
        ("pc.AffineConstraint(exactla.Sublattice(2, ((1, 0),)), (0, 0))",
         "constraint sublattice must have corank >= 2"),
        ("pc.AffineConstraint(exactla.Sublattice(3, ((2, 0, 0),)), (0, 0, 0))",
         "constraint sublattice must be saturated")],
}
# the ValueError message each call raises, or None
REPORT_VALUE_ERRORS = """
import sys
from tropicorr import complexes, exactla
from tropicorr import paramcurve as pc
for call in sys.argv[1:]:
    try:
        eval(call)
        print(None)
    except ValueError as exc:
        print(exc)
"""


def optimized_value_errors(calls):
    """What REPORT_VALUE_ERRORS prints for ``calls`` under ``python -O``."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", REPORT_VALUE_ERRORS, *calls],
        capture_output=True, text=True, cwd=ROOT, timeout=30,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_records_cover_every_record_class():
    # every public class with fields: a NamedTuple or a Record
    found = {name for mod in (exactla, tropgraph, pc, complexes, fanmodel,
                              stacky, counting)
             for name, cls in vars(mod).items()
             if isinstance(cls, type) and cls.__module__ == mod.__name__
             and hasattr(cls, "_fields") and not name.startswith("_")
             and cls is not exactla.Record}
    cases = records()
    assert found == {type(x).__name__ for x in cases.values()}
    assert set(RECORDS) == set(cases)


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_value_semantics(name):
    x = records()[name]
    field = x._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(x, field))
    fields = [getattr(x, f) for f in x._fields]
    if name == "ComplexReport":
        # the source curve is not a field: a report without one is equal
        fields.insert(0, None)
    if name == "RefinedCurve":
        # made from the curve it refined, with its fan; equal only by class
        fields = [pc.ParamTropicalCurve(*fields), x.fan]
        assert fields[0] != x and x != fields[0]
    copy = type(x)(*fields)
    assert copy == x and not copy != x
    if name not in UNHASHABLE:
        assert hash(copy) == hash(x)
    if name == "TropicalCurve":
        other = type(x)(x.finite_vertices, x.infinite_vertices, x.edges[1:])
        assert other != x and len({x, copy, other}) == 2
    if name == "ParamTropicalCurve":
        assert type(x)(x.curve, x.lattice_rank + 1, x.h) != x
    if name in VALUE_ERRORS:
        calls, messages = zip(*VALUE_ERRORS[name])
        for call, message in VALUE_ERRORS[name]:
            with pytest.raises(ValueError) as err:
                eval(call, {"exactla": exactla, "complexes": complexes, "pc": pc})
            assert str(err.value) == message
        assert optimized_value_errors(calls) == list(messages)
