import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from make_golden import GOLDEN, cases
from tropicorr.cli import COMMANDS, run
from tropicorr.curvefile import curve_to_json, parse_curve

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run_json(capsys, *argv):
    code = run(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_line2pts(capsys):
    code, rep = run_json(capsys, "count", str(FIXTURES / "line2pts.json"),
                         "--char", "0")
    assert code == 0
    assert rep["result"]["count"] == "1"
    assert rep["result"]["factorization"] == ["1", "1"]
    assert len(rep["result"]["cross_checks"]) == 3


def test_count_dblline_chars(capsys):
    code, rep = run_json(capsys, "count", str(FIXTURES / "dblline.json"))
    assert code == 0 and rep["result"]["count"] == "4"
    code, rep = run_json(capsys, "count", str(FIXTURES / "dblline.json"),
                         "--char", "3")
    assert code == 0 and rep["result"]["count"] == "4"
    code, err = run_json(capsys, "count", str(FIXTURES / "dblline.json"),
                         "--char", "2")
    assert code == 1
    assert err["error"]["code"] == "HypothesisFailed:char_ok"


def test_count_elliptic(capsys):
    code, rep = run_json(capsys, "count-elliptic",
                         str(FIXTURES / "triangle_elliptic.json"))
    assert code == 0 and rep["result"]["count"] == "9"


def test_validate_bad_curve(tmp_path, capsys):
    data = json.loads((FIXTURES / "line2pts.json").read_text())
    # give an infinite vertex a second edge
    data["edges"].append({"id": "extra", "ends": ["v0", "u1"], "length": "inf"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, rep = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert any("(p2)" in v for v in rep["result"]["violations"])


def test_validate_good(capsys):
    code, rep = run_json(capsys, "validate", str(FIXTURES / "xconfig.json"))
    assert code == 0 and rep["result"]["valid"]


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    assert run(["info", str(f), "--json"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "ParseError"


def test_unknown_field_rejected(tmp_path, capsys):
    data = json.loads((FIXTURES / "line2pts.json").read_text())
    data["color"] = "blue"
    f = tmp_path / "extra.json"
    f.write_text(json.dumps(data))
    assert run(["info", str(f), "--json"]) == 2


def test_missing_required_field_exit_2(tmp_path, capsys):
    fixture = json.loads((FIXTURES / "line2pts.json").read_text())
    cases = [("finite_vertices", "id"), ("finite_vertices", "h"),
             ("infinite_vertices", "id"), ("edges", "id"),
             ("edges", "ends"), ("edges", "length")]
    for section, field in cases:
        data = json.loads(json.dumps(fixture))
        del data[section][0][field]
        f = tmp_path / f"no-{section}-{field}.json"
        f.write_text(json.dumps(data))
        assert run(["info", str(f), "--json"]) == 2, (section, field)
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "ParseError"
        assert repr(field) in err["error"]["message"]


def test_bad_char_exit_2(tmp_path, capsys):
    line2pts = str(FIXTURES / "line2pts.json")
    for char in ("4", "1", "-3"):
        assert run(["count", line2pts, "--char", char, "--json"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "ParseError"
        assert "--char" in err["error"]["message"]
    data = json.loads((FIXTURES / "line2pts.json").read_text())
    data["char"] = 4
    f = tmp_path / "char4.json"
    f.write_text(json.dumps(data))
    for cmd in ("count", "info"):
        assert run([cmd, str(f), "--json"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "ParseError"
    # a valid --char does not rescue a bad char in the file
    assert run(["count", str(f), "--char", "0", "--json"]) == 2
    capsys.readouterr()


def python_process(*args, timeout=30, hashseed=None, options=()):
    """A fresh interpreter run from the repository root with interpreter
    ``options`` and then ``args``, killed (and the test failed) when it
    outlives the timeout.  Stdout and stderr are bytes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run([sys.executable, *options, *args],
                          capture_output=True, env=env, cwd=ROOT,
                          timeout=timeout)


def cli_process(*argv, **kwargs):
    """``tropicorr <argv>`` in a fresh process (see python_process)."""
    return python_process("-m", "tropicorr.cli", *argv, **kwargs)


def test_huge_char_terminates():
    line2pts = str(FIXTURES / "line2pts.json")
    mersenne = 2**61 - 1
    out = cli_process("count", line2pts, "--char", str(mersenne), "--json")
    assert out.returncode == 0, out.stdout
    assert json.loads(out.stdout)["result"]["count"] == "1"
    # beyond the proven range of the primality test: refused, not guessed
    out = cli_process("count", line2pts, "--char",
                      str((2**31 - 1) * mersenne), "--json")
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["code"] == "ParseError"


def test_info_fields(capsys):
    code, rep = run_json(capsys, "info", str(FIXTURES / "line2pts.json"))
    assert code == 0
    res = rep["result"]
    assert res["genus"] == 0 and res["rank"] == 4
    assert res["constraint"]["codim"] == 4
    code, rep = run_json(capsys, "info", str(FIXTURES / "triangle_elliptic.json"))
    assert rep["result"]["tropical_j"] == "3"


def test_stabilize_tr_roundtrip(tmp_path, capsys):
    for cmd in ("stabilize", "tr"):
        out = tmp_path / f"{cmd}.json"
        code = run([cmd, str(FIXTURES / "xconfig.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        reparsed, cons, char = parse_curve(report["result"]["curve"])
        code2 = None
        curve2 = tmp_path / f"{cmd}-curve.json"
        curve2.write_text(json.dumps(report["result"]["curve"]))
        assert run(["validate", str(curve2), "--json"]) == 0
        capsys.readouterr()


def test_fan_and_stacky_commands(capsys):
    code, rep = run_json(capsys, "fan", str(FIXTURES / "xconfig.json"))
    assert code == 0
    assert len(rep["result"]["fan"]["rays"]) >= 5
    code, rep = run_json(capsys, "stacky", str(FIXTURES / "dblline.json"),
                         "--char", "3")
    assert code == 0
    assert rep["result"]["dm"] is True
    assert rep["result"]["stacky"]["a"] == 2
    code, rep = run_json(capsys, "stacky", str(FIXTURES / "dblline.json"),
                         "--char", "2")
    assert rep["result"]["dm"] is False


def test_complex_and_regular_commands(capsys):
    code, rep = run_json(capsys, "complex", str(FIXTURES / "dblline.json"),
                         "--constrained", "--variant", "beta")
    assert code == 0
    assert rep["result"]["E2"] == {"rank": 0, "torsion": [2, 2]}
    code, rep = run_json(capsys, "regular", str(FIXTURES / "dblline.json"),
                         "--constrained", "--char", "2", "--group", "Fp")
    assert code == 0 and rep["result"]["g_regular"] is False
    code, rep = run_json(capsys, "regular",
                         str(FIXTURES / "triangle_elliptic.json"),
                         "--constrained", "--elliptic", "--group", "Q")
    assert rep["result"]["elliptically_regular"] is True
    # over Z the obstruction group Z/9 itself is nonzero
    code, rep = run_json(capsys, "regular",
                         str(FIXTURES / "triangle_elliptic.json"),
                         "--constrained", "--elliptic", "--group", "Z")
    assert rep["result"]["elliptically_regular"] is False
    assert rep["result"]["obstruction"]["finite_order"] == 9


def test_reduction_data(capsys):
    code, rep = run_json(capsys, "reduction-data", str(FIXTURES / "dblline.json"))
    assert code == 0
    table = rep["result"]["exponents"]
    assert sorted(vec for _, vec in table["v0"]) == [[-2, 0], [0, -2], [2, 2]]
    for v, rows in table.items():
        total = [0, 0]
        for _, vec in rows:
            total = [a + b for a, b in zip(total, vec)]
        assert total == [0, 0]


# the subcommands whose JSON is built from dicts or sets
SET_BUILT = ("fan", "stacky", "tr", "stabilize", "reduction-data")


def test_json_deterministic():
    # string hashing, and so set order, differs between the two processes:
    # every subcommand on one fixture, those built from dicts or sets on
    # every fixture
    runs = [(command, "triangle_elliptic.json") for command in COMMANDS]
    runs += [(command, f.name) for f in sorted(FIXTURES.glob("*.json"))
             if f.name != "triangle_elliptic.json" for command in SET_BUILT]
    for command, fixture in runs:
        argv = (command, f"fixtures/{fixture}", "--json")
        first, second = (cli_process(*argv, hashseed=seed) for seed in (1, 2))
        assert first.stdout == second.stdout and first.stdout, argv
        assert first.returncode == second.returncode, argv


# one case per subcommand, each replayed in a process of its own: in this
# process earlier tests have loaded every layer, so a subcommand that forgot
# to import one would still pass test_golden.py
GOLDEN_ARGV = dict(cases())


@pytest.mark.parametrize("name", [f"xconfig.{c}.file" for c in COMMANDS])
def test_golden_replays_in_a_fresh_process(name):
    out = cli_process(*GOLDEN_ARGV[name], hashseed=12345)
    assert out.stdout == (GOLDEN / f"{name}.out").read_bytes()
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert out.returncode == codes[name]


def loaded_modules(out):
    """The modules that a process run with -v loaded, read off the
    "import 'name'" lines on its stderr."""
    return {line.split(b"'")[1].decode() for line in out.stderr.splitlines()
            if line.startswith(b"import '")}


def loaded_layers(out):
    """The tropicorr submodules among ``loaded_modules``."""
    return {name.split(".", 1)[1] for name in loaded_modules(out)
            if name.startswith("tropicorr.")}


# standard modules no library import may load: every CLI invocation is a
# fresh process, and dataclasses (which imports inspect, ast, dis and
# tokenize) plus the methods it generates with exec cost a sixth of one
STARTUP_HEAVY = {"dataclasses", "inspect"}


def test_import_tropicorr_loads_no_layer():
    out = python_process("-c", "import tropicorr", options=("-v",))
    assert out.returncode == 0 and loaded_layers(out) == set()
    # a package-level name loads its home module, and only that
    out = python_process("-c", "import tropicorr; tropicorr.cokernel_group",
                         options=("-v",))
    assert out.returncode == 0 and loaded_layers(out) == {"exactla"}
    assert not loaded_modules(out) & STARTUP_HEAVY


# the layers each subcommand imports: those it runs, and no other
READ = {"curvefile", "errors", "exactla", "paramcurve", "tropgraph"}
LOADED_LAYERS = {
    "validate": READ,
    "info": READ | {"complexes"},
    "stabilize": READ,
    "tr": READ | {"fanmodel"},
    "fan": READ | {"fanmodel"},
    "complex": READ | {"complexes"},
    "regular": READ | {"complexes"},
    "count": READ | {"complexes", "counting"},
    "count-elliptic": READ | {"complexes", "counting"},
    "stacky": READ | {"fanmodel", "stacky"},
    "reduction-data": READ | {"fanmodel"},
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_imports_only_its_layers(command):
    out = cli_process(command, "fixtures/dblline.json", "--json",
                      options=("-v",))
    # dblline has genus zero, so the elliptic count refuses it after dispatch
    assert out.returncode == (command == "count-elliptic"), out.stdout
    modules, layers = loaded_modules(out), loaded_layers(out)
    assert not modules & STARTUP_HEAVY, modules & STARTUP_HEAVY
    assert layers == LOADED_LAYERS[command], layers


def test_human_output(capsys):
    code = run(["info", str(FIXTURES / "line2pts.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "genus: 0" in out
    assert "rank: 4" in out


def test_corpus_roundtrip_through_cli(tmp_path, capsys):
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from corpus import corpus

    for i, (p, a) in enumerate(corpus(160217, 10)):
        f = tmp_path / f"c{i}.json"
        f.write_text(json.dumps(curve_to_json(p, a)))
        for argv in (["validate", str(f)],
                     ["info", str(f)],
                     ["tr", str(f)],
                     ["fan", str(f)],
                     ["stacky", str(f)],
                     ["reduction-data", str(f)],
                     ["complex", str(f), "--constrained", "--group", "Fp",
                      "--char", "5"]):
            code = run(argv + ["--json"])
            out = capsys.readouterr().out
            assert code == 0, (argv, out)
            json.loads(out)
        # reloading the refinement output parses and validates cleanly
        code = run(["tr", str(f), "--json"])
        rep = json.loads(capsys.readouterr().out)
        reparsed, cons, char = parse_curve(rep["result"]["curve"])
        assert run(["validate", str(f)]) == 0
        capsys.readouterr()


def _edited_fixture(tmp_path, edit, name="line2pts.json"):
    data = json.loads((FIXTURES / name).read_text())
    edit(data)
    f = tmp_path / "edited.json"
    f.write_text(json.dumps(data))
    return str(f)


def _set(path, value):
    def edit(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return edit


def test_unknown_endpoint_exits_1_with_json(tmp_path, capsys):
    f = _edited_fixture(tmp_path, _set(("edges", 0, "ends"), ["v0", "zz"]))
    code, rep = run_json(capsys, "validate", f)
    assert code == 1
    assert "edge e1 has unknown endpoint" in rep["result"]["violations"]
    for cmd in ("info", "count"):
        code, err = run_json(capsys, cmd, f)
        assert code == 1 and "unknown endpoint" in err["error"]["message"]


def _null_v0(data):
    """v0's id and every edge end naming it set to null."""
    data["finite_vertices"][0]["id"] = None
    for e in data["edges"]:
        e["ends"] = [None if u == "v0" else u for u in e["ends"]]


# an id or an edge end that is not a JSON string is refused, not read as
# the string of its Python value ("None", "True", "['v0']")
NOT_STRINGS = {
    "null-vertex-count": (_null_v0, "count",
                          "finite vertex id: expected a string, got None"),
    "null-vertex-stabilize": (_null_v0, "stabilize",
                              "finite vertex id: expected a string, got None"),
    "true-vertex": (_set(("infinite_vertices", 0, "id"), True), "info",
                    "infinite vertex id: expected a string, got True"),
    "int-edge-id": (_set(("edges", 0, "id"), 7), "info",
                    "edge id: expected a string, got 7"),
    "list-edge-end": (_set(("edges", 0, "ends"), [["v0"], "v1"]), "count",
                      "edge e1 ends: expected a string, got ['v0']"),
}


@pytest.mark.parametrize("case", sorted(NOT_STRINGS))
def test_non_string_id_exit_2(tmp_path, capsys, case):
    edit, command, message = NOT_STRINGS[case]
    code, err = run_json(capsys, command, _edited_fixture(tmp_path, edit))
    assert code == 2
    assert err["error"] == {"code": "ParseError", "message": message}


# a field that is not an array, or an array-like string, must be refused
NOT_ARRAYS = {
    "finite_vertices": (("finite_vertices",), {"id": "v0"}),
    "infinite_vertices": (("infinite_vertices",), 3),
    "edges": (("edges",), "e1"),
    "constraints": (("constraints",), {}),
    "h": (("finite_vertices", 0, "h"), 0),
    "h-string": (("finite_vertices", 0, "h"), "00"),
    "infinite-h": (("infinite_vertices", 0, "h"), None),
    "ends": (("edges", 0, "ends"), "ab"),
    "L_basis": (("constraints", 0, "L_basis"), 1),
    "L_basis-row": (("constraints", 0, "L_basis"), [5]),
    "L_basis-row-length": (("constraints", 0, "L_basis"), [[1]]),
    "point": (("constraints", 0, "point"), "-1"),
}


@pytest.mark.parametrize("case", sorted(NOT_ARRAYS))
def test_non_array_field_exit_2(tmp_path, capsys, case):
    path, value = NOT_ARRAYS[case]
    f = _edited_fixture(tmp_path, _set(path, value))
    code, err = run_json(capsys, "info", f)
    assert code == 2 and err["error"]["code"] == "ParseError", err


LINE2PTS = str(FIXTURES / "line2pts.json")
BAD_ARGV = {
    "no-command": [],
    "unknown-command": ["bogus", LINE2PTS],
    "missing-file": ["count"],
    "char-not-int": ["count", LINE2PTS, "--char", "abc"],
    "unknown-group": ["complex", LINE2PTS, "--group", "foo"],
    "unknown-flag": ["count", LINE2PTS, "--frobnicate"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_arguments_exit_2_with_json(capsys, case):
    assert run(BAD_ARGV[case] + ["--json"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)
    assert err["error"]["code"] == "ParseError" and err["error"]["message"]


def test_plain_elliptic_multiplicity_exit_1_with_code(capsys):
    # a condition on the curve, not on the arguments: a domain error
    code, err = run_json(capsys, "complex", str(FIXTURES / "dblline.json"),
                         "--elliptic", "--variant", "b")
    assert code == 1 and err["error"]["code"] == "NonUnitMultiplicity", err
    assert "edge e1 has l(e) = 2" in err["error"]["message"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["count", "-h"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tropicorr ")
    assert all(name in out for name in COMMANDS)


@pytest.mark.parametrize("command, flags", [
    ("count", ["--char", "3", "--json"]),
    ("complex", ["--constrained", "--group", "Fp", "--char", "5"]),
    ("regular", ["--elliptic"]),
])
def test_flags_may_go_anywhere(capsys, command, flags):
    dblline = str(FIXTURES / "dblline.json")
    outcomes = []
    for argv in ([*flags, command, dblline],
                 [command, *flags, dblline],
                 [command, dblline, *flags]):
        code = run(argv)
        outcomes.append((code, capsys.readouterr().out))
    assert outcomes[0][1] and outcomes.count(outcomes[0]) == 3, outcomes


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
def test_unwritable_out_exit_2(tmp_path, capsys, target):
    path = str(tmp_path / target)
    assert run(["info", LINE2PTS, "--out", path]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "ParseError"
    assert path in err["error"]["message"]


# the default text output, pinned as it is: keys joined by dots, a list of
# lists as JSON, an empty mapping as {}, any other value as Python prints it
TEXT_OUTPUT = {
    ("validate", "xconfig.json"): """\
valid: True
violations: []
""",
    ("fan", "xconfig.json"): """\
fan.rays: [[-1, -1, 0], [-1, 1, 0], [0, 0, 1], [0, 2, 1], [1, -2, 0], \
[1, 1, 1], [1, 2, 0], [2, 0, 1], [2, 2, 1]]
fan.eta: [True, True, False, False, True, False, True, False, False]
fan.cones: [[0, 2], [1, 3], [2, 5], [3, 5], [4, 7], [5, 7], [5, 8], [6, 8], \
[7, 8]]
fan.ray_vertices.0: ['q1']
fan.ray_vertices.1: ['q4']
fan.ray_vertices.2: ['p1']
fan.ray_vertices.3: ['p4']
fan.ray_vertices.4: ['q3']
fan.ray_vertices.5: ['E1.v1', 'E2.v1']
fan.ray_vertices.6: ['q2']
fan.ray_vertices.7: ['p3']
fan.ray_vertices.8: ['p2']
fan.cone_edges.0-2: ['r1']
fan.cone_edges.1-3: ['r4']
fan.cone_edges.2-5: ['E1.p0']
fan.cone_edges.3-5: ['E2.p1']
fan.cone_edges.4-7: ['r3']
fan.cone_edges.5-7: ['E2.p0']
fan.cone_edges.5-8: ['E1.p1']
fan.cone_edges.6-8: ['r2']
fan.cone_edges.7-8: ['EM']
fan.cone_multiplicities.0-2: 1
fan.cone_multiplicities.1-3: 1
fan.cone_multiplicities.2-5: 1
fan.cone_multiplicities.3-5: 1
fan.cone_multiplicities.4-7: 1
fan.cone_multiplicities.5-7: 1
fan.cone_multiplicities.5-8: 1
fan.cone_multiplicities.6-8: 1
fan.cone_multiplicities.7-8: 1
fan.ray_multiplicities.0: 1
fan.ray_multiplicities.1: 1
fan.ray_multiplicities.4: 1
fan.ray_multiplicities.6: 1
""",
    ("count", "line2pts.json"): """\
count: 1
factorization: ['1', '1']
hypotheses.trivalent: True
hypotheses.satisfies_A: True
hypotheses.codim_match: True
hypotheses.no_zero_slope_bounded: True
hypotheses.char_ok: True
hypotheses.regular: True
hypotheses.elliptic_regular: None
cross_checks: ['|E1_kstar| * prod l(e) = 1 * 1 = 1', \
'|E2(Gamma,A)| * prod l(e) = 1 * 1', '|CE2(Gamma,A)| by direct SNF = 1']
""",
}


@pytest.mark.parametrize("command, name", sorted(TEXT_OUTPUT))
def test_text_output(capsys, command, name):
    assert run([command, str(FIXTURES / name)]) == 0
    assert capsys.readouterr().out == TEXT_OUTPUT[command, name]


TRIPOD = {
    "schema": "tropicorr/1", "lattice_rank": 2, "char": 0,
    "finite_vertices": [{"id": "v", "h": ["0", "0"]}],
    "infinite_vertices": [{"id": "a", "h": [1, 0]}, {"id": "b", "h": [0, 1]},
                          {"id": "c", "h": [-1, -1]}],
    "edges": [{"id": f"e{w}", "ends": ["v", w], "length": "inf"}
              for w in "abc"],
    "constraints": []}


def test_text_output_keeps_an_empty_mapping(tmp_path, capsys):
    # a tripod has no node, so node_orders is {} in the JSON report and its
    # line must not vanish from the text one
    f = tmp_path / "tripod.json"
    f.write_text(json.dumps(TRIPOD))
    code, rep = run_json(capsys, "stacky", str(f))
    assert code == 0 and rep["result"]["node_orders"] == {}
    assert run(["stacky", str(f)]) == 0
    assert capsys.readouterr().out == """\
stacky.a: 1
stacky.rays: [[-1, -1, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
stacky.assignment.0: []
stacky.assignment.r0: [[1, 1, 0]]
stacky.assignment.r1: [[0, 0, 1]]
stacky.assignment.r2: [[0, 1, 0]]
stacky.assignment.r3: [[1, 0, 0]]
stacky.assignment.0-1: [[1, 1, 0], [0, 0, 1]]
stacky.assignment.1-2: [[0, 1, 0], [0, 0, 1]]
stacky.assignment.1-3: [[1, 0, 0], [0, 0, 1]]
stacky.stabilizer_orders.0: 1
stacky.stabilizer_orders.r0: 1
stacky.stabilizer_orders.r1: 1
stacky.stabilizer_orders.r2: 1
stacky.stabilizer_orders.r3: 1
stacky.stabilizer_orders.0-1: 1
stacky.stabilizer_orders.1-2: 1
stacky.stabilizer_orders.1-3: 1
node_orders: {}
marked_orders.a: 1
marked_orders.b: 1
marked_orders.c: 1
dm: True
char: 0
"""


def test_text_output_ends_with_the_warnings(tmp_path, capsys):
    # the JSON report's warnings, one line each after the result's lines
    f = _edited_fixture(tmp_path, _set(("char",), 5))
    code, rep = run_json(capsys, "count", f, "--char", "3")
    warning = "--char 3 overrides char 5 from the file"
    assert code == 0 and rep["warnings"] == [warning]
    assert run(["count", f, "--char", "3"]) == 0
    assert capsys.readouterr().out == (
        TEXT_OUTPUT["count", "line2pts.json"] + f"warning: {warning}\n")
    assert run(["count", f, "--char", "5"]) == 0
    assert capsys.readouterr().out == TEXT_OUTPUT["count", "line2pts.json"]


def test_text_mode_error_is_one_json_object(capsys):
    assert run(["count", str(FIXTURES / "xconfig.json")]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {
        "code": "ConstraintCountMismatch",
        "message": "the curve file carries no constraints"}}


@pytest.mark.parametrize("command", ["tr", "fan", "stacky", "reduction-data"])
def test_subdivision_id_clash_exits_1(tmp_path, capsys, command):
    # a valid file whose edge r1 bears the id that cutting E1 gives a piece
    f = _edited_fixture(tmp_path, _set(("edges", 3, "id"), "E1.p0"),
                        name="xconfig.json")
    code, rep = run_json(capsys, "validate", f)
    assert code == 0 and rep["result"]["valid"]
    code, err = run_json(capsys, command, f)
    assert code == 1
    assert err == {"error": {
        "code": "BadSubdivision",
        "message": "id clash with subdivision: ['E1.p0']"}}
