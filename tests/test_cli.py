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
