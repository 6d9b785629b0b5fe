"""Fuzz of the CLI contract: whatever the input file and flags, ``run``
exits 0, 1 or 2 and writes exactly one JSON document to stdout.

Each case is a fixture with one or two fields deleted or replaced by a
value of another JSON type, run under a drawn subcommand with ``--json``
and a few drawn flags; or raw bytes, arbitrary or a fixture cut at a drawn
offset.  The search is derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropicorr.cli import COMMANDS, run

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
RAW = {f.name: f.read_bytes() for f in sorted(FIXTURES.glob("*.json"))}
DOCS = {name: json.loads(raw) for name, raw in RAW.items()}

# one or more values of each JSON type
VALUES = [None, True, 0, 7, -1, 2.5, "", "x", "00", "inf", [], [0, 1], ["v0"],
          {}, {"id": "v0"}]
FLAGS = [["--constrained"], ["--elliptic"], ["--variant", "b"],
         ["--group", "Q"], ["--group", "Fp"], ["--group", "kstar"],
         ["--char", "2"], ["--char", "3"]]


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(node, prefix=()):
    """Every field and array element below node, as key paths."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_docs(draw):
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            kind = _json_type(parent[last])
            parent[last] = draw(st.sampled_from(
                [v for v in VALUES if _json_type(v) != kind]))
    return doc


@pytest.fixture(scope="module")
def case_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.json"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cmd=st.sampled_from(sorted(COMMANDS)), doc=mutated_docs(),
       flags=st.lists(st.sampled_from(FLAGS), max_size=2))
def test_every_input_ends_in_0_1_or_2_with_json(case_file, cmd, doc, flags):
    case_file.write_text(json.dumps(doc))
    extra = [arg for flag in flags for arg in flag]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([cmd, str(case_file), "--json", *extra])
    assert code in (0, 1, 2), code
    json.loads(out.getvalue())   # exactly one document, or this raises


@st.composite
def raw_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    raw = RAW[draw(st.sampled_from(sorted(RAW)))]
    return raw[:draw(st.integers(0, len(raw)))]


def _run_on_bytes(case_file, data, cmd="validate"):
    case_file.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([cmd, str(case_file), "--json"])
    assert code in (0, 1, 2), code
    return code, json.loads(out.getvalue())   # exactly one document


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cmd=st.sampled_from(sorted(COMMANDS)), data=raw_bytes())
def test_raw_bytes_end_in_0_1_or_2_with_json(case_file, cmd, data):
    _run_on_bytes(case_file, data, cmd)


def _with_field(path, value):
    """xconfig.json with the field at path set to value, as JSON text."""
    doc = json.loads(json.dumps(DOCS["xconfig.json"]))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = value
    return json.dumps(doc).encode()


MALFORMED = {
    "utf16_bom": b"\xff\xfe\x00",
    "deep_nesting": b"[" * 100_000,
    "long_integer": b'{"schema": "tropicorr/1", "lattice_rank": '
                    + b"1" * 5000 + b"}",
    "exponent_h": _with_field(("finite_vertices", 0, "h", 0), "1e400000000"),
    "exponent_length": _with_field(("edges", 0, "length"), "1e400000000"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_a_parse_error(case_file, name):
    start = time.perf_counter()
    code, doc = _run_on_bytes(case_file, MALFORMED[name])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["error"]["code"] == "ParseError", doc
