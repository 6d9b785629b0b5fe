"""Fuzz of the CLI contract: whatever the input file and flags, ``run``
exits 0, 1 or 2 and writes exactly one JSON document to stdout.

Each case is a fixture with one or two fields deleted or replaced by a
value of another JSON type, run under a drawn subcommand with ``--json``
and a few drawn flags.  The search is derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropicorr.cli import COMMANDS, run

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DOCS = {f.name: json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))}

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
