"""Every CLI output in tests/golden/ is replayed byte for byte.

So are the subdivided curves, fans and stacky text of a seeded corpus
slice, and the groups and counts of a constrained slice and of a rigid
one.  The files are
written by tests/make_golden.py; a change that alters one of
them must regenerate it and say why.
"""

import json

import pytest

from make_golden import (
    COUNT_SLICE,
    GOLDEN,
    RIGID_SLICE,
    SLICE,
    cases,
    count_text,
    rigid_text,
    run_case,
    slice_text,
)

CASES = list(cases())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_golden_set_is_complete():
    # 4 fixtures x 3 chars x (11 subcommands + 2 x 6 complex options), and
    # 6 invalid inputs x 3 subcommands, 4 genus-one shapes x 6 runs, 2
    # counts that fail a hypothesis and 1 on an unbalanced curve; no stale
    # file left over
    assert len(CASES) == 4 * 3 * (11 + 2 * 6) + 6 * 3 + 4 * 6 + 3
    assert set(EXIT_CODES) == {name for name, _ in CASES}
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(EXIT_CODES)
    assert set(EXIT_CODES.values()) == {0, 1, 2}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    code, text = run_case(argv)
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == EXIT_CODES[name]


def test_stacky_slice_matches_golden():
    assert slice_text() == SLICE.read_text(encoding="utf-8")


def test_count_slice_matches_golden():
    assert count_text() == COUNT_SLICE.read_text(encoding="utf-8")


def test_rigid_slice_matches_golden():
    assert rigid_text() == RIGID_SLICE.read_text(encoding="utf-8")
