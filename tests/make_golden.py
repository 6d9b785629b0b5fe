"""Regenerate the golden CLI outputs in tests/golden/.

Every subcommand runs with --json on every fixture, at the file's own char
and at chars 2 and 3.  Each case is stored as the exact stdout of the run,
and its exit code goes into exit_codes.json.  Paths are given relative to
the repository root, so the "input.path" field is the same on every
machine.

    PYTHONPATH=src python tests/make_golden.py

Regenerate only when a change means to alter an output, and say which one
and why; test_golden.py replays every case and fails on any difference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("dblline", "line2pts", "triangle_elliptic", "xconfig")
CHARS = (None, 2, 3)


def cases():
    """(name, argv) for every golden case, in a fixed order."""
    from tropicorr.cli import COMMANDS

    for fixture in FIXTURES:
        for command in COMMANDS:
            for char in CHARS:
                argv = [command, f"fixtures/{fixture}.json", "--json"]
                if char is not None:
                    argv += ["--char", str(char)]
                yield f"{fixture}.{command}.{char or 'file'}", argv


def run_case(argv) -> tuple[int, str]:
    """Exit code and stdout of ``tropicorr <argv>`` through cli.main, run in
    this process from the repository root."""
    from tropicorr import cli

    out = io.StringIO()
    saved_argv, saved_cwd = sys.argv, os.getcwd()
    sys.argv = ["tropicorr", *argv]
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            try:
                cli.main()
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.argv = saved_argv
        os.chdir(saved_cwd)
    return code, out.getvalue()


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in cases():
        codes[name], text = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(codes)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
