"""Regenerate the golden CLI outputs in tests/golden/.

Every subcommand runs with --json on every fixture, at the file's own char
and at chars 2 and 3; ``complex`` and ``regular`` also run with each of
their options (the plain variant, the constraint, the cycle and each
coefficient group) at those chars.  The small invalid curves in
tests/golden/inputs/ go through ``validate``, ``info`` and ``stabilize``,
so every violation and parse-error message is covered.  The genus-one
shapes there (a loop, two parallel edges over one 2-cone, a 2-valent cycle
vertex with a hanging tree, two zero-slope cycle edges) go through
``info``, both elliptic complexes, ``fan``, ``stacky`` and
``count-elliptic``.  Three constrained lines go through ``count``: one
misses a constraint point (``satisfies_A`` fails), one has a vertex of
multiplicity 3 at char 3 (``regular`` fails), and one hangs an unbalanced
leaf that stabilization would prune (``NotBalanced``).  Beside the CLI
cases, the seeded slice ``corpus(8086, 12, constrained=False)`` of
tests/corpus.py goes through ``gamma_tr`` with ``curve_to_json``,
``fan_to_json``, ``stacky_data`` at the least ramification with
``stacky_to_json``, and ``node_stack``; its text is stored in
stacky_slice.txt.  The constrained slice ``corpus(2024, 12)``
goes through the complexes and the counts; its text is stored in
count_slice.txt.  A rigid slice of curves built in the counting regimes
(``rigid_text``) goes the same way into rigid_slice.txt.  The inputs live
outside fixtures/, whose files the benchmark reads.  Each case is stored
as the exact stdout of the run, and its exit code goes into
exit_codes.json.  Paths are given relative to the repository root, so the
"input.path" field is the same on every machine.

    PYTHONPATH=src python tests/make_golden.py

Regenerate only when a change means to alter an output, and say which one
and why; test_golden.py replays every case and fails on any difference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("dblline", "line2pts", "triangle_elliptic", "xconfig")
CHARS = (None, 2, 3)
COMPLEX_OPTIONS = (("--variant", "b"), ("--constrained",), ("--elliptic",),
                   ("--group", "Q"), ("--group", "Fp"), ("--group", "kstar"))
INPUTS = ("frac_defect", "nonint_edge", "unbalanced_unstable",
          "nonint_infinite", "wrong_length_h", "missing_h")
INPUT_COMMANDS = ("validate", "info", "stabilize")
SHAPES = ("loop_elliptic", "parallel_elliptic", "pendant_elliptic",
          "zero_cycle_elliptic")
SHAPE_COMMANDS = (("info",), ("complex", "--elliptic"),
                  ("complex", "--elliptic", "--variant", "b"), ("fan",),
                  ("stacky",), ("count-elliptic",))
COUNT_INPUTS = ("missed_point", "heavy_vertex", "unbalanced_line")
SLICE = GOLDEN / "stacky_slice.txt"
COUNT_SLICE = GOLDEN / "count_slice.txt"
RIGID_SLICE = GOLDEN / "rigid_slice.txt"


def _at_chars(name, argv):
    for char in CHARS:
        suffix = [] if char is None else ["--char", str(char)]
        yield f"{name}.{char or 'file'}", argv + suffix


def cases():
    """(name, argv) for every golden case, in a fixed order."""
    from tropicorr.cli import COMMANDS

    for fixture in FIXTURES:
        path = f"fixtures/{fixture}.json"
        for command in COMMANDS:
            yield from _at_chars(f"{fixture}.{command}", [command, path, "--json"])
        for command in ("complex", "regular"):
            for option in COMPLEX_OPTIONS:
                tag = "-".join(x.lstrip("-") for x in option)
                yield from _at_chars(f"{fixture}.{command}.{tag}",
                                     [command, path, "--json", *option])
    for name in INPUTS:
        for command in INPUT_COMMANDS:
            yield (f"{name}.{command}",
                   [command, f"tests/golden/inputs/{name}.json", "--json"])
    for name in SHAPES:
        for command, *options in SHAPE_COMMANDS:
            tag = "-".join(x.lstrip("-") for x in (command, *options))
            yield (f"{name}.{tag}", [command, f"tests/golden/inputs/{name}.json",
                                     "--json", *options])
    for name in COUNT_INPUTS:
        yield (f"{name}.count",
               ["count", f"tests/golden/inputs/{name}.json", "--json"])


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


def slice_text() -> str:
    """The subdivided curve, fan, stacky data and node and marked orders of
    every curve of the seeded slice: one line per curve and part, the JSON
    of the part in the library's own key order.  The ``tr`` part is the
    curve file of ``gamma_tr``'s output, so its vertex ids, h, edge ids,
    lengths and edge order are pinned."""
    from corpus import corpus
    from tropicorr.curvefile import curve_to_json
    from tropicorr.fanmodel import fan_model, fan_to_json, gamma_tr, ramification
    from tropicorr.stacky import node_stack, stacky_data, stacky_to_json

    lines = []
    for i, (p, _) in enumerate(corpus(8086, 12, constrained=False)):
        tr = gamma_tr(p)
        ns = node_stack(tr)
        st = stacky_data(tr, ramification(tr, 1)["minimal_a"])
        for part, data in (("tr", curve_to_json(tr)),
                           ("fan", fan_to_json(fan_model(tr))),
                           ("stacky", stacky_to_json(st)),
                           ("node_orders", ns.node_orders),
                           ("marked_orders", ns.marked_orders)):
            lines.append(f"{i} {part} {json.dumps(data)}\n")
    return "".join(lines)


def count_lines(curves) -> str:
    """E^1's rank and E^2 of the (b, none), (b, A), (beta, A) and, at genus
    one, (beta, A, j) complexes of every curve, then
    ``correspondence_count`` and, at genus one, ``elliptic_count`` at chars
    0, 2 and 3: the count as count = torsor order x stacky factor, or the
    error code.  One line per curve and part."""
    from tropicorr.complexes import ComplexSpec, compute
    from tropicorr.counting import correspondence_count, elliptic_count
    from tropicorr.errors import TropicorrError
    from tropicorr.tropgraph import genus

    def outcome(fn, *args):
        try:
            return fn(*args)
        except TropicorrError as exc:
            return exc.code

    lines = []
    for i, (p, a) in enumerate(curves):
        elliptic = genus(p.curve) == 1
        specs = {"b": ComplexSpec("b"), "b,A": ComplexSpec("b", a),
                 "beta,A": ComplexSpec("beta", a)}
        if elliptic:
            specs["beta,A,j"] = ComplexSpec("beta", a, elliptic=True)
        for name, spec in specs.items():
            rep = outcome(compute, p, spec)
            text = rep if isinstance(rep, str) else (
                f"E1_rank {rep.E1_rank} E2 {rep.E2.rank} {list(rep.E2.torsion)}")
            lines.append(f"{i} {name} {text}\n")
        for count in (correspondence_count, elliptic_count)[:1 + elliptic]:
            for char in (0, 2, 3):
                res = outcome(count, p, a, char)
                text = res if isinstance(res, str) else (
                    f"{res.count} = {res.torsor_order} x {res.stacky_factor}")
                lines.append(f"{i} {count.__name__} {char} {text}\n")
    return "".join(lines)


def count_text() -> str:
    """The lines of ``count_lines`` for the constrained slice."""
    from corpus import corpus

    return count_lines(corpus(2024, 12))


def rigid_text() -> str:
    """The lines of ``count_lines`` for the rigid slice: curves built in the
    counting regimes, so that most counts succeed.  Rigid genus-zero curves
    with point constraints in ranks 2 and 3, rank-3 ones bound to lines,
    rigid genus-one polygons, and marked trees of at least 13 finite
    vertices and 4 marks, whose complexes have torsion."""
    from corpus import (
        elliptic_rigid,
        marked_trees,
        rigid_genus0,
        rigid_with_lines,
    )

    rng = random.Random(2026)
    curves = [rigid_genus0(rng, 2) for _ in range(10)]
    curves += [rigid_genus0(rng, 3) for _ in range(6)]
    curves += [rigid_with_lines(rng) for _ in range(6)]
    curves += [elliptic_rigid(rng) for _ in range(6)]
    curves += marked_trees(2027, 6)
    return count_lines(curves)


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in cases():
        codes[name], text = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    SLICE.write_text(slice_text(), encoding="utf-8")
    COUNT_SLICE.write_text(count_text(), encoding="utf-8")
    RIGID_SLICE.write_text(rigid_text(), encoding="utf-8")
    print(f"wrote {len(codes)} cases and the three slices to {GOLDEN}")


if __name__ == "__main__":
    main()
