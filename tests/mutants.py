"""A ledger of source mutations and the tests that must kill them.

Run from the repository root:

    PYTHONPATH=src python tests/mutants.py

Each mutant is one exact text edit of one file under ``src/tropicorr``,
with the tests that must kill it.  For each mutant the script copies the
tree the tests read (``src``, ``tests``, ``fixtures``, ``bench`` and the
top-level files) to a temporary directory, since the tests find ``src``
by their own path, and applies the edit there.  It then runs only the
mutant's named tests, in one pytest process with a timeout and
``PYTHONDONTWRITEBYTECODE=1``, one mutant at a time, and prints "killed"
when every named test fails (or the run times out), else "survived" with
the tests that passed.

Before any mutant runs, the script refuses (exit 2) when an edit's old
text does not occur exactly once, or when a named test is not collected or
does not pass on the unmutated copy.  It exits 1 when a mutant survives.
A mutant that no test kills belongs in CHANGES.md as a ``FOUND:`` line
until a test kills it, not in this list.

Mutation testing goes back to DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 1978.  Standard library only; tier-1 does
not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "fixtures", "bench", "pyproject.toml", "README.md")
TIMEOUT = 150   # seconds per pytest process


class Mutant(NamedTuple):
    name: str
    path: str           # under src/tropicorr
    old: str            # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]     # every one must fail under the mutant


FAN = "tests/test_fanmodel.py::"
CNT = "tests/test_counting.py::"
CPX = "tests/test_complexes.py::"
EXA = "tests/test_exactla.py::"
GLD = "tests/test_golden.py::"
VAL = "tests/test_tropgraph.py::test_validate_lists_every_violation_in_order"

MUTANTS = (
    # the refinement tests only the rays of each 2-cone's intersections,
    # so a lone ray inside a 2-cone is missed and the cone left whole
    Mutant("refine-without-lone-rays", "fanmodel.py",
           "        for r in met[c] | lone:\n",
           "        for r in met[c]:\n",
           (FAN + "test_fan_axiom_matches_all_pairs_oracle",
            FAN + "test_fan_axiom_needs_the_faces_and_empty_chains")),
    # gamma_tr returns its cut curve unchecked
    Mutant("gamma-tr-comparison-disabled", "fanmodel.py",
           "        if (got := set(cones)) != fan:\n",
           "        if (got := set(cones)) != fan and False:\n",
           (CNT + "test_cross_check_failure_raises[fan_axiom]",
            CNT + "test_cross_check_failure_survives_optimize[fan_axiom]",
            FAN + "test_gamma_tr_names_the_cones_a_wrong_cut_leaves")),
    # each cut measured with the weight of the wrong end
    Mutant("gamma-tr-cut-distance", "fanmodel.py",
           "Fraction(nb, na * gu[n] + nb * gw[n])",
           "Fraction(na, na * gu[n] + nb * gw[n])",
           (FAN + "test_gamma_tr_collinear_overlap",
            FAN + "test_gamma_tr_realizes_refinement",
            GLD + "test_stacky_slice_matches_golden")),
    # constraint rows subtracted across presentations of one length
    Mutant("ancestor-presentation-by-length", "complexes.py",
           "            if (u := link[0], proj) in at:      # minus u's rows\n",
           "            if (u := link[0]) in {w for w, q in at"
           " if len(q) == len(proj)}:\n",
           (EXA + "test_sparse_count_route_matches_dense_reference",
            CNT + "test_counts_do_not_depend_on_the_presentation",
            GLD + "test_rigid_slice_matches_golden")),
    # only the parent's constraint is subtracted: counts right, rows denser
    Mutant("ancestor-parent-only", "complexes.py",
           "                steps = steps[:len(steps) - len(paths[u])]\n"
           "                break\n",
           "                steps = steps[:len(steps) - len(paths[u])]\n"
           "            else:\n"
           "                link = None\n"
           "            break\n",
           (CPX + "test_point_rows_run_from_the_nearest_constrained_ancestor",)),
    # one step too few below the ancestor
    Mutant("ancestor-slice-one-short", "complexes.py",
           "steps[:len(steps) - len(paths[u])]",
           "steps[:len(steps) - len(paths[u]) - 1]",
           (CPX + "test_point_rows_run_from_the_nearest_constrained_ancestor",
            EXA + "test_sparse_count_route_matches_dense_reference",
            GLD + "test_rigid_slice_matches_golden")),
    # x_root kept on a row its ancestor's rows were subtracted from
    Mutant("ancestor-keeps-x-root", "complexes.py",
           "            row = {} if link else {k: x for k, x in enumerate(a) if x}\n",
           "            row = {k: x for k, x in enumerate(a) if x}\n",
           (CPX + "test_point_rows_run_from_the_nearest_constrained_ancestor",
            CNT + "test_plane_counts_equal_mikhalkin_multiplicity",
            EXA + "test_sparse_count_route_matches_dense_reference")),
    # a bounded edge's sign read off its stored ends, not its orientation
    Mutant("reduction-exponents-sign", "fanmodel.py",
           "pc._orient(e)[0] != v",
           "e.ends[0] != v",
           ("tests/test_invariants.py::"
            "test_structure_is_covariant_under_lattice_automorphisms",
            "tests/test_paramcurve.py::test_cached_facts_equal_fresh_recomputation",
            GLD + "test_cli_output_matches_golden[xconfig.reduction-data.file]")),
    # validate's connectivity walk crosses an edge's unknown endpoint, so a
    # curve with one is also called disconnected
    Mutant("validate-walks-unknown-endpoints", "tropgraph.py",
           "            if w in known and w not in seen:\n",
           "            if w not in seen:\n",
           (VAL + "[unknown-endpoint]",)),
    # an infinite vertex no edge reaches passes the valency check
    Mutant("validate-infinite-valency-above-one", "tropgraph.py",
           "        if (k := valency(c, v)) != 1:\n",
           "        if (k := valency(c, v)) > 1:\n",
           (VAL + "[p2-finite-ends]",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", "out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _run(root: Path, tests) -> dict[str, str] | None:
    """Outcome per test id ("PASSED", "FAILED", "ERROR", or None when not
    reported); None when the run timed out."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(root / "src")}
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
             "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    seen = {}
    for line in out.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            seen[rest.split(" - ")[0]] = word
    return {t: seen.get(t) for t in tests}


def _refusals() -> list[str]:
    bad = []
    for m in MUTANTS:
        text = (ROOT / "src" / "tropicorr" / m.path).read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            bad.append(f"{m.name}: the old text occurs {text.count(m.old)} "
                       f"times in {m.path}")
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        outcome = _run(Path(tmp), tests)
    if outcome is None:
        bad.append("the named tests time out on the unmutated copy")
    else:
        bad += [f"{t}: {o or 'not collected'} on the unmutated copy"
                for t, o in outcome.items() if o != "PASSED"]
    return bad


def main() -> int:
    bad = _refusals()
    if bad:
        print("refused:", *bad, sep="\n  ")
        return 2
    survivors = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _copy_tree(root)
            target = root / "src" / "tropicorr" / m.path
            target.write_text(target.read_text(encoding="utf-8")
                              .replace(m.old, m.new), encoding="utf-8")
            outcome = _run(root, m.tests)
        # a test the mutant keeps from being collected fails with it
        passed = [t for t, o in (outcome or {}).items() if o == "PASSED"]
        if outcome is None:
            print(f"{m.name}: killed (timeout)", flush=True)
        elif passed:
            survivors += 1
            print(f"{m.name}: survived (passed: {', '.join(passed)})",
                  flush=True)
        else:
            print(f"{m.name}: killed", flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
