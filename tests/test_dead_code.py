"""Every module-level function of the library is reachable from an entry
point.

Roots are the names in the package's export table (``_EXPORTS`` in
``__init__``), every name in ``cli.py``, every name used in class bodies and
other module-level code (decorators and default values included), and every
name in ``bench/*.py``.  Import statements are not roots.  A function
reaches the names used in its body.  Names are matched across modules by
spelling alone, so a function is reported only when no reachable code uses
its name at all.
"""

import ast
from pathlib import Path

from tropicorr import _EXPORTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tropicorr"


def used_names(*nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unreachable_functions():
    roots = set(_EXPORTS)
    functions = {}                 # (module, name) -> names used in the body
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        if module == "__init__":
            continue
        if module == "cli":
            roots |= used_names(tree)
            roots |= {node.name for node in tree.body
                      if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[module, node.name] = used_names(node)
                roots |= used_names(*node.decorator_list, *node.args.defaults,
                                    *(d for d in node.args.kw_defaults if d))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= used_names(node)
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= used_names(ast.parse(path.read_text(encoding="utf-8")))

    reached = set(roots)
    done = set()
    grew = True
    while grew:
        grew = False
        for key, names in functions.items():
            if key not in done and key[1] in reached:
                done.add(key)
                reached |= names
                grew = True
    return sorted(f"{m}.{n}" for m, n in functions if (m, n) not in done)


def test_every_library_function_is_reachable():
    assert unreachable_functions() == []
