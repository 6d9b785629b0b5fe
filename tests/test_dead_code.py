"""Every module-level function, class and constant of the library, and
every method and property of its classes, is reachable from an entry
point, and every error class is raised somewhere in the library.

Roots are the names in the package's export table (``_EXPORTS`` in
``__init__``), every name in ``cli.py``, every name used in decorators,
default values and module-level code other than definitions, and every
name in ``bench/*.py``.  Import statements are not roots.  A definition (a
function, a class, or a constant bound by a module-level assignment to a
plain name) reaches the names used in it: a function's body, a class's
bases, decorators and body, a constant's value and annotation.  A class's
non-dunder methods and properties are definitions of their own: the class
reaches only the rest of its body, and their decorators and default values
are roots like a function's.  A member that overrides an attribute of a
base class outside the library (``cli._Parser.error``, which argparse
calls) is reached.  Names are matched across modules by spelling alone, so
a definition is reported only when no reachable code uses its name at
all.  Dunder names such as ``__all__`` or ``__eq__`` are read by the
interpreter, not by name, and are never reported.

An error class counts as raised when a ``raise`` statement under src/
names it, called or not.

A module-level import is reported when nothing in its own module uses the
name it binds; ``from __future__`` imports are read by the compiler and
never reported.

Imports point downward: the modules form the layers of ``LAYERS``, lowest
first, and each imports only layers before its own.  Only ``cli.py``
imports inside a function, so that each subcommand loads the layers it
runs; every other module imports at its top.

No state hides between calls: the library has no ``global`` or ``nonlocal``
statement, and writes past an immutable record with ``object.__setattr__``
only where fanmodel marks a refined curve as a fan.

The test oracles, the reference route for the fan layer's cone arithmetic,
import nothing from ``tropicorr.fanmodel``.
"""

import ast
import importlib
from pathlib import Path

from tropicorr import _EXPORTS, errors

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


def defined_names(node):
    """The names a module-level statement defines, dunder names aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if not is_dunder(n)]


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def overrides_foreign(module, cls, name):
    """Whether a base of the class outside the library has the attribute,
    so that the base's own code reaches the override."""
    obj = getattr(importlib.import_module(f"tropicorr.{module}"), cls)
    return any(hasattr(base, name) for base in obj.__mro__[1:]
               if not base.__module__.startswith("tropicorr"))


def unreachable_definitions():
    roots = set(_EXPORTS)
    definitions = {}       # (module, dotted name) -> (spelling, names used)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        if module == "__init__":
            continue
        if module == "cli":
            roots |= used_names(tree)
            roots |= {name for node in tree.body for name in defined_names(node)}
        for node in tree.body:
            names = defined_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots |= used_names(*node.decorator_list, *node.args.defaults,
                                    *(d for d in node.args.kw_defaults if d))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            elif not names:
                roots |= used_names(node)
            body = [node]
            if isinstance(node, ast.ClassDef):
                members = [m for m in node.body if isinstance(
                    m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not is_dunder(m.name)]
                body = [*node.bases, *node.keywords, *node.decorator_list,
                        *(m for m in node.body if m not in members)]
                for m in members:
                    roots |= used_names(*m.decorator_list, *m.args.defaults,
                                        *(d for d in m.args.kw_defaults if d))
                    if overrides_foreign(module, node.name, m.name):
                        roots.add(m.name)
                    definitions[module, f"{node.name}.{m.name}"] = (
                        m.name, used_names(m))
            for name in names:
                definitions[module, name] = (name, used_names(*body))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= used_names(ast.parse(path.read_text(encoding="utf-8")))

    reached = set(roots)
    done = set()
    grew = True
    while grew:
        grew = False
        for key, (spelling, names) in definitions.items():
            if key not in done and spelling in reached:
                done.add(key)
                reached |= names
                grew = True
    return sorted(f"{m}.{n}" for m, n in definitions if (m, n) not in done)


def test_every_library_definition_is_reachable():
    assert unreachable_definitions() == []


def unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_every_module_import_is_used():
    assert unused_imports() == []


LAYERS = ("errors", "exactla", "tropgraph", "paramcurve", "complexes",
          "counting", "fanmodel", "stacky", "curvefile", "cli")


def import_sites(node, where):
    """(where, statement) for each import statement under the node, where
    the dotted name of its innermost enclosing function or class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield where, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from import_sites(child, f"{where}.{child.name}")
        else:
            yield from import_sites(child, where)


def imported_modules(node):
    """The modules an import statement names, package-relative ones as
    ``tropicorr.<module>``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "tropicorr" if node.level else ""
    if node.module and node.module != "tropicorr":
        return [".".join(filter(None, (base, node.module)))]
    return [f"tropicorr.{alias.name}" for alias in node.names]


def layer_breaches():
    """'<where> -> <module>' for each import that names a layer not below
    its own, and for each import inside a function outside cli.py."""
    breaches = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, node in import_sites(tree, module):
            for name in imported_modules(node):
                layer = name.removeprefix("tropicorr.")
                upward = layer != name and (
                    LAYERS.index(layer) >= LAYERS.index(module))
                if upward or (where != module and module != "cli"):
                    breaches.append(f"{where} -> {layer}")
    return breaches


def test_layers_import_downward_only():
    assert sorted(path.stem for path in SRC.glob("*.py")
                  if path.stem != "__init__") == sorted(LAYERS)
    assert layer_breaches() == []


def unraised_errors():
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= used_names(exc)
    return sorted(name for name, cls in vars(errors).items()
                  if isinstance(cls, type)
                  and issubclass(cls, errors.TropicorrError)
                  and cls is not errors.TropicorrError and name not in raised)


def test_every_error_class_is_raised():
    assert unraised_errors() == []


def hidden_state():
    """(module, statement) for every global or nonlocal statement under
    src/, and (module, attribute name) for every ``object.__setattr__``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append((path.stem, type(node).__name__))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__"
                  and getattr(node.func.value, "id", None) == "object"):
                found.append((path.stem, ast.literal_eval(node.args[1])))
    return found


def test_no_state_hides_between_calls():
    # gamma_tr keeps its fan verdict on the curve it returns: node_stack is
    # handed the curve and cannot be handed the FanModel built from it
    assert hidden_state() == [("fanmodel", "_is_fan")]


def imported_names(path):
    """The dotted name of everything a file's import statements bind."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [f"{node.module}.{alias.name}" for alias in node.names]
    return out


def test_oracles_share_no_code_with_the_fan_layer():
    assert [name for name in imported_names(ROOT / "tests" / "oracles.py")
            if f"{name}.".startswith("tropicorr.fanmodel.")] == []


def private_complexes_reads(path):
    """The private names of tropicorr.complexes that a file imports, or
    reads off the module imported from tropicorr."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "tropicorr"
               for alias in node.names if alias.name == "complexes"}
    return [name for name in imported_names(path)
            if name.startswith("tropicorr.complexes._")] + [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and getattr(node.value, "id", None) in aliases]


# the engine's constraint and edge code: each constraint's presentation,
# where it binds, and the integer edge geometry
ENGINE_CONSTRAINT_CODE = {"presentation", "quotient_presentation",
                          "marked_pairs", "edge_geometry"}


def test_oracles_assemble_complexes_without_the_engine():
    # the full complex and the one-term quotient complex, the references
    # of the complex tests, read none of the engine's frame or spec
    # helpers, and build their edge and constraint rows without its code
    oracles = ROOT / "tests" / "oracles.py"
    assert private_complexes_reads(oracles) == []
    tree = ast.parse(oracles.read_text(encoding="utf-8"))
    for name in ("full_complex", "quotient_form_dims", "constraint_blocks"):
        (fn,) = (node for node in tree.body
                 if getattr(node, "name", None) == name)
        assert used_names(fn) & ENGINE_CONSTRAINT_CODE == set(), name
