"""Module boundaries and reach of the library code under src/pinsep.

A name with one leading underscore is private to its module.  Every
module under src/pinsep is parsed, and an attribute access x._name is
allowed only where `_name` is defined (def, class) or assigned (as a
name or as an attribute) in that same module.

Every function and method must have a caller in the library itself:
code that only the tests reach belongs with the tests.

No function body runs an import statement, which costs a lookup on
every call, apart from the optional dependency PyYAML.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pinsep"
LAYERTRACE = SRC.parent.parent / "perfbench" / "layertrace.py"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def own_private_names(tree):
    """The private names a module defines or assigns itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)):
            names.add(node.attr)
    return {n for n in names if _private(n)}


def foreign_private_accesses(source):
    """(line, attribute) of each x._name whose _name the module lacks."""
    tree = ast.parse(source)
    own = own_private_names(tree)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in own)


def test_no_module_reads_another_modules_private_state():
    found = {path.name: foreign_private_accesses(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "subfields.py" in found
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_detector_flags_a_foreign_private_read():
    """A read of another module's private attribute is flagged; one of
    the module's own, and a dunder, are not."""
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self._own = 1\n"
              "def f(k, a):\n"
              "    return k._cache, a._own, a.__dict__\n")
    assert foreign_private_accesses(source) == [(5, "_cache")]


# Functions kept for a caller outside src/pinsep, and that caller.
CALLED_FROM_OUTSIDE = {
    "nullspace": "perfbench/layertrace.py wraps linalg.nullspace by name",
    "is_monomial": "the mp_gcd hook of perfbench/layertrace.py calls it",
}


def load_layertrace():
    """perfbench/layertrace.py as a module object, loaded by path and not
    registered anywhere; loading it installs no tracer."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    """Each TARGETS entry of the benchmark's tracer resolves the way
    Tracer.install resolves it, owner.__dict__[attr] after the dotted
    path, in a module it imports; a renamed or moved function fails here
    and not only in the traced benchmark run."""
    layertrace = load_layertrace()
    unresolved = []
    for name, mod, path, _ in layertrace.TARGETS:
        owner = importlib.import_module(f"pinsep.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if (mod not in layertrace.MODULES or owner is None
                or attr not in owner.__dict__):
            unresolved.append(name)
    assert layertrace.TARGETS and unresolved == []


def test_functions_kept_for_the_tracer_are_named_there():
    text = LAYERTRACE.read_text()
    assert [name for name in CALLED_FROM_OUTSIDE
            if not re.search(rf"\b{name}\b", text)] == []


def unreferenced_functions(sources):
    """(module, line, name) of each function or method, dunders aside,
    that no code in `sources` ({module: source}) names outside its own
    definition.

    Names are matched, not bindings: a method counts as referenced by
    any attribute access x.name, a function also by a bare name.  So a
    method that shares its name with one that is called (as
    RatFunc.scale did with MultiPoly.scale) is not caught.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names, attrs = [], []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.append((mod, node.lineno, node.attr))
    def outside(node, mod, where, line):
        return where != mod or not node.lineno <= line <= node.end_lineno

    found = []
    for mod, tree in trees.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            refs = attrs if id(node) in methods else names + attrs
            if not any(name == node.name and outside(node, mod, where, line)
                       for where, line, name in refs):
                found.append((mod, node.lineno, node.name))
    return sorted(found)


def test_every_function_has_a_caller_in_the_library():
    found = unreferenced_functions({path.name: path.read_text()
                                    for path in sorted(SRC.glob("*.py"))})
    assert sorted(name for _, _, name in found) == sorted(CALLED_FROM_OUTSIDE)


def test_detector_flags_a_function_nothing_calls():
    """A function or method named only inside its own body is flagged,
    and a method named only by a bare name (a local variable) is too;
    one called from another module and a dunder are not."""
    a = ("class A:\n"
         "    def __init__(self):\n"
         "        self.used()\n"
         "    def used(self):\n"
         "        row = 2\n"
         "        return row\n"
         "    def row(self):\n"
         "        return self.row()\n"
         "def helper():\n"
         "    return 1\n"
         "def unused():\n"
         "    return unused()\n")
    b = ("import a\n"
         "def main():\n"
         "    return a.helper()\n"
         "main()\n")
    assert unreferenced_functions({"a": a, "b": b}) == [
        ("a", 7, "row"), ("a", 11, "unused")]


# Imports a function body may run: PyYAML, needed only for --context.
IMPORTED_AT_CALL = {("cli.py", "load_config", "yaml")}


def imports_in_functions(module, source):
    """(module, function, name) for each name that an import statement
    inside a function body binds, nested functions included."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update((module, fn.name, alias.asname or alias.name)
                             for alias in node.names)
    return found


def test_no_function_body_runs_an_import():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= imports_in_functions(path.name, path.read_text())
    assert found == IMPORTED_AT_CALL


def test_detector_flags_an_import_in_a_function_body():
    """A deferred import in a method is flagged; one at module level,
    the bottom of the module included, is not."""
    source = ("from .polynomials import RatFunc\n"
              "class PerfElem:\n"
              "    def render(self):\n"
              "        from .exprs import render_element\n"
              "        return render_element(self)\n"
              "from . import exprs\n")
    assert imports_in_functions("perfect.py", source) == {
        ("perfect.py", "render", "render_element")}
