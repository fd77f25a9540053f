"""Module boundaries: private state stays in the module that defines it.

A name with one leading underscore is private to its module.  Every
module under src/pinsep is parsed, and an attribute access x._name is
allowed only where `_name` is defined (def, class) or assigned (as a
name or as an attribute) in that same module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pinsep"


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
