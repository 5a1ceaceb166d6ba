"""Checks on the source text of ``src/germ`` itself."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "germ")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    # no pyflakes here: a name bound by a module-level import must be read
    # somewhere in the module (quoted annotations are not parsed)
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{alias.asname or alias.name.split('.')[0]} (line {node.lineno})"
              for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_every_private_definition_is_referenced():
    # a private function, class or method that nothing in the package names
    # is dead code: names are read off Name and Attribute nodes, so a method
    # reached through a subclass or by import counts
    defined, used = [], set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=module)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((name, f"{module}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [f"{name} ({where})" for name, where in defined if name not in used]
    assert not orphans, f"private definitions never referenced: {', '.join(orphans)}"


def test_only_the_three_arithmetic_types_define_multiplication():
    # scalars, jets and polynomials in unknowns are the package's arithmetic
    # types; any other class with overloaded arithmetic is a parallel one
    owners = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=module)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "__mul__"
                    for item in node.body):
                owners.add(node.name)
    assert owners == {"FieldElem", "Jet", "Poly"}
