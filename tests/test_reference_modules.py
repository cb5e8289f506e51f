"""The tests' reference maths keeps only what the tests use.

The four reference modules hold the slow routes that the certificate's own
code is compared against.  Each definition there must be used by some
test or by another reference, and the modules import one another at
module level only, without a cycle.
"""
from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).parent
REFERENCE_MODULES = ("field_elements", "field_polynomial", "symplectic", "oracles")


def parse(stem: str) -> ast.Module:
    return ast.parse((TESTS / f"{stem}.py").read_text())


def test_every_reference_definition_has_a_use():
    # mirrors the package's own rule (test_every_package_definition_has_a_use):
    # each def and class is referenced somewhere in tests/, or is a dunder
    defined = {
        (stem, node.name)
        for stem in REFERENCE_MODULES
        for node in ast.walk(parse(stem))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    referenced = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = {
        (stem, name) for stem, name in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == set()


def test_reference_imports_sit_at_module_level_without_a_cycle():
    imports = {}
    for stem in REFERENCE_MODULES:
        tree = parse(stem)
        nested = [
            node.lineno
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert nested == [], f"{stem}.py imports inside a function at lines {nested}"
        names = {
            alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names
        } | {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
        imports[stem] = names & set(REFERENCE_MODULES)
    # peel off the modules whose reference imports are all peeled already
    peeled: list[str] = []
    while len(peeled) < len(imports):
        ready = sorted(s for s, deps in imports.items() if s not in peeled and deps <= set(peeled))
        assert ready, f"import cycle among {sorted(set(imports) - set(peeled))}"
        peeled += ready
