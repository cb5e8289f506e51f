"""The tests' reference maths keeps only what the tests use.

The two reference modules hold the slow routes that the certificate's own
code is compared against.  Each definition there must be used by a test
module, directly or through other definitions that one uses, and the
modules import one another at module level only, without a cycle.  They
take no private (_-prefixed) name from gspcert, so that no reference finds
its answer with the code it checks; nor does one gspcert module take
another's, so that each module's private helpers serve it alone.
"""
from __future__ import annotations

import ast
from pathlib import Path

import gspcert

TESTS = Path(__file__).parent
PACKAGE = Path(gspcert.__file__).parent
REFERENCE_MODULES = ("symplectic", "oracles")


def parse(stem: str) -> ast.Module:
    return ast.parse((TESTS / f"{stem}.py").read_text())


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def names_used(node: ast.AST, whole: bool = False) -> set[str]:
    """The names, attributes and imported names that node uses.  Unless
    whole, a def or class nested in it counts only once it is used itself,
    all but a class's dunders, which come with the class."""
    used = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if not whole and isinstance(child, DEFINITIONS) and not is_dunder(child.name):
            continue
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name)
        stack.extend(ast.iter_child_nodes(child))
    return used


def unused_definitions(sources: dict[str, str], roots: set[str]) -> set[tuple[str, str]]:
    """(module, name) for each def and class of the sources that is neither
    a root nor used by one, directly or through definitions it uses; dunders
    are exempt.  Names are matched bare, whichever module or class they
    come from."""
    defined, bodies = set(), {}
    for stem, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DEFINITIONS):
                defined.add((stem, node.name))
                bodies.setdefault(node.name, []).append(node)
    used = set(roots)
    frontier = list(used)
    while frontier:
        for node in bodies.get(frontier.pop(), ()):
            new = names_used(node) - used
            used |= new
            frontier += new
    return {(stem, name) for stem, name in defined if name not in used and not is_dunder(name)}


def used_by_tests(tests: list[str]) -> set[str]:
    """Every name the test sources use, inside their definitions too."""
    return set().union(*(names_used(ast.parse(source), whole=True) for source in tests))


def test_every_reference_definition_has_a_use():
    # the package's own rule (test_every_package_definition_has_a_use) with
    # the test modules as its roots: each def and class is used by a test
    # module, or by a definition that one uses, and so on
    references = {stem: (TESTS / f"{stem}.py").read_text() for stem in REFERENCE_MODULES}
    tests = [path.read_text() for path in sorted(TESTS.glob("test_*.py"))]
    assert unused_definitions(references, used_by_tests(tests)) == set()


def test_a_helper_used_only_by_an_unused_helper_is_unused():
    reference = """
def used(x):
    return Kept(x).value()

class Kept:
    def __init__(self, x):
        self.x = helper_of_init(x)

    def value(self):
        return self.x

    def unused_method(self):
        return inner_helper(self.x)

def helper_of_init(x):
    return x

def orphan(x):
    return inner_helper(x)

def inner_helper(x):
    return x
"""
    test = "from ref import used\n\ndef test_it():\n    assert used(1) == 1\n"
    assert unused_definitions({"ref": reference}, used_by_tests([test])) == {
        ("ref", "unused_method"), ("ref", "orphan"), ("ref", "inner_helper"),
    }


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


def private_package_names(source: str) -> set[str]:
    """The _-prefixed names, dunders aside, that source takes from gspcert:
    imported from one of its modules, or read off a name bound by
    `import gspcert...` or `from gspcert import ...`.  A relative import,
    `from .polynomial import ...` in a module of the flat package, is one
    from gspcert."""
    tree = ast.parse(source)
    private, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"gspcert.{module}".rstrip(".")
            if module.split(".")[0] == "gspcert":
                private |= {f"{module}.{a.name}" for a in node.names if a.name.startswith("_")}
                if module == "gspcert":
                    bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            bound |= {
                a.asname or a.name.split(".")[0]
                for a in node.names if a.name.split(".")[0] == "gspcert"
            }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not is_dunder(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                private.add(ast.unparse(node))
    return private


def test_references_take_no_private_name_from_the_package():
    for stem in REFERENCE_MODULES:
        assert private_package_names((TESTS / f"{stem}.py").read_text()) == set(), stem


def test_package_modules_take_no_private_name_from_one_another():
    for path in sorted(PACKAGE.glob("*.py")):
        assert private_package_names(path.read_text()) == set(), path.name


def test_a_private_name_is_found_however_it_is_reached():
    source = """
import gspcert.eigen_data
import gspcert.cli as command
from gspcert import polynomial
from gspcert.polynomial import FpPoly, _sqrt as sqrt
from oracles import _helper
from . import certifier
from .eigen_data import Root, _derivative

def f(x):
    y = polynomial._product(x) + gspcert.eigen_data._horner(x) + command._Parser + x.__class__
    return y + certifier._check
"""
    assert private_package_names(source) == {
        "gspcert.polynomial._sqrt",
        "polynomial._product",
        "gspcert.eigen_data._horner",
        "command._Parser",
        "gspcert.eigen_data._derivative",
        "certifier._check",
    }
