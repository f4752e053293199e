"""The package's public surface is what a route reaches.

Every public top-level function or class of ``src/mmcast`` and every public
method must be named, as a whole word, by another module of the package, by
its own module outside its own definition, by a benchmark or demo script, or
by the ``mmcast`` imports of the acceptance suite.  Code that only the tests
call belongs in ``tests/helpers.py``.
"""

import ast
import re

from helpers import REPO

PACKAGE = REPO / "src" / "mmcast"


def public_definitions(tree):
    """The node of each public top-level def or class and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def acceptance_imports() -> str:
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    return " ".join(alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module.startswith("mmcast")
                    for alias in node.names)


def unreached_names() -> list:
    modules = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    scripts = " ".join(path.read_text() for folder in ("benchmarks", "demos")
                       for path in sorted((REPO / folder).glob("*.py")))
    outside = scripts + " " + acceptance_imports()
    unreached = []
    for path, text in modules.items():
        lines = text.splitlines()
        others = " ".join(t for p, t in modules.items() if p != path)
        for node in public_definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(where) for where in (others, rest, outside)):
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    return unreached


def test_every_public_name_in_the_package_has_a_caller_outside_the_tests():
    unreached = unreached_names()
    assert not unreached, f"reached only by the tests: {', '.join(unreached)}"
