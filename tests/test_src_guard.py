"""Every module-level function, method and property of the package is used by
the package.

A function that only tests call is a second implementation of something the
engine does inline, so its tests check a copy rather than the code that runs.
Scalar reference forms belong in tests/oracles.py instead.
"""

import ast
from pathlib import Path

import fedhire

SRC = Path(fedhire.__file__).parent
# called from outside the package: the console script
ENTRY_POINTS = {("cli", "main")}
# methods only tests call: reading back a payload or a plan. ROADMAP items 5
# and 6e plan their callers; an entry that gains one must leave this set.
TEST_ONLY_METHODS = {("ClientPayload", "from_json"), ("PartitionPlan", "from_json")}


def _referenced(tree: ast.AST, name: str, outside: ast.AST) -> bool:
    """Whether ``tree`` names ``name`` anywhere but inside ``outside``."""
    own = {id(node) for node in ast.walk(outside)}
    return any(
        id(node) not in own
        and (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
        for node in ast.walk(tree)
    )


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_module_function_is_used_or_exported():
    trees = _trees()
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in fedhire.__all__
        and (module, node.name) not in ENTRY_POINTS
        and not any(_referenced(other, node.name, node) for other in trees.values())
    ]
    assert unused == []


def test_every_method_is_used():
    """Methods and properties of the package's classes, dunders aside."""
    trees = _trees()
    unused = {
        (cls.name, node.name)
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and not any(_referenced(other, node.name, node) for other in trees.values())
    }
    assert unused == TEST_ONLY_METHODS
