"""Every module-level function, method and property of the package is used by
the package.

A function that only tests call is a second implementation of something the
engine does inline, so its tests check a copy rather than the code that runs.
Scalar reference forms belong in tests/oracles.py instead.

A method counts as used only when the package calls that class's own method.
A name that one class defines is used wherever the package names it. A name
that several classes define says nothing about which class is meant, so
those methods are told apart by a traced smoke run of the CLI instead.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import fedhire
from conftest import blob_data
from fedhire import cli

SRC = Path(fedhire.__file__).parent
# called from outside the package: the console script
ENTRY_POINTS = {("cli", "main")}
# read from outside the package: perfbench's server.run_mcpl span reads the
# hierarchy's depth, and its client.run_fcpl span the payload's clusterlets
READ_OUTSIDE = {("Hierarchy", "depth"), ("ClientPayload", "clusterlet_count")}
# methods only tests call: writing and reading back a payload, reading back
# a plan. ROADMAP items 5 and 6e plan their callers; an entry that gains one
# must leave this set.
TEST_ONLY_METHODS = {
    ("ClientPayload", "to_json"),
    ("ClientPayload", "from_json"),
    ("PartitionPlan", "from_json"),
}


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


def _package_calls(directory: Path) -> set[str]:
    """The qualified names of the package's functions that the package itself
    called in a ``run`` with ``--report`` and a ``partition`` of a small CSV
    in ``directory``."""
    data = blob_data([[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 40, 0.03, seed=77)
    csv = directory / "blobs.csv"
    csv.write_text("f0,f1,cls\n" + "".join(
        f"{x:.6f},{y:.6f},c{label}\n" for (x, y), label in zip(data.values, data.labels)
    ))
    files = {str(path) for path in SRC.glob("*.py")}
    called = set()

    def profile(frame, event, arg):
        caller = frame.f_back
        if (event == "call" and frame.f_code.co_filename in files
                and caller is not None and caller.f_code.co_filename in files):
            called.add(frame.f_code.co_qualname)

    settings = ["--data", str(csv), "--labels", "cls", "--clients", "3", "--k-star", "3"]
    sys.setprofile(profile)
    try:
        run = cli.main([
            "run", *settings, "--out", str(directory / "results.json"),
            "--report", str(directory / "report.json"),
        ])
        partition = cli.main(["partition", *settings, "--out", str(directory / "plan.json")])
    finally:
        sys.setprofile(None)
    assert (run, partition) == (0, 0)
    assert "run_one_shot" in called
    return called


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


def test_every_method_is_used(tmp_path):
    """Methods and properties of the package's classes, dunders aside."""
    trees = _trees()
    methods = [
        (cls.name, node)
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    definitions = Counter(node.name for _, node in methods)
    called = _package_calls(tmp_path)
    unused = {
        (cls, node.name)
        for cls, node in methods
        if (
            f"{cls}.{node.name}" not in called
            if definitions[node.name] > 1
            else not any(_referenced(other, node.name, node) for other in trees.values())
        )
    }
    assert unused == TEST_ONLY_METHODS | READ_OUTSIDE
