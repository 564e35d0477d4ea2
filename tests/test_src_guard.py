"""Every module-level function, method and property of the package is used by
the package.

A function that only tests call is a second implementation of something the
engine does inline, so its tests check a copy rather than the code that runs.
Scalar reference forms belong in tests/oracles.py instead.

A method counts as used only when a traced smoke run of the CLI calls that
class's own method from within the package: an attribute of the same name on
another object, such as ``rng.uniform``, says nothing about the class's
method.
"""

import ast
import importlib.util
import runpy
import sys
from pathlib import Path

import numpy as np

import fedhire
from conftest import blob_data
from fedhire import cli

SRC = Path(fedhire.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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


def _traced_calls(files: set[str], run) -> set[str]:
    """The qualified names of the functions defined in ``files`` that
    functions defined in ``files`` called while ``run()`` ran."""
    called = set()

    def profile(frame, event, arg):
        caller = frame.f_back
        if (event == "call" and frame.f_code.co_filename in files
                and caller is not None and caller.f_code.co_filename in files):
            called.add(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def _package_calls(directory: Path) -> set[str]:
    """The qualified names of the package's functions that the package itself
    called in a ``run`` with ``--report`` and a ``partition`` of a small CSV
    in ``directory``."""
    data = blob_data([[0.05, 0.05], [0.95, 0.05], [0.5, 0.95]], 40, 0.03, seed=77)
    csv = directory / "blobs.csv"
    csv.write_text("f0,f1,cls\n" + "".join(
        f"{x:.6f},{y:.6f},c{label}\n" for (x, y), label in zip(data.values, data.labels)
    ))
    settings = ["--data", str(csv), "--labels", "cls", "--clients", "3", "--k-star", "3"]
    codes = []
    called = _traced_calls({str(path) for path in SRC.glob("*.py")}, lambda: codes.extend([
        cli.main([
            "run", *settings, "--out", str(directory / "results.json"),
            "--report", str(directory / "report.json"),
        ]),
        cli.main(["partition", *settings, "--out", str(directory / "plan.json")]),
    ]))
    assert codes == [0, 0]
    assert "run_one_shot" in called
    return called


def _unused_methods(methods: list[tuple[str, str]], called: set[str]) -> set[tuple[str, str]]:
    """The (class, name) pairs whose ``class.name`` was never ``called``."""
    return {(cls, name) for cls, name in methods if f"{cls}.{name}" not in called}


def test_every_layer_the_benchmark_traces_resolves(monkeypatch):
    # the benchmark's tracer swaps each (module, attribute) of its LAYERS for
    # a wrapper; a name that no longer resolves fails every traced operation
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, "spans", spans)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}" for module, attr in spans.LAYERS.values()
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.LAYERS and missing == []


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
    methods = [
        (cls.name, node.name)
        for tree in _trees().values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    unused = _unused_methods(methods, _package_calls(tmp_path))
    assert unused == TEST_ONLY_METHODS | READ_OUTSIDE


def test_a_same_named_attribute_of_another_object_is_no_use(tmp_path):
    # ``draw`` names ``uniform`` only as an attribute of a generator
    source = tmp_path / "sampler.py"
    source.write_text(
        "class Matrix:\n"
        "    def uniform(self):\n"
        "        return 0.0\n"
        "\n"
        "\n"
        "def draw(rng):\n"
        "    return rng.uniform()\n"
        "\n"
        "\n"
        "def main(rng):\n"
        "    return draw(rng)\n"
    )
    namespace = runpy.run_path(str(source))
    called = _traced_calls({str(source)}, lambda: namespace["main"](np.random.default_rng(0)))
    assert "draw" in called
    assert _unused_methods([("Matrix", "uniform")], called) == {("Matrix", "uniform")}
