"""The package's public surface: ``fedhire.__all__`` is the one-shot protocol.

Every name in ``__all__`` is exempt from ``test_src_guard.py``, so an engine
name exported again would also escape that guard. Engine names are imported
from their own modules, such as ``fedhire.cpl.run_cpl``.
"""

import ast
from pathlib import Path

import pytest

import fedhire

PROTOCOL = {
    "DataMatrix", "FederationConfig", "PartitionPlan", "fragment_partition",
    "run_one_shot", "ExperimentResult", "ExperimentError", "EmptyClusterError",
    "gaussian_mixture", "acc", "ari", "nmi", "purity", "__version__",
}


def test_all_is_the_protocol():
    assert len(fedhire.__all__) == len(PROTOCOL)
    assert set(fedhire.__all__) == PROTOCOL
    for name in fedhire.__all__:
        assert hasattr(fedhire, name), name


def test_engine_names_come_from_their_modules():
    with pytest.raises(ImportError):
        from fedhire import run_cpl  # noqa: F401
    from fedhire.cpl import run_cpl  # noqa: F401


def test_readme_quick_start_runs_on_the_exports(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    source = block.split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "fedhire"
        for alias in node.names
    }
    assert imported and imported <= set(fedhire.__all__)
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    assert "ARI:" in capsys.readouterr().out
    # three well-separated blobs: stage 0's 3-cluster level is the ground
    # truth, and the final partition is that level
    result, data = namespace["result"], namespace["data"]
    mask = result.object_labels >= 0
    assert fedhire.ari(result.object_labels[mask], data.labels[mask]) == 1.0
    assert result.hierarchy_ks == [3, 2]
