"""Building, caching and loading the compiled kernel, and its array guards."""

import ctypes
import re
import subprocess
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedhire import _kernel, cpl, federation
from fedhire.core import ClusterletState, DataMatrix, FeatureClusterMatrix
from fedhire.cpl import _dissimilarities, _Run


def _epochs(lib, seed=0, epochs=3):
    """Epochs of a ``_Run`` on random data through ``lib``, with more columns
    than one tile; returns every array they write."""
    rng = np.random.default_rng(seed)
    n, k, d = 60, 11, 3
    values = rng.uniform(0.0, 1.0, size=(n, d))
    state = ClusterletState.initial(values[rng.choice(n, size=k, replace=False)])
    state.raw_weights[:] = rng.uniform(-7.0, -3.0, size=k)
    state.weights[:] = [lib.fh_squash(r) for r in state.raw_weights]
    rows = rng.dirichlet(np.ones(d), size=k)
    run = _Run(values, state, rows)
    run.lib = lib
    orphans = [run.epoch(0.05)[1] for _ in range(epochs)]
    return (
        np.array(orphans), run.sims, run.assignments, run.streaks, run.gamma,
        state.centroids, state.win_counts, state.raw_weights, state.weights,
        state.active,
    )


def _refresh(lib, seed=0):
    """One feature-weight refresh of a ``_Run`` through ``lib``, with an
    inactive and a memberless clusterlet; returns the rows it writes."""
    rng = np.random.default_rng(seed)
    n, k, d = 60, 7, 9
    values = rng.normal(size=(n, d))
    state = ClusterletState.initial(values[rng.choice(n, size=k, replace=False)])
    state.active[2] = False
    rows = rng.dirichlet(np.ones(d), size=k)
    run = _Run(values, state, rows)
    run.lib = lib
    assignments = rng.choice([0, 1, 3, 4, 6], size=n)
    cpl.feature_cluster_matrix_client(run, assignments)
    return rows


def _distances(lib, d, seed=0):
    """One kernel distance call on random rows; n ends on a partial block."""
    rng = np.random.default_rng(seed)
    n, k = 131, 9
    by_feature = rng.normal(size=(d, n))
    centroids = rng.normal(size=(k, d))
    scaled = d * rng.dirichlet(np.ones(d), size=k)
    out = np.empty((n, k))
    assert lib.fh_dissimilarities(by_feature, d, n, centroids, scaled, k, out) == 0
    return out


def _kmeans(lib, seed=0):
    """One fragmentation k-means through ``lib``: 50 clusters over 131 rows
    with 40 distinct values, so empty clusters are re-seeded and n ends on a
    partial block; returns the centroids and assignments."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(40, 5))[rng.integers(0, 40, size=131)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "library", lambda: lib)
        centroids, affil = federation.kmeans(DataMatrix(values), 50, seed)
    return centroids, affil.assignments


def test_fresh_build_loads_and_matches_the_cached_library(tmp_path):
    fresh = _kernel.load(tmp_path)
    cached = _kernel.library()
    (built,) = tmp_path.iterdir()
    assert built.name.startswith("_kernel-") and fresh._name == str(built)
    assert fresh._name != cached._name
    raws = np.linspace(-60, 60, 10_001)
    np.testing.assert_array_equal(
        np.array([fresh.fh_squash(r) for r in raws]).view(np.uint64),
        np.array([cached.fh_squash(r) for r in raws]).view(np.uint64),
    )
    for got, want in zip(_epochs(fresh), _epochs(cached)):
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
    np.testing.assert_array_equal(
        _refresh(fresh).view(np.uint64), _refresh(cached).view(np.uint64)
    )
    for d in (4, 16, 300):
        np.testing.assert_array_equal(
            _distances(fresh, d).view(np.uint64), _distances(cached, d).view(np.uint64)
        )
    for got, want in zip(_kmeans(fresh), _kmeans(cached)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_source_compiles_without_warnings(tmp_path):
    # the package's own FLAGS, and so its cache key, stay as they are
    warnings = ("-Wall", "-Wextra", "-Wconversion", "-Werror")
    target = tmp_path / "kernel.so"
    command = [
        _kernel.COMPILER, *_kernel.FLAGS, *warnings, "-o", str(target),
        str(_kernel.SOURCE), *_kernel.LIBRARIES,
    ]
    built = subprocess.run(command, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def test_a_cached_library_is_loaded_without_compiling(tmp_path, monkeypatch):
    _kernel.load(tmp_path)

    def no_build(target):
        raise AssertionError(f"compiled {target} again")

    monkeypatch.setattr(_kernel, "_build", no_build)
    _kernel.load(tmp_path)


def test_cache_key_follows_source_and_flags(monkeypatch):
    source = _kernel.SOURCE.read_bytes()
    key = _kernel.cache_key(source)
    assert _kernel.cache_key(source) == key
    assert _kernel.cache_key(source + b"\n") != key
    assert _kernel.cache_key(source.replace(b"10.0", b"10.5")) != key
    monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-O3"))
    assert _kernel.cache_key(source) != key


def test_missing_compiler_raises_an_error_naming_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "COMPILER", "fedhire-no-such-cc")
    command = re.escape(" ".join(["fedhire-no-such-cc", *_kernel.FLAGS, "-o", ""]))
    with pytest.raises(_kernel.KernelBuildError, match=command):
        _kernel.load(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_build_deletes_the_builds_of_other_sources(tmp_path):
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = _kernel._library_path(tmp_path)
    stale = tmp_path / f"_kernel-0123456789abcdef{suffix}"
    # partial builds of other processes, of this source and of another; a
    # build for another interpreter; an unrelated file
    kept = [
        target.with_name(f"{target.name}.4242.tmp"),
        stale.with_name(f"{stale.name}.4243.tmp"),
        tmp_path / "_kernel-0123456789abcdef.cpython-399-other.so",
        tmp_path / "other.so",
    ]
    for path in (stale, *kept):
        path.write_bytes(b"")
    _kernel.load(tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted([target, *kept])


@pytest.mark.parametrize("argument, position", [(0, 1), (1, 4), (2, 5)])
@pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
def test_distances_refuse_an_array_they_would_have_to_copy(argument, position, layout):
    rng = np.random.default_rng(3)
    d, n, k = 5, 40, 7
    arrays = [rng.normal(size=(d, n)), rng.normal(size=(k, d)), rng.normal(size=(k, d))]
    a = arrays[argument]
    arrays[argument] = {
        "fortran": np.asfortranarray(a),
        "strided": np.hstack([a, a])[:, ::2],
        "float32": a.astype(np.float32),
    }[layout]
    with pytest.raises(ctypes.ArgumentError, match=f"argument {position}"):
        _dissimilarities(*arrays)


@pytest.mark.parametrize("layout", ["fortran", "strided", "float32", "shape"])
def test_run_buffers_are_refused_rather_than_copied(layout):
    # 8 MB: a copy would show in the allocation peak
    a = np.zeros((1000, 1000))
    bad = {
        "fortran": np.asfortranarray(a),
        "strided": np.zeros((1000, 2000))[:, ::2],
        "float32": a.astype(np.float32),
        "shape": np.zeros((1000, 999)),
    }[layout]
    assert _kernel.address("sims", a, np.float64, (1000, 1000)) == a.ctypes.data
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sims must be"):
            _kernel.address("sims", bad, np.float64, (1000, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 100


@pytest.mark.parametrize("name", ["values", "centroids"])
@pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
def test_kmeans_refuses_a_buffer_it_would_have_to_copy(name, layout):
    rng = np.random.default_rng(4)
    arrays = {"values": rng.normal(size=(40, 3)), "centroids": rng.normal(size=(5, 3))}
    a = arrays[name]
    arrays[name] = {
        "fortran": np.asfortranarray(a),
        "strided": np.hstack([a, a])[:, ::2],
        "float32": a.astype(np.float32),
    }[layout]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        federation._lloyd(arrays["values"], arrays["centroids"])


def test_kmeans_raises_memory_error_when_a_block_cannot_be_allocated(monkeypatch):
    class Failing:
        @staticmethod
        def fh_kmeans(*args):
            return -1

    monkeypatch.setattr(_kernel, "library", Failing)
    with pytest.raises(MemoryError, match="fh_kmeans"):
        federation.kmeans(DataMatrix(np.zeros((3, 2))), 2, seed=0)


def test_columns_raise_memory_error_when_a_block_cannot_be_allocated():
    class Failing:
        @staticmethod
        def fh_columns(ref):
            return -1

    values = np.random.default_rng(5).normal(size=(10, 2))
    run = _Run(values, ClusterletState.initial(values[:3]), FeatureClusterMatrix.uniform(3, 2).entries)
    run.lib = Failing
    with pytest.raises(MemoryError, match="fh_columns"):
        run.epoch(0.05)


# the ctypes type of each kind of struct member
KINDS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "pointer": ctypes.c_void_p}


def struct_members(source: str) -> list[tuple[str, type]]:
    """The members of ``struct fh_run`` in ``source``, in order, each with the
    ctypes type of its kind: int64_t, double or a pointer."""
    body = re.search(r"^struct fh_run \{(.*?)^\};", source, re.M | re.S).group(1)
    members = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        ctype, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", declaration, re.S).groups()
        for name in (name.strip() for name in names.split(",")):
            kind = "pointer" if name.startswith("*") else ctype
            members.append((name.lstrip("*"), KINDS[kind]))
    return members


def test_run_fields_match_the_struct_layout():
    # a member out of place shifts every later one, and the kernel then
    # reads and writes the wrong buffers
    members = struct_members(_kernel.SOURCE.read_text())
    assert len(members) > 20
    assert _kernel.Run._fields_ == members


def test_every_exported_function_is_bound_and_called():
    exported = set(
        re.findall(r"^(?!static)\w+\s+(fh_\w+)\(", _kernel.SOURCE.read_text(), re.M)
    )
    loader = Path(_kernel.__file__).read_text()
    assert set(re.findall(r"lib\.(fh_\w+)\.argtypes", loader)) == exported
    assert set(re.findall(r"lib\.(fh_\w+)\.restype", loader)) == exported
    callers = [
        path.read_text() for path in Path(_kernel.__file__).parent.glob("*.py")
        if path.name != "_kernel.py"
    ]
    uncalled = [
        name for name in sorted(exported)
        if not any(re.search(rf"\.{name}\(", text) for text in callers)
    ]
    assert len(exported) >= 6 and uncalled == []
