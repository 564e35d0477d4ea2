"""Building, caching and loading the compiled kernel, and its array guards."""

import ctypes
import os
import platform
import re
import stat
import subprocess
import sysconfig
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedhire import _kernel, cpl, federation
from fedhire.core import DataMatrix
from fedhire.cpl import _Run
import kernel_steps
from kernel_steps import StepRun
from oracles import make_state
from test_cpl import KERNEL_LANE, KERNEL_TILE, refresh_case


def _run(lib, seed=0, epochs=3):
    """A run of ``fh_cpl`` through ``lib`` on random data, with more columns
    than one tile and the feature-weight refresh on; returns every array it
    writes."""
    rng = np.random.default_rng(seed)
    n, k, d = 60, 11, 3
    values = rng.uniform(0.0, 1.0, size=(n, d))
    state = make_state(values[rng.choice(n, size=k, replace=False)])
    state.raw_weights[:] = rng.uniform(-7.0, -3.0, size=k)
    state.weights[:] = [kernel_steps.step_squash(r) for r in state.raw_weights]
    rows = rng.dirichlet(np.ones(d), size=k)
    run = StepRun(values, state, rows)
    assert run.cpl(lib, 0.05, epochs) == 0
    return (
        run.info, run.sims, run.assignments, run.streaks, run.gamma, rows,
        state.centroids, state.win_counts, state.raw_weights, state.weights,
        state.active,
    )


def _kmeans(lib, d=5, seed=0):
    """One fragmentation k-means through ``lib``: 50 clusters over 131 rows
    with 40 distinct values, so empty clusters are re-seeded and n ends on a
    partial block of the distances; returns the centroids and assignments."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(40, d))[rng.integers(0, 40, size=131)]
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
    for got, want in zip(_run(fresh), _run(cached)):
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
    for d in (4, 16, 300):
        for got, want in zip(_kmeans(fresh, d), _kmeans(cached, d)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


WARNINGS = ("-Wall", "-Wextra", "-Wconversion", "-Werror")


def test_source_compiles_without_warnings(tmp_path):
    # the package's own FLAGS, and so its cache key, stay as they are; the
    # test shim's exports are held to the kernel's standard
    for source in (_kernel.SOURCE, kernel_steps.SOURCE):
        target = tmp_path / f"{source.stem}.so"
        command = [
            _kernel.COMPILER, *_kernel.FLAGS, *WARNINGS, "-I", str(_kernel.SOURCE.parent),
            "-o", str(target), str(source), *_kernel.LIBRARIES,
        ]
        built = subprocess.run(command, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr


def test_a_cached_library_is_loaded_without_compiling(tmp_path, monkeypatch):
    _kernel.load(tmp_path)

    def no_build(target):
        raise AssertionError(f"compiled {target} again")

    monkeypatch.setattr(_kernel, "_build", no_build)
    _kernel.load(tmp_path)


@pytest.fixture
def unwritable_package_cache(tmp_path, monkeypatch):
    """A package cache that cannot be made (its parent is a file, which
    stops even root), a temporary directory of the test's own, and a count
    of the builds; the cached ``library`` is cleared before and after."""
    blocker = tmp_path / "package"
    blocker.write_bytes(b"")
    monkeypatch.setattr(_kernel, "PACKAGE_CACHE", blocker / "__pycache__")
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    builds = []
    build = _kernel._build

    def counted(target):
        builds.append(target)
        build(target)

    monkeypatch.setattr(_kernel, "_build", counted)
    _kernel.library.cache_clear()
    yield builds, temporary
    _kernel.library.cache_clear()


def test_an_unwritable_package_falls_back_to_the_user_cache(
    tmp_path, monkeypatch, unwritable_package_cache
):
    builds, temporary = unwritable_package_cache
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    first = _kernel.library()
    cache = tmp_path / "xdg" / "fedhire"
    assert builds == [_kernel._library_path(cache)] and first._name == str(builds[0])
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    _kernel.library.cache_clear()
    assert _kernel.library()._name == first._name
    assert len(builds) == 1 and list(temporary.iterdir()) == []


def test_the_user_cache_defaults_to_dot_cache_in_home(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _kernel._user_cache() == tmp_path / ".cache" / "fedhire"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert _kernel._user_cache() == tmp_path / ".cache" / "fedhire"


def test_a_user_cache_others_may_write_is_never_used(
    tmp_path, monkeypatch, unwritable_package_cache
):
    builds, temporary = unwritable_package_cache
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    shared = tmp_path / "xdg" / "fedhire"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    assert _kernel._user_cache() is None
    _kernel.library()
    (scratch,) = temporary.iterdir()
    assert builds == [_kernel._library_path(scratch)]
    assert list(shared.iterdir()) == []
    shared.chmod(0o700)
    assert _kernel._user_cache() == shared
    if os.geteuid() == 0:  # only root can hand the directory to another user
        os.chown(shared, os.getuid() + 1, -1)
        assert _kernel._user_cache() is None
        os.chown(shared, os.getuid(), -1)
    link = tmp_path / "xdg-link"
    link.mkdir()
    (link / "fedhire").symlink_to(shared)
    monkeypatch.setenv("XDG_CACHE_HOME", str(link))
    assert _kernel._user_cache() is None


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


def test_two_threads_build_into_one_empty_cache(tmp_path, monkeypatch):
    # both threads compile before either renames its build into place, so a
    # partial file named by the process alone would be renamed away under
    # the second thread
    compiled = threading.Barrier(2, timeout=120)
    compile_ = subprocess.run

    def compile_then_wait(*args, **kwargs):
        done = compile_(*args, **kwargs)
        compiled.wait()
        return done

    monkeypatch.setattr(_kernel.subprocess, "run", compile_then_wait)
    libraries, errors = [], []

    def load():
        try:
            libraries.append(_kernel.load(tmp_path))
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert errors == [] and len(libraries) == 2
    assert list(tmp_path.iterdir()) == [_kernel._library_path(tmp_path)]
    want = _kmeans(_kernel.library())
    for lib in libraries:
        for got, expected in zip(_kmeans(lib), want):
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("argument, position", [(0, 1), (1, 4), (2, 5)])
@pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
def test_distances_refuse_an_array_they_would_have_to_copy(argument, position, layout):
    rng = np.random.default_rng(3)
    d, n, k = 5, 40, 7
    arrays = [rng.normal(size=(n, d)), rng.normal(size=(k, d)), rng.normal(size=(k, d))]
    a = arrays[argument]
    arrays[argument] = {
        "fortran": np.asfortranarray(a),
        "strided": np.hstack([a, a])[:, ::2],
        "float32": a.astype(np.float32),
    }[layout]
    with pytest.raises(ctypes.ArgumentError, match=f"argument {position}"):
        kernel_steps.dissimilarities(*arrays)


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


def checked_buffers(monkeypatch) -> dict:
    """The dtype and shape that each ``_kernel.address`` check from now on
    was given, by buffer name."""
    checked, address = {}, _kernel.address

    def spy(name, array, dtype, shape):
        checked[name] = (np.dtype(dtype), shape)
        return address(name, array, dtype, shape)

    monkeypatch.setattr(_kernel, "address", spy)
    return checked


def test_kmeans_checks_its_pad(monkeypatch):
    # the distances' d x LANE block of objects is numpy's, not the kernel's;
    # KERNEL_LANE is read from _kernel.c, so the pad tests pin _kernel.LANE
    checked = checked_buffers(monkeypatch)
    values = np.random.default_rng(5).normal(size=(10, 3))
    federation.kmeans(DataMatrix(values), 2, seed=0)
    assert checked["pad"] == (np.dtype(np.float64), (3 * KERNEL_LANE,))


def run_layouts(n: int, d: int, k0: int) -> dict:
    """The dtype and shape of each pointer member of ``struct fh_run``, as its
    comment in ``_kernel.c`` gives them, for n objects, d features and k0
    clusterlets."""
    f8, i8, u1 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint8)
    return {
        "values": (f8, (n, d)),
        "sims": (f8, (n, k0)),
        "stored_centroids": (f8, (k0, d)),
        "stored_rows": (f8, (k0, d)),
        "centroids": (f8, (k0, d)),
        "win_counts": (i8, (k0,)),
        "raw_weights": (f8, (k0,)),
        "weights": (f8, (k0,)),
        "active": (np.dtype(np.bool_), (k0,)),
        "rows": (f8, (k0, d)),
        "act": (i8, (k0,)),
        "stale": (i8, (k0,)),
        "assignments": (i8, (3, n)),
        "counts": (i8, (k0,)),
        "sums": (f8, (k0, d)),
        "streaks": (i8, (k0,)),
        "gamma": (f8, (k0,)),
        "gw": (f8, (k0,)),
        "totals": (f8, (2, d)),
        "sum_xx": (f8, (k0, d)),
        "sum_compact": (f8, (k0, d)),
        "terms": (f8, (n, d)),
        # a d x LANE block of objects, then the centroid and scaled rows of up
        # to k0 stale columns
        "pad": (f8, (d * (KERNEL_LANE + 2 * k0),)),
        "row_centroids": (f8, (k0, d)),
        "fell_back": (u1, (k0,)),
        "redo": (u1, (k0,)),
    }


# the arrays a StepRun is handed, whose layout is its caller's
HANDED = {"values", "centroids", "win_counts", "raw_weights", "weights", "active", "rows"}


@pytest.mark.parametrize("n, d, k0", [(10, 2, 3), (70, 5, 11)])
def test_run_buffers_have_the_struct_layout(monkeypatch, n, d, k0):
    # only the values are handed in and checked; every other pointer of the
    # Run lies in an arena of the run, 8-byte aligned, in a region of its
    # own, and the view of that name is the member's dtype and shape there
    checked = checked_buffers(monkeypatch)
    values = np.random.default_rng(n).normal(size=(n, d))
    run = _Run(values, k0)
    assert checked == {"values": (np.dtype(np.float64), (n, d))}
    layouts = run_layouts(n, d, k0)
    pointers = [name for name, kind in _kernel.Run._fields_ if kind is ctypes.c_void_p]
    assert sorted(pointers) == sorted(layouts)
    assert run.buffers.values == values.ctypes.data
    regions = [(run.info_address, run.info_address + run.info.nbytes)]
    for name in pointers[1:]:
        address = getattr(run.buffers, name)
        dtype, shape = layouts[name]
        end = address + dtype.itemsize * int(np.prod(shape))
        (arena,) = [
            arena for arena in run.arenas
            if arena.ctypes.data <= address and end <= arena.ctypes.data + arena.nbytes
        ]
        view = getattr(run, name)
        assert (view.dtype, view.shape) == (dtype, shape), name
        assert view.ctypes.data == address and address % 8 == 0, name
        assert np.shares_memory(view, arena) and view.flags.c_contiguous, name
        regions.append((address, end))
    regions.sort()
    assert all(end <= start for (_, end), (start, _) in zip(regions, regions[1:]))
    assert (run.info.dtype, run.info.shape) == (np.dtype(np.int64), (cpl.INFO_SLOTS,))
    assert np.shares_memory(run.info, run.arenas[cpl.SMALL])


def test_run_cpl_checks_the_values_and_the_seeds(monkeypatch):
    checked = checked_buffers(monkeypatch)
    cpl.run_cpl(DataMatrix(np.random.default_rng(3).normal(size=(30, 2))), cpl.CplConfig(0.05, 7))
    assert checked == {
        "values": (np.dtype(np.float64), (30, 2)), "seeds": (np.dtype(np.int64), (7,)),
    }


def test_a_step_run_checks_every_array_it_is_handed(monkeypatch):
    checked = checked_buffers(monkeypatch)
    n, d, k0 = 12, 3, 4
    values = np.random.default_rng(2).normal(size=(n, d))
    StepRun(values, make_state(values[:k0]), np.full((k0, d), 1.0 / d))
    assert checked == {name: run_layouts(n, d, k0)[name] for name in HANDED}


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
    assert len(members) > 20 and members[-1] == ("redo", ctypes.c_void_p)
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
    assert exported == {"fh_cpl", "fh_kmeans", "fh_ward", "fh_choice"} and uncalled == []


LEVELS = ["x86-64", "x86-64-v3", "x86-64-v4"]
x86_64 = pytest.mark.skipif(
    platform.machine() != "x86_64", reason="the clone levels are x86-64's"
)


def cpu_runs(level: str, directory: Path) -> bool:
    """Whether this CPU runs code built for the x86-64 ``level``, by GCC's
    ``__builtin_cpu_supports`` in a probe built at the default level; False
    where the probe does not build (another compiler or architecture)."""
    source, probe = directory / "probe.c", directory / "probe"
    source.write_text(f'int main(void) {{ return !__builtin_cpu_supports("{level}"); }}\n')
    built = subprocess.run(
        [_kernel.COMPILER, "-o", str(probe), str(source)], capture_output=True
    )
    return built.returncode == 0 and subprocess.run([str(probe)]).returncode == 0


def step_outputs():
    """Every array the kernel's steps write, through ``kernel_steps``: the
    columns over partial blocks and tiles, the distances and two refreshes,
    the second against the first's assignments."""
    rng = np.random.default_rng(6)
    outputs = []
    for d in (1, 4, 16, 17):
        for n in (1, KERNEL_LANE + 11, 2 * KERNEL_LANE + 3):
            k = 2 * KERNEL_TILE + 3
            values = rng.normal(size=(n, d)) * 3.0
            state = make_state(rng.normal(size=(k, d)) * 3.0)
            rows = rng.dirichlet(np.ones(d), size=k)
            run = StepRun(values, state, rows)
            assert run.refresh_columns() == k
            outputs.append(run.sims)
            outputs.append(kernel_steps.dissimilarities(values, state.centroids, rows))
            values, assignments, state, rows = refresh_case(rng, n, d, 9, 7, 5, "spread")
            run = StepRun(values, state, rows)
            run.refresh(assignments)
            # then one object moves: a refresh that keeps the other rows
            moved = assignments.copy()
            moved[-1] = assignments[0]
            run.refresh(moved, assignments)
            outputs.append(rows)
    return outputs


@x86_64
@pytest.mark.parametrize("level", LEVELS)
def test_every_clone_level_gives_the_kernels_bits(level, tmp_path, monkeypatch):
    # the package picks one clone of exps and of tile_terms per CPU; built
    # with the clones compiled out at one level, the steps, a whole run and
    # the k-means give the package's bits. Every level must compile without
    # warnings, whether or not this CPU runs it.
    lib = kernel_steps.build(
        tmp_path, kernel_steps.LEVELS_SOURCE, (f"-march={level}", *WARNINGS)
    )
    symbols = subprocess.run(["nm", lib._name], capture_output=True, text=True).stdout
    assert " i " not in symbols  # no ifunc: one level throughout
    if not cpu_runs(level, tmp_path):
        pytest.skip(f"this CPU does not run {level} code")
    for got, want in zip(_run(lib), _run(_kernel.library())):
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
    for d in (4, 16, 300):
        for got, want in zip(_kmeans(lib, d), _kmeans(_kernel.library(), d)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    want = step_outputs()
    monkeypatch.setattr(kernel_steps, "library", lambda: lib)
    for got, expected in zip(step_outputs(), want, strict=True):
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
