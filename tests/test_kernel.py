"""Building, caching and loading the compiled kernel, and its array guards."""

import ctypes

import numpy as np
import pytest

from fedhire import _kernel
from fedhire.cpl import _dissimilarities


def _epoch(lib, seed=0):
    """One kernel epoch on a random block; returns every array it writes."""
    rng = np.random.default_rng(seed)
    n, k = 60, 7
    sims = rng.uniform(1e-3, 1.0, size=(n, k))
    gamma = rng.uniform(0.0, 1.0, size=k)
    raw = rng.uniform(-7.0, -3.0, size=k)
    weights = np.array([lib.fh_squash(r) for r in raw])
    gw = gamma * weights
    winners = np.empty(n, dtype=np.int64)
    lib.fh_presentation_epoch(sims, n, k, gamma, gw, raw, weights, 0.05, winners)
    return winners, gw, raw, weights


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
    for got, want in zip(_epoch(fresh), _epoch(cached)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for d in (4, 16, 300):
        np.testing.assert_array_equal(
            _distances(fresh, d).view(np.uint64), _distances(cached, d).view(np.uint64)
        )


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
    with pytest.raises(
        _kernel.KernelBuildError,
        match="fedhire-no-such-cc -O2 -shared -fPIC -ffp-contract=off -o ",
    ):
        _kernel.load(tmp_path)
    assert list(tmp_path.iterdir()) == []


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
