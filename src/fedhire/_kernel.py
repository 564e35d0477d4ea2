"""Build and load ``_kernel.c``, the compiled distances, epoch, refresh and k-means.

The shared library is compiled on first use with the system C compiler and
cached on disk under a name that hashes the C source, the compiler command
and the interpreter's ``EXT_SUFFIX``. The cache is the package's
``__pycache__/`` directory, or a fresh temporary directory when that is not
writable. A build writes to a temporary name and then renames it into place,
so concurrent first uses never load a half-written file, and then deletes
the cached builds of other sources. Once cached, loading compiles nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "cc"
# -ffp-contract=off: no fused multiply-adds, whose single rounding would move
# bits. -fno-trapping-math and -fvect-cost-model=cheap let GCC run the exp
# loop as vector code (without them its comparisons count as control flow);
# neither changes a result. Never -ffast-math, -Ofast or -march=native: the
# first two reorder and reassociate float operations, so results would no
# longer equal the scalar forms in tests/oracles.py, which repeat the
# kernel's order bit for bit, and the cache key does not record the CPU.
FLAGS = (
    "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-trapping-math",
    "-fvect-cost-model=cheap",
)
LIBRARIES = ("-lm",)


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


class Run(ctypes.Structure):
    """``struct fh_run`` of ``_kernel.c``: the sizes and constants of one
    ``run_cpl`` call and the addresses of its numpy buffers, in its order."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in ("n", "d", "k0")),
        ("floor", ctypes.c_double),
        ("threshold", ctypes.c_double),
        ("dead_epochs", ctypes.c_int64),
        *(
            (name, ctypes.c_double)
            for name in ("variance_floor", "entry_tolerance", "row_sum_tolerance")
        ),
        *(
            (name, ctypes.c_void_p)
            for name in (
                "values", "by_feature", "sims", "stored_centroids", "stored_rows",
                "centroids", "win_counts", "raw_weights", "weights", "active",
                "rows", "act", "stale", "assignments", "counts", "sums", "streaks",
                "gamma", "gw", "totals", "sum_xx", "sum_compact", "terms",
            )
        ),
    ]


def address(name: str, array: np.ndarray, dtype, shape: tuple) -> int:
    """The data address of the buffer ``name``, which must be a C-contiguous
    ``dtype`` array of ``shape``. Anything else is refused rather than
    copied, so the kernel always works on the caller's own buffer."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype or array.shape != shape:
        raise ValueError(
            f"{name} must be a {np.dtype(dtype)} array of shape {shape}, got "
            f"{getattr(array, 'dtype', type(array).__name__)} {getattr(array, 'shape', '')}"
        )
    if not array.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous, got strides {array.strides}")
    return array.ctypes.data


def cache_key(source: bytes) -> str:
    """Hash of what the built library depends on: source, command, ABI tag."""
    digest = hashlib.sha256(source)
    for part in (COMPILER, *FLAGS, *LIBRARIES, sysconfig.get_config_var("EXT_SUFFIX")):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:16]


def _library_path(cache: Path) -> Path:
    key = cache_key(SOURCE.read_bytes())
    return Path(cache) / f"_kernel-{key}{sysconfig.get_config_var('EXT_SUFFIX')}"


def load(cache: Path) -> ctypes.CDLL:
    """The kernel library cached in ``cache``, compiled there if missing."""
    target = _library_path(cache)
    if not target.exists():
        _build(target)
    lib = ctypes.CDLL(str(target))
    lib.fh_squash.argtypes = [ctypes.c_double]
    lib.fh_squash.restype = ctypes.c_double
    # ndpointer refuses a wrong dtype, rank or layout instead of copying
    block = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    lib.fh_dissimilarities.argtypes = [
        block, ctypes.c_int64, ctypes.c_int64, block, block, ctypes.c_int64, block,
    ]
    lib.fh_dissimilarities.restype = ctypes.c_int
    # the epoch steps take the Run of buffers that ``address`` checked
    run = ctypes.POINTER(Run)
    lib.fh_columns.argtypes = [run]
    lib.fh_columns.restype = ctypes.c_int64
    lib.fh_epoch.argtypes = [run, ctypes.c_double, ctypes.c_int64]
    lib.fh_epoch.restype = ctypes.c_int64
    # the assignments by the address that ``address`` checked
    lib.fh_refresh.argtypes = [run, ctypes.c_void_p]
    lib.fh_refresh.restype = ctypes.c_int64
    # four sizes, then the buffers by the addresses that ``address`` checked
    lib.fh_kmeans.argtypes = [*(ctypes.c_int64,) * 4, *(ctypes.c_void_p,) * 9]
    lib.fh_kmeans.restype = ctypes.c_int
    return lib


def _build(target: Path) -> None:
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    command = [COMPILER, *FLAGS, "-o", str(partial), str(SOURCE), *LIBRARIES]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except FileNotFoundError:
        raise KernelBuildError(
            f"fedhire needs a C compiler to build its kernel: {' '.join(command)} "
            f"failed because {COMPILER!r} was not found"
        ) from None
    except subprocess.CalledProcessError as exc:
        raise KernelBuildError(
            f"building the fedhire kernel failed: {' '.join(command)}\n{exc.stderr}"
        ) from None
    os.replace(partial, target)
    # the builds of earlier sources are never loaded again; partial builds
    # (".tmp") of other processes end in another suffix and stay
    for stale in target.parent.glob(f"_kernel-*{sysconfig.get_config_var('EXT_SUFFIX')}"):
        if stale != target:
            stale.unlink(missing_ok=True)


@functools.cache
def library() -> ctypes.CDLL:
    """The process's kernel library, from the package cache when writable."""
    cache = SOURCE.parent / "__pycache__"
    if not _library_path(cache).exists():
        try:
            cache.mkdir(exist_ok=True)
        except OSError:
            pass
        if not os.access(cache, os.W_OK):
            cache = Path(tempfile.mkdtemp(prefix="fedhire-kernel-"))
    return load(cache)
