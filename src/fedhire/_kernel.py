"""Build and load ``_kernel.c``: the compiled competitive learning, k-means and Ward.

The shared library is compiled on first use with the system C compiler and
cached on disk under a name that hashes the C source, the compiler command
and the interpreter's ``EXT_SUFFIX``. The cache is the package's
``__pycache__/`` directory; when that is not writable, the user's
``$XDG_CACHE_HOME/fedhire`` (``~/.cache/fedhire``), used only while the user
owns it and no one else may write to it; and only when neither is usable, a
fresh temporary directory, deleted at exit. A build writes to a temporary
name of its own process and thread and then renames it into place, so
concurrent first uses never load a half-written file, and then deletes the
cached builds of other sources.
Once cached, loading compiles nothing.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
PACKAGE_CACHE = SOURCE.parent / "__pycache__"
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
# objects per block of the distances, LANE of _kernel.c, which sizes the
# kernel's scratch pads
LANE = 64


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


class Run(ctypes.Structure):
    """``struct fh_run`` of ``_kernel.c``: the sizes and constants of one
    ``run_cpl`` call and the addresses of its numpy buffers, in its order
    (every buffer but the values lies in an arena of ``cpl._Run``)."""

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
                "values", "sims", "stored_centroids", "stored_rows", "centroids",
                "win_counts", "raw_weights", "weights", "active", "rows", "act",
                "stale", "assignments", "counts", "sums", "streaks", "gamma", "gw",
                "totals", "sum_xx", "sum_compact", "terms", "pad",
                "row_centroids", "fell_back", "redo",
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
    return bind(ctypes.CDLL(str(target)))


def bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib`` with the argument and result types of the kernel's exports."""
    # the Run of the call's buffers, the address of the k0 seed indices (or
    # NULL for a run whose state is already in place), eta, max_epochs and
    # the address of the int64 info array
    lib.fh_cpl.argtypes = [
        ctypes.POINTER(Run), ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
        ctypes.c_void_p,
    ]
    lib.fh_cpl.restype = ctypes.c_int64
    # four sizes, then the buffers by the addresses that ``address`` checked
    lib.fh_kmeans.argtypes = [*(ctypes.c_int64,) * 4, *(ctypes.c_void_p,) * 9]
    lib.fh_kmeans.restype = None
    # m and d, then the buffers by the addresses that ``address`` checked
    lib.fh_ward.argtypes = [*(ctypes.c_int64,) * 2, *(ctypes.c_void_p,) * 6]
    lib.fh_ward.restype = None
    # the seed, n, k, and the addresses of the k int64 draws and of the n
    # int64 entries of scratch
    lib.fh_choice.argtypes = [
        ctypes.c_uint64, *(ctypes.c_int64,) * 2, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.fh_choice.restype = None
    return lib


def _build(target: Path) -> None:
    # named by process and thread, so concurrent builds never share a file
    partial = target.with_name(f"{target.name}.{os.getpid()}.{threading.get_native_id()}.tmp")
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
    # (".tmp") of other processes and threads end in another suffix and stay
    for stale in target.parent.glob(f"_kernel-*{sysconfig.get_config_var('EXT_SUFFIX')}"):
        if stale != target:
            stale.unlink(missing_ok=True)


def _writable(cache: Path) -> bool:
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        return False
    return os.access(cache, os.W_OK)


def _user_cache() -> Path | None:
    """``$XDG_CACHE_HOME/fedhire``, or ``~/.cache/fedhire`` when that variable
    is unset or relative, made with mode 0700; ``None`` unless it is a real
    directory of the current user that neither group nor others may write,
    so a library is never loaded from a path that someone else controls."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = Path(base) / "fedhire"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = cache.lstat()
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        or not os.access(cache, os.W_OK)
    ):
        return None
    return cache


@functools.cache
def library() -> ctypes.CDLL:
    """The process's kernel library, from the first usable cache."""
    if _library_path(PACKAGE_CACHE).exists() or _writable(PACKAGE_CACHE):
        return load(PACKAGE_CACHE)
    cache = _user_cache()
    if cache is None:
        cache = Path(tempfile.mkdtemp(prefix="fedhire-kernel-"))
        atexit.register(shutil.rmtree, cache, True)
    return load(cache)
