"""Build and load ``_kernel.c``, the compiled distances and presentation loop.

The shared library is compiled on first use with the system C compiler and
cached on disk under a name that hashes the C source, the compiler command
and the interpreter's ``EXT_SUFFIX``. The cache is the package's
``__pycache__/`` directory, or a fresh temporary directory when that is not
writable. A build writes to a temporary name and then renames it into place,
so concurrent first uses never load a half-written file. Once cached, loading
compiles nothing.
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
# bits. Never -ffast-math or -Ofast: they let the compiler reorder and
# reassociate float operations, so results would no longer equal the numpy
# and Python expressions the kernel must reproduce bit for bit.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBRARIES = ("-lm",)


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled."""


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
    floats = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    lib.fh_presentation_epoch.argtypes = [
        block, ctypes.c_int64, ctypes.c_int64,
        floats, floats, floats, floats, ctypes.c_double, ints,
    ]
    lib.fh_presentation_epoch.restype = None
    lib.fh_dissimilarities.argtypes = [
        block, ctypes.c_int64, ctypes.c_int64, block, block, ctypes.c_int64, block,
    ]
    lib.fh_dissimilarities.restype = ctypes.c_int
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
