"""The static steps of ``_kernel.c``, one call at a time, for the oracle tests.

``fh_cpl`` runs a whole competitive-learning run in one call; its steps
(the seeding, the squash, the similarity columns, the epoch, the orphan
reassignment, the column totals, the blocks of the values, the
feature-weight refresh and the distances) are static in the kernel. ``kernel_steps.c`` includes the
kernel's source and exports each of them, and ``library`` builds it once per
test session with the package's compiler and flags, into a directory of the
session's ``tmp_path_factory`` (set by ``conftest.py``). ``kernel_levels.c``
is the same shim with the kernel's clone attributes compiled out, for builds
at one x86-64 level (``build`` with ``-march``).
"""

import ctypes
import functools
import subprocess
from pathlib import Path

import numpy as np

from fedhire import _kernel
from fedhire.cpl import CPL_ERRORS, _Run

SOURCE = Path(__file__).with_name("kernel_steps.c")
LEVELS_SOURCE = Path(__file__).with_name("kernel_levels.c")
# the session's tmp_path_factory
factory = None


def build(directory: Path, source: Path = SOURCE, flags: tuple = ()) -> ctypes.CDLL:
    """The shim ``source`` compiled into ``directory`` with the package's
    flags and then ``flags``, with its steps and the kernel's exports bound."""
    target = directory / f"{source.stem}.so"
    command = [
        _kernel.COMPILER, *_kernel.FLAGS, *flags, "-I", str(_kernel.SOURCE.parent),
        "-o", str(target), str(source), *_kernel.LIBRARIES,
    ]
    built = subprocess.run(command, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    lib = _kernel.bind(ctypes.CDLL(str(target)))
    run = ctypes.POINTER(_kernel.Run)
    lib.step_seed.argtypes = [run, ctypes.c_void_p]
    lib.step_seed.restype = None
    lib.step_squash.argtypes = [ctypes.c_double]
    lib.step_squash.restype = ctypes.c_double
    lib.step_columns.argtypes = [run]
    lib.step_columns.restype = ctypes.c_int64
    lib.step_epoch.argtypes = [run, ctypes.c_double, ctypes.c_int64]
    lib.step_epoch.restype = ctypes.c_int64
    lib.step_orphans.argtypes = [run, ctypes.c_void_p]
    lib.step_orphans.restype = None
    lib.step_totals.argtypes = [run]
    lib.step_totals.restype = None
    lib.step_blocks.argtypes = [run]
    lib.step_blocks.restype = None
    lib.step_refresh.argtypes = [run, ctypes.c_void_p, ctypes.c_void_p]
    lib.step_refresh.restype = ctypes.c_int64
    # ndpointer refuses a wrong dtype, rank or layout instead of copying
    block = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    pad = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    lib.step_dissimilarities.argtypes = [
        block, ctypes.c_int64, ctypes.c_int64, block, block, ctypes.c_int64, block, pad,
    ]
    lib.step_dissimilarities.restype = None
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The session's shim, built on first use."""
    return build(factory.mktemp("kernel-steps"))


def seeded_run(values: np.ndarray, seeds) -> _Run:
    """A ``_Run`` over ``values`` with the state ``seed_run`` makes of the
    indices ``seeds``, as ``fh_cpl`` starts a run of ``run_cpl``. The arenas
    are filled with 0xAB bytes first, so no buffer the seeding leaves
    unwritten can pass for a seeded one."""
    seeds = np.asarray(seeds, dtype=np.int64)
    run = _Run(values, seeds.size)
    for arena in run.arenas:
        arena.view(np.uint8).fill(0xAB)
    library().step_seed(run.ref, _kernel.address("seeds", seeds, np.int64, seeds.shape))
    return run


def step_squash(raw: float) -> float:
    """The kernel's squash of one raw weight, 1 / (1 + e^{-10(raw + 5)})."""
    return library().step_squash(raw)


def dissimilarities(values, centroids, scaled):
    """n x k squared relative-weighted distances ``||scaled_j ⊙ (x_i - c_j)||²``
    by ``fh_dissimilarities``, of the n x d values and the k x d centroid and
    scaled rows; each argument must be C-contiguous float64."""
    n, d = values.shape
    k = centroids.shape[0]
    out = np.empty((n, k))
    # the values' blocks, each d x LANE
    pad = np.empty(-(-n // _kernel.LANE) * _kernel.LANE * d)
    library().step_dissimilarities(values, n, d, centroids, scaled, k, out, pad)
    return out


class StepRun(_Run):
    """A ``_Run`` on the caller's ``state`` and M ``rows``, whose steps are
    called one at a time, as ``fh_cpl`` calls them, with the engine's errors.

    The kernel reads and writes the arrays of ``state`` and ``rows`` in place
    of the run's own, each checked by ``_kernel.address``; ``fh_cpl`` on the
    run, given no seeds, starts from them. The rest of the run starts as
    ``fh_cpl``'s seeding leaves it: NaN stored rows and row centroids, no
    empty epoch and no fallback. The column totals are added and the values
    blocked once, at construction, as ``fh_cpl`` does before its first
    epoch. The steps
    are those of ``lib``, by default the session's shim; ``fh_cpl`` folds
    with the member floor ``min_members``."""

    def __init__(self, values, state, rows, lib=None, min_members=1):
        n, d = np.shape(values)
        k0 = len(state.centroids)
        handed = {
            "centroids": (state.centroids, np.float64, (k0, d)),
            "win_counts": (state.win_counts, np.int64, (k0,)),
            "raw_weights": (state.raw_weights, np.float64, (k0,)),
            "weights": (state.weights, np.float64, (k0,)),
            "active": (state.active, np.bool_, (k0,)),
            "rows": (rows, np.float64, (k0, d)),
        }
        checked = {name: _kernel.address(name, *spec) for name, spec in handed.items()}
        super().__init__(values, k0, min_members)
        for name, address in checked.items():
            setattr(self.buffers, name, address)
        # held here, so that none is freed while the run lives even if
        # ``state`` gets new arrays, and read in place of the arena's
        self.__dict__.update({name: array for name, (array, _, _) in handed.items()})
        self.state = state
        for name in ("stored_centroids", "stored_rows", "row_centroids"):
            getattr(self, name).fill(np.nan)
        self.streaks.fill(0)
        self.fell_back.fill(0)
        self.lib = lib or library()
        self.epochs = 0
        self.lib.step_totals(self.ref)
        self.lib.step_blocks(self.ref)

    def cpl(self, lib, eta: float, max_epochs: int) -> int:
        """``fh_cpl`` of ``lib`` on the run from its state, without seeds;
        returns its code."""
        return lib.fh_cpl(self.ref, None, eta, max_epochs, self.info_address)

    def refresh_columns(self) -> int:
        """Recompute the active columns whose rows changed; returns how many.

        Their indices are left in ``stale``, ascending.
        """
        return self.lib.step_columns(self.ref)

    def epoch(self, eta: float) -> tuple[np.ndarray, int]:
        """One epoch on fresh columns: the winners and the orphan count.

        The winners go to row e % 3 of the assignment ring at epoch e;
        ``fh_epoch`` updates ``state`` and ``streaks`` in place. Orphans are
        objects whose winner the epoch deactivated; they are not reassigned.
        """
        self.refresh_columns()
        out = self.epochs % 3
        self.epochs += 1
        orphans = self.lib.step_epoch(self.ref, eta, out)
        if orphans < 0:
            raise ValueError(CPL_ERRORS[-4][1])
        return self.assignments[out], orphans

    def reassign_orphans(self, assignments: np.ndarray) -> None:
        """``reassign_orphans``: each object of ``assignments`` whose
        clusterlet is inactive goes to the nearest active one, in place."""
        n = self.values.shape[0]
        self.lib.step_orphans(
            self.ref, _kernel.address("assignments", assignments, np.int64, (n,))
        )

    def refresh(self, assignments: np.ndarray, previous: np.ndarray | None = None) -> int:
        """``fh_refresh`` of ``rows`` from ``assignments``; returns how many
        live rows are uniform fallbacks.

        ``previous`` holds the assignments of the last refresh that
        succeeded; the rows whose members and centroid are unchanged since
        then are kept. ``None`` recomputes every live row.
        """
        n, k0 = self.values.shape[0], len(self.state.centroids)
        if previous is not None:
            # the kernel marks the clusterlet of each previous[i]
            address = _kernel.address("previous", previous, np.int64, (n,))
            if ((previous < 0) | (previous >= k0)).any():
                raise ValueError("previous assignments must lie in [0, k0)")
        fallbacks = self.lib.step_refresh(
            self.ref, _kernel.address("assignments", assignments, np.int64, (n,)),
            None if previous is None else address,
        )
        if fallbacks < 0:
            raise ValueError(CPL_ERRORS[fallbacks][1])
        return fallbacks
