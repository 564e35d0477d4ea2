"""The timing scripts still run against the current ``_Run`` and ``run_cpl``.

``scripts/time_columns.py`` and ``scripts/time_refresh.py`` reach into a
``_Run``'s buffers and step it through the test shim, and
``scripts/time_run_overhead.py`` times ``run_cpl`` around its kernel call,
and ``scripts/time_outside_kernel.py`` times ``run_one_shot``'s layers
around theirs and counts the rows stacked for the server; one small call of each keeps them in step with the package,
and each must put back every name it wraps.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kernel_steps
from fedhire import _kernel, federation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def outside_kernel(script) -> list:
    """The milliseconds of one small call of ``outside_ms``, each layer's
    and the total, then its stacked rows: the clients' uploads, at most
    each client's k0 = 8."""
    ms, rows = script.outside_ms(240, 4, 8)
    assert isinstance(rows, int) and 0 < rows <= 8 * script.CLIENTS
    return [*ms.values(), rows]

# one small call of each script's timing function; best_ns asserts what each
# timed call did: every column recomputed, or one row redone after one move
CALLS = {
    "time_columns": lambda script: script.best_ns(kernel_steps.library(), 64, 8, 4),
    "time_refresh": lambda script: script.best_ns(kernel_steps.library(), 64, 8, 4),
    "time_run_overhead": lambda script: script.overhead_us(64, 8, 4),
    "time_outside_kernel": outside_kernel,
}
# the layer functions that time_outside_kernel wraps where run_one_shot looks
# them up
LAYERS = ("fragment_partition", "run_fcpl", "run_mcpl", "final_clustering")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_timing_script_runs(name, monkeypatch):
    # the script puts src/ (and tests/) on sys.path; the monkeypatch undoes it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "REPEATS", 1)
    library = _kernel.library
    layers = {layer: getattr(federation, layer) for layer in LAYERS}
    times = np.asarray(CALLS[name](script))
    assert np.isfinite(times).all() and (times > 0).all()
    assert _kernel.library is library
    assert {layer: getattr(federation, layer) for layer in LAYERS} == layers
