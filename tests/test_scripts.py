"""The timing scripts still run against the current ``_Run`` and ``run_cpl``.

``scripts/time_columns.py`` and ``scripts/time_refresh.py`` reach into a
``_Run``'s buffers and step it through the test shim, and
``scripts/time_run_overhead.py`` times ``run_cpl`` around its kernel call;
one small call of each keeps them in step with the package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kernel_steps
from fedhire import _kernel

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# one small call of each script's timing function; best_ns asserts what each
# timed call did: every column recomputed, or one row redone after one move
CALLS = {
    "time_columns": lambda script: script.best_ns(kernel_steps.library(), 64, 8, 4),
    "time_refresh": lambda script: script.best_ns(kernel_steps.library(), 64, 8, 4),
    "time_run_overhead": lambda script: script.overhead_us(64, 8, 4),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_timing_script_runs(name, monkeypatch):
    # the script puts src/ (and tests/) on sys.path; the monkeypatch undoes it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "REPEATS", 1)
    library = _kernel.library
    times = np.asarray(CALLS[name](script))
    assert np.isfinite(times).all() and (times > 0).all()
    assert _kernel.library is library
