"""The timing scripts still run against the current ``_Run``.

``scripts/time_columns.py`` and ``scripts/time_refresh.py`` reach into a
``_Run``'s buffers and step it through the test shim; one small call of each
keeps them in step with it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kernel_steps

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["time_columns", "time_refresh"])
def test_timing_script_runs(name, monkeypatch):
    # the script puts src/ and tests/ on sys.path; the monkeypatch undoes it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "REPEATS", 1)
    # best_ns asserts what each timed call did: every column recomputed, or
    # one row redone after one move
    assert np.isfinite(script.best_ns(kernel_steps.library(), 64, 8, 4)).all()
