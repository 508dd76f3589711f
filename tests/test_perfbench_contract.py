"""perfbench/tracer.py wraps neelwall functions and methods by name, so a
deleted or renamed one would break only the traced benchmark run: the
recorder must install, and removing it must restore every patched object."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy.fft
import scipy.linalg

from neelwall import spectra

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patched():
    return (numpy.fft.fft, scipy.linalg.lu_factor,
            spectra.ResolventCalculator.__init__,
            spectra.ResolventCalculator.norm_inv, spectra.resolvent_sweep)


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = _patched()
    tracer = module.Tracer()
    try:
        tracer.install()
        assert all(a is not b for a, b in zip(_patched(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_patched(), before))
