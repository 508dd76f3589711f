"""The benchmark under perfbench/ calls neelwall by name, so a deleted or
renamed function, method or keyword would break only a benchmark run.

perfbench/tracer.py wraps functions and methods by name: the recorder must
install, and removing it must restore every patched object.  The workloads
in perfbench/workloads.py pass keywords: each must still be a parameter of
the function or class it is passed to."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy.fft
import scipy.linalg

from neelwall import profiles, spectra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_mobility_solves_through_module_attribute(grid256, static256,
                                                  monkeypatch):
    # the tracer counts traveling solves by rebinding
    # profiles.solve_traveling: mobility must call it through the module,
    # once per field (18 per round of the mobility workload)
    fields = [-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3]
    calls = []
    inner = profiles.solve_traveling

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)
    monkeypatch.setattr(profiles, "solve_traveling", counted)
    profiles.mobility(grid256, 1.0, fields, static=static256)
    assert sorted(calls) == sorted(fields)


def _neelwall_calls(tree):
    """(callee, call node) of every call in the module whose callee resolves,
    through the module's own `from neelwall... import` names and attribute
    access, to a function or class defined in neelwall."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("neelwall"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return getattr(resolve(expr.value), expr.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = resolve(node.func)
            if callable(callee) and callee.__module__.startswith("neelwall"):
                yield callee, node


def test_workload_keywords_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    checked = 0
    for callee, call in _neelwall_calls(tree):
        params = inspect.signature(callee).parameters
        for kw in call.keywords:
            assert kw.arg in params, (
                f"perfbench/workloads.py:{call.lineno} passes {kw.arg}= to "
                f"{callee.__module__}.{callee.__qualname__}")
            checked += 1
    # the workloads pass keywords to the solvers, the sweep, the fits, the
    # region checks and the simulation set-up
    assert checked >= 20
