"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``neelwall`` from outside: it rebinds
the name in every module that imported the function (``dynamics.energy``,
``profiles.solve_static``, ...) or the attribute of the class that defines it
(``ResolventCalculator.norm_inv``).  Each call becomes a span with a name, a
parent, a start, an end and a phase ("setup" or "round").  Spans stay in
memory and are written out when the run ends.

The hottest primitives (``numpy.fft.fft``/``ifft`` and
``scipy.linalg.solve_triangular``) are called hundreds of thousands of times
per round; they are counted and timed in aggregate instead of as spans, so
their time stays inside the self time of the span that called them.
"""
from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.fft
import scipy.linalg

ASSEMBLY = ("linops.build_L", "linops.build_Lc", "linops.build_block",
            "linops.build_Bc")


class Tracer:
    def __init__(self):
        # span: [name, parent index, start, end, phase, info]
        self.spans: list = []
        self.phase = "setup"
        self.leaf_calls: dict = defaultdict(int)    # (phase, name) -> calls
        self.leaf_time: dict = defaultdict(float)   # (phase, name) -> seconds
        self._stack: list = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0,
                   self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                rec[5] = on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, key, fn):
        calls, total, clock = self.leaf_calls, self.leaf_time, time.perf_counter

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                k = (self.phase, key(args) if callable(key) else key)
                total[k] += clock() - t
                calls[k] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace fn by wrapper in every neelwall module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname == "neelwall" or modname.startswith("neelwall."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, wrapper)

    # -- install / remove --------------------------------------------------

    def install(self):
        # the package re-exports the function energy.energy under the
        # submodule's name, so modules are taken from sys.modules
        dynamics, energy, grid, linops, profiles, regions, spectra = (
            importlib.import_module(f"neelwall.{m}")
            for m in ("dynamics", "energy", "grid", "linops", "profiles",
                      "regions", "spectra"))

        def iterations(args, kwargs, prof):
            return {"iterations": prof.meta.get("iterations", 0)}

        def nbytes(args, kwargs, op):
            return {"nbytes": op.matrix.nbytes}

        def samples(args, kwargs, sweep):
            return {"samples": len(sweep.samples)}

        def shortcut(args, kwargs, value):
            ninv = kwargs.get("ninv")
            return {"shortcut": ninv is not None
                    and abs(args[1]) * ninv >= 50.0}

        def check_samples(args, kwargs, checks):
            return {"samples": sum(c.n_samples for c in checks)}

        def steps(args, kwargs, trace):
            config = args[1] if len(args) > 1 else kwargs["config"]
            return {"steps": int(round(config.t_end / config.dt)),
                    "frames": len(trace.times)}

        functions = [
            (energy.energy, "energy.energy", None),
            (energy.grad_energy, "energy.grad_energy", None),
            (grid.shift, "grid.shift", None),
            (profiles.solve_static, "profiles.solve_static", iterations),
            (profiles.solve_traveling, "profiles.solve_traveling", iterations),
            (profiles.mobility, "profiles.mobility", None),
            (linops.build_L, "linops.build_L", nbytes),
            (linops.build_Lc, "linops.build_Lc", nbytes),
            (linops.build_block, "linops.build_block", nbytes),
            (linops.build_Bc, "linops.build_Bc", nbytes),
            (linops.null_pair, "linops.null_pair", None),
            (spectra.eig_report, "spectra.eig_report", None),
            (spectra.relative_bound_fit, "spectra.relative_bound_fit", None),
            (spectra.numerical_abscissa, "spectra.numerical_abscissa", None),
            (spectra.resolvent_sweep, "spectra.resolvent_sweep", samples),
            (regions.run_all_checks, "regions.run_all_checks", check_samples),
            (dynamics.integrate, "dynamics.integrate", steps),
            (dynamics.modulate, "dynamics.modulate", None),
            (dynamics.decay_fit, "dynamics.decay_fit", None),
            (dynamics.taylor_translation_check,
             "dynamics.taylor_translation_check", None),
            (dynamics.quadratic_remainder_check,
             "dynamics.quadratic_remainder_check", None),
            (dynamics.orbital_experiment, "dynamics.orbital_experiment", None),
        ]
        for fn, name, hook in functions:
            self._rebind(fn, self._span(name, fn, hook))

        calc = spectra.ResolventCalculator
        for attr, name, hook in (("__init__", "spectra.schur", None),
                                 ("norm_inv", "spectra.norm_inv", None),
                                 ("norm_composed", "spectra.norm_composed",
                                  shortcut)):
            self._set(calc, attr, self._span(name, calc.__dict__[attr], hook))

        self._set(scipy.linalg, "lu_factor",
                  self._span("scipy.lu_factor", scipy.linalg.lu_factor))
        for attr in ("fft", "ifft"):
            self._set(numpy.fft, attr, self._leaf("fft", getattr(numpy.fft, attr)))

        def trsv_key(args):
            fp64 = np.asarray(args[0]).dtype in (np.complex128, np.float64)
            return "trsv_fp64" if fp64 else "trsv_fp32"
        self._set(scipy.linalg, "solve_triangular",
                  self._leaf(trsv_key, scipy.linalg.solve_triangular))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "parent", "name", "phase", "start", "end"])
            for i, (name, parent, start, end, phase, _) in enumerate(self.spans):
                out.writerow([i, parent, name, phase, f"{start:.9f}",
                              f"{end:.9f}"])

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures of one pass: the set-up plus one round (the
        round totals divided by the number of rounds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def parent_name(i):
            p = spans[i][1]
            return spans[p][0] if p >= 0 else None

        def under(i, target):
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] == target:
                    return True
                p = spans[p][1]
            return False

        acc = {"setup": defaultdict(float), "round": defaultdict(float)}
        for i, (name, parent, start, end, phase, info) in enumerate(spans):
            m = acc[phase]
            d = end - start
            info = info or {}
            if name == "energy.energy":
                m["energy.energy_calls"] += 1
                m["energy.energy_s"] += d
            elif name == "energy.grad_energy":
                m["energy.grad_calls"] += 1
                m["energy.grad_s"] += d
            elif name == "profiles.solve_static":
                m["profiles.static_solves"] += 1
                m["profiles.static_s"] += d
                m["profiles.static_iterations"] += info.get("iterations", 0)
            elif name == "profiles.solve_traveling":
                m["profiles.traveling_solves"] += 1
                m["profiles.traveling_s"] += d
                m["profiles.newton_iterations"] += info.get("iterations", 0)
            elif name == "scipy.lu_factor":
                if under(i, "profiles.solve_traveling"):
                    m["profiles.lu_factorizations"] += 1
            elif name in ASSEMBLY:
                m["linops.assembly_calls"] += 1
                m["linops.dense_bytes"] += info.get("nbytes", 0)
                if parent_name(i) not in ASSEMBLY:
                    m["linops.assembly_s"] += d
            elif name == "linops.null_pair":
                m["linops.null_pair_calls"] += 1
                m["linops.null_pair_s"] += d
            elif name == "spectra.eig_report":
                m["spectra.eig_report_calls"] += 1
                m["spectra.eig_report_s"] += d
            elif name == "spectra.relative_bound_fit":
                m["spectra.relative_bound_s"] += d
            elif name == "spectra.schur":
                m["spectra.schur_s"] += d
            elif name == "spectra.numerical_abscissa":
                m["spectra.abscissa_s"] += d
            elif name == "spectra.resolvent_sweep":
                m["spectra.lambda_samples"] += info.get("samples", 0)
            elif name == "spectra.norm_inv":
                m["spectra.norm_inv_calls"] += 1
                m["spectra.norm_inv_s"] += d
                if parent_name(i) == "spectra.resolvent_sweep":
                    if info.get("raised") == "ValueError":
                        m["spectra.nudged_lambdas"] += 1
                    elif "raised" not in info:
                        m["_computed_lambdas"] += 1
            elif name == "spectra.norm_composed":
                m["spectra.norm_composed_calls"] += 1
                m["spectra.norm_composed_shortcuts"] += int(
                    bool(info.get("shortcut")))
            elif name == "regions.run_all_checks":
                m["regions.checks_s"] += d
                m["regions.samples"] += info.get("samples", 0)
            elif name == "dynamics.integrate":
                m["dynamics.integrate_calls"] += 1
                m["dynamics.steps"] += info.get("steps", 0)
                m["dynamics.frames"] += info.get("frames", 0)
                m["dynamics.integrate_s"] += d
                m["dynamics.step_self_s"] += d - child[i]
            elif name == "dynamics.modulate":
                m["dynamics.modulate_s"] += d
            elif name == "grid.shift":
                if parent_name(i) == "dynamics.modulate":
                    m["dynamics.shift_calls"] += 1
            elif name == "dynamics.decay_fit":
                m["dynamics.decay_fit_s"] += d
            elif name in ("dynamics.taylor_translation_check",
                          "dynamics.quadratic_remainder_check"):
                m["dynamics.remainder_checks_s"] += d

        for (phase, key), calls in self.leaf_calls.items():
            m = acc[phase]
            t = self.leaf_time[(phase, key)]
            if key == "fft":
                m["grid.fft_calls"] += calls
                m["grid.fft_s"] += t
            else:
                m["spectra.triangular_solves"] += calls
                m["spectra.solve_s"] += t
                if key == "trsv_fp64":
                    m["spectra.triangular_solves_fp64"] += calls

        for m in acc.values():
            m["spectra.conj_cache_hits"] = (m["spectra.lambda_samples"]
                                            - m["_computed_lambdas"])

        rounds = max(rounds, 1)
        out = {}
        for key in set(acc["setup"]) | set(acc["round"]):
            out[key] = acc["setup"][key] + acc["round"][key] / rounds
        # a Lanczos iteration costs one forward and one adjoint solve
        computed = out.pop("_computed_lambdas", 0.0)
        out["spectra.lanczos_iters_per_lambda"] = (
            0.5 * out.get("spectra.triangular_solves", 0.0) / computed
            if computed else 0.0)
        return out
