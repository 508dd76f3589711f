"""Command-line entry points.

Every subcommand writes its output files into ``--out`` and finishes by
writing ``manifest.json`` (the commit marker): the resolved configuration,
grid, seeds, version, wall-clock, output list, and a periodization
diagnostic (cos theta halfway between the two leftmost grid points, which
measures how far the wall is from saturating at the domain edge).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (_ORBITAL_H_MAX, ModulationError, SimConfig,
                       decay_fit, integrate, orbital_experiment)
from .energy import gradient_selftest
from .grid import Field, Grid, apply_multiplier
from .linops import build_Bc, build_block, build_L
from .profiles import (Profile, check_field, mobility, mobility_fields,
                       solve_static, solve_traveling)
from .regions import RegionParams, run_all_checks
from .reports import _json_value, store_profile, write_report
from .spectra import (ResolventCalculator, eig_report, pencil_gap,
                      relative_bound_fit, resolvent_sweep)

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3

SUBCOMMANDS = ("solve-static", "solve-moving", "mobility", "spectrum",
               "resolvent-sweep", "relative-bound", "simulate", "orbital",
               "appendix-check")

DEFAULTS = {
    "L": 40.0,
    "n": 2048,
    "nu": 1.0,
    "H": "0.001",
    "delta": None,
    "dt": 0.01,
    "t_end": None,
    "seed": 0,
    "out": ".",
    "mode": "nonlocal",
}


def _positive(text: str) -> float:
    """argparse type of --L, --nu, --delta, --dt, --t-end: finite, > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an int >= 0, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class ConfigError(ValueError):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="neelwall",
                     description="Static and moving wall profiles of the "
                                 "reduced thin-film model: solvers, spectra, "
                                 "resolvent sweeps, and simulations.")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--L", type=_positive, help="domain half-length")
    parser.add_argument("--n", type=int, help="grid size (power of two)")
    parser.add_argument("--nu", type=_positive, help="damping")
    parser.add_argument("--H", type=str,
                        help="applied field; comma list for mobility scans")
    parser.add_argument("--delta", type=_positive,
                        help="contour half-width (default from the gap)")
    parser.add_argument("--dt", type=_positive, help="time step")
    parser.add_argument("--t-end", type=_positive, help="simulation end time")
    parser.add_argument("--seed", type=_seed,
                        help="master seed of appendix-check's samples")
    parser.add_argument("--out", type=str, help="output directory")
    parser.add_argument("--config", type=str,
                        help="flat key = value config file; flags override")
    parser.add_argument("--mode", choices=("nonlocal", "local"),
                        help="stray-field model (local replaces T by 1)")
    parser.set_defaults(**DEFAULTS)
    return parser


def _config_tokens(path) -> list[str]:
    """Each `key = value` line of a config file as a `--key=value` token."""
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key = key.strip()
                if key.replace("-", "_") not in DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                tokens.append(f"--{key.replace('_', '-')}={val.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return tokens


def resolve_config(argv: list[str]) -> tuple[str, dict]:
    """(command, config): defaults < config file < command-line flags, all
    read and checked by the one parser."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(_config_tokens(args.config) + argv)
    return args.command, {key: getattr(args, key) for key in DEFAULTS}


def _field_list(config) -> list[float]:
    try:
        return [float(tok) for tok in str(config["H"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad field list {config['H']!r}") from exc


def _single_field(config) -> float:
    fields = _field_list(config)
    if len(fields) != 1:
        raise ConfigError(f"this command takes a single field value, got {fields}")
    return fields[0]


def _periodization(profile: Profile) -> float:
    """cos theta at -L + dx/2 (linear interpolation between the first two
    samples): how imperfectly the phase saturates at the edge."""
    ct = np.cos(profile.reconstruct())
    return float(0.5 * (ct[0] + ct[1]))


def _write_manifest(out_dir, command, config, grid, outputs,
                    periodization, t0, scalars=None):
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "grid": {"L": grid.L, "n": grid.n, "dx": grid.dx},
        # the seeds drawn from: only appendix-check samples at random
        "seeds": ({"master": config["seed"]} if command == "appendix-check"
                  else {}),
        "version": __version__,
        "wall_clock_seconds": time.monotonic() - t0,
        # the process's peak resident set so far (ru_maxrss is in KiB)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": sorted(outputs),
        "periodization_cos_theta_edge": periodization,
    }
    if scalars:
        # non-finite scalars as write_report writes them ("nan"): JSON
        # has no NaN
        manifest["scalars"] = {k: _json_value(v) for k, v in scalars.items()}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _delta(config, Lambda0: float) -> float:
    """--delta, by default 0.4 times the gap of A, the pencil's (below
    Lambda0 for large nu)."""
    delta = config["delta"]
    return 0.4 * pencil_gap(config["nu"], Lambda0) if delta is None else delta


def _static_tol(grid: Grid) -> float:
    # the reachable residual is limited by the seam layer of the periodized
    # wall and scales with the grid spacing; 1e-8 is attainable at the
    # default grid (dx ~ 0.04) but not on coarse exploratory grids
    return max(1e-8, 1e-6 * grid.dx**2)


def _static(grid: Grid, config) -> Profile:
    """The static wall, carrying the configured damping nu."""
    prof = solve_static(grid, tol=_static_tol(grid), mode=config["mode"])
    return dataclasses.replace(prof, nu=config["nu"])


def _require_nonlocal(config):
    if config["mode"] != "nonlocal":
        raise ConfigError("moving-wall commands require --mode nonlocal")


def _wall(grid: Grid, config, H: float) -> tuple[Profile, Profile]:
    """(static, wall): the static wall, and the wall at field H continued
    from it (the static wall itself at H = 0).  H is checked before the
    static solve."""
    if H != 0.0:
        _require_nonlocal(config)
    check_field(H)
    static = _static(grid, config)
    if H == 0.0:
        return static, static
    return static, solve_traveling(grid, H, config["nu"], static)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (profile-for-diagnostic, outputs, scalars)


def _cmd_solve_static(grid, config, out):
    prof = _static(grid, config)
    path = os.path.join(out, "static_profile.neelw")
    store_profile(prof, path)
    return prof, [path], {"residual": prof.residual,
                          "energy_mode": config["mode"],
                          "newton_steps": prof.meta["newton_steps"],
                          "krylov_iterations": prof.meta["krylov_iterations"]}


def _cmd_solve_moving(grid, config, out):
    _require_nonlocal(config)
    H = check_field(_single_field(config))
    prof = solve_traveling(grid, H, config["nu"], _static(grid, config))
    path = os.path.join(out, "moving_profile.neelw")
    store_profile(prof, path)
    return prof, [path], {"c": prof.c, "residual": prof.residual,
                          "newton_steps": prof.meta["newton_steps"],
                          "krylov_iterations": prof.meta["krylov_iterations"]}


def _cmd_mobility(grid, config, out):
    _require_nonlocal(config)
    fields = mobility_fields(_field_list(config))
    static = _static(grid, config)
    fit = mobility(grid, config["nu"], fields, static=static)
    rows = [{"H": H, "c": c,
             "beta_measured": fit.beta_measured,
             "beta_predicted": fit.beta_predicted,
             "M": fit.M, "fit_error": fit.fit_error}
            for H, c in sorted(fit.speeds.items())]
    path = os.path.join(out, "mobility.csv")
    write_report(rows, "csv", path)
    return static, [path], {"beta_measured": fit.beta_measured,
                            "beta_predicted": fit.beta_predicted,
                            "newton_steps": sum(fit.newton_steps.values()),
                            "krylov_iterations":
                                sum(fit.krylov_iterations.values())}


def _cmd_spectrum(grid, config, out):
    H = _single_field(config)
    _, prof = _wall(grid, config, H)
    report = eig_report(build_L(prof) if H == 0.0
                        else build_block(prof, with_c=True))
    path = os.path.join(out, "spectrum.csv")
    write_report(report, "csv", path)
    scalars = {"lambda0_re": report.lambda0.real,
               "lambda0_im": report.lambda0.imag,
               "gap": report.gap,
               **{k: report.meta[k] for k in ("solver", "structure_residual")
                  if k in report.meta}}
    if report.Lambda0_num is not None:
        scalars["Lambda0"] = report.Lambda0_num
    return prof, [path], scalars


def _cmd_resolvent_sweep(grid, config, out):
    prof = _static(grid, config)
    A = build_block(prof, with_c=False)
    calc = ResolventCalculator(A)
    delta = _delta(config, A.modes[0][1])   # Lambda0 from calc's eigh(L)
    sweep = resolvent_sweep(A, delta, calc=calc)
    csv_path = os.path.join(out, "resolvent_sweep.csv")
    write_report(sweep, "csv", csv_path)
    summary = {"delta": delta, "w": sweep.w, "M1": sweep.M1,
               "flagged": sweep.flagged,
               "envelope_margin": sweep.envelope_margin,
               **{f"sup_{k}": v for k, v in sweep.sup_by_region.items()}}
    json_path = os.path.join(out, "resolvent_summary.jsonl")
    write_report(summary, "json-lines", json_path)
    return prof, [csv_path, json_path], {
        "delta": delta, "sup_G": sweep.sup_G, "w": sweep.w,
        "krylov_steps_mean": sweep.krylov_steps_mean,
        "krylov_steps_max": sweep.krylov_steps_max}


def _cmd_relative_bound(grid, config, out):
    static, moving = _wall(grid, config, _single_field(config))
    A = build_block(static, with_c=False)
    Bc = build_Bc(moving, static)
    point = relative_bound_fit(A, Bc)
    path = os.path.join(out, "relative_bound.jsonl")
    write_report({"c": point.c, "H": point.H, "a": point.a, "b": point.b},
                 "json-lines", path)
    return static, [path], {"a": point.a, "b": point.b, "c": point.c}


def _sim_config(config) -> SimConfig:
    nu = config["nu"]
    t_end = config["t_end"]
    if t_end is None:
        t_end = max(20.0, 12.0 / nu)
    return SimConfig(dt=config["dt"], t_end=t_end, nu=nu,
                     H=check_field(_single_field(config)))


def _cmd_simulate(grid, config, out):
    sim = _sim_config(config)
    _, ref = _wall(grid, config, sim.H)
    trace = integrate(grid, sim, ref)
    path = os.path.join(out, "trace.csv")
    write_report(trace, "csv", path)
    fit = decay_fit(trace)
    return ref, [path], {"decay_rate": fit.omega, "decay_r2": fit.r2,
                         "final_defect": float(trace.defect[-1])}


def _cmd_orbital(grid, config, out):
    sim = _sim_config(config)     # refuses t_end < 10/nu before a solve
    if not abs(sim.H) <= _ORBITAL_H_MAX:
        raise ConfigError(f"orbital requires |H| <= {_ORBITAL_H_MAX}")
    _, ref = _wall(grid, config, sim.H)
    verdict = orbital_experiment(grid, sim.H, sim.perturbation, ref.nu, ref,
                                 dt=sim.dt, t_end=sim.t_end)
    outputs = []
    if verdict.trace is not None:
        outputs.append(os.path.join(out, "orbital_trace.csv"))
        write_report(verdict.trace, "csv", outputs[-1])
    fit = verdict.fit
    summary = {"stable": verdict.stable,
               "decay_rate": fit.omega if fit else float("nan"),
               "decay_r2": fit.r2 if fit else float("nan"),
               "wall_speed": verdict.wall_speed,
               "c_reference": verdict.c_reference,
               "a2_ratio": verdict.a2_ratio,
               "a2_bound": verdict.a2_bound,
               "a3_exponent": verdict.a3_exponent}
    if "failure" in verdict.meta:
        summary["failure"] = verdict.meta["failure"]
    outputs.append(os.path.join(out, "orbital_verdict.jsonl"))
    write_report(summary, "json-lines", outputs[-1])
    return ref, outputs, {
        "stable": bool(verdict.stable), "wall_speed": verdict.wall_speed}


def _cmd_appendix_check(grid, config, out):
    prof = _static(grid, config)
    nu = config["nu"]
    Lambda0 = eig_report(build_L(prof)).Lambda0_num
    beta = 0.9
    delta = min(_delta(config, Lambda0), 0.49 * beta * nu)
    params = RegionParams(nu=nu, delta=delta, Lambda0=Lambda0, beta=beta)
    checks = run_all_checks(params, seed=config["seed"])
    rows = [{"name": c.name, "n_samples": c.n_samples, "seed": c.seed,
             "passed": c.passed, "observed": c.observed, "bound": c.bound}
            for c in checks]
    path = os.path.join(out, "appendix_report.jsonl")
    write_report(rows, "json-lines", path)
    return prof, [path], {"all_passed": all(c.passed for c in checks),
                          "Lambda0": Lambda0, "delta": delta}


_COMMANDS = {
    "solve-static": _cmd_solve_static,
    "solve-moving": _cmd_solve_moving,
    "mobility": _cmd_mobility,
    "spectrum": _cmd_spectrum,
    "resolvent-sweep": _cmd_resolvent_sweep,
    "relative-bound": _cmd_relative_bound,
    "simulate": _cmd_simulate,
    "orbital": _cmd_orbital,
    "appendix-check": _cmd_appendix_check,
}


def _startup_selftest():
    """Cheap gradient-vs-finite-difference check on a small grid; aborts the
    run if the energy gradient is inconsistent (nothing downstream can be
    trusted then)."""
    g = Grid(20.0, 64)
    rng = np.random.default_rng(12345)
    w = 0.05 * apply_multiplier(g, rng.standard_normal(g.n),
                                np.abs(g.k) <= 2.0)
    theta = Field(g, w, "wall")
    err = gradient_selftest(theta)
    if err > 1e-6:
        raise RuntimeError(
            f"startup self-test failed: gradient inconsistency {err:.3e}")


def run(argv=None) -> int:
    """Exit 0 on success, 2 on a solver failure (SolverError and
    BlowUpError are RuntimeErrors, and LinAlgError a ValueError) and 3 on
    a rejected input."""
    t0 = time.monotonic()
    try:
        command, config = resolve_config(
            sys.argv[1:] if argv is None else list(argv))
        grid = Grid(config["L"], config["n"])
        out = config["out"]
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory: {exc}") from exc
        _startup_selftest()
        profile, outputs, scalars = _COMMANDS[command](grid, config, out)
    except (RuntimeError, ModulationError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(out, command, config, grid, outputs,
                    _periodization(profile), t0, scalars)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
