"""Command-line interface: config resolution, exit codes, manifests.

All commands run in-process through run(argv) on a small grid.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from neelwall import cli, dynamics, profiles, spectra
from neelwall.cli import (
    DEFAULTS, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, SUBCOMMANDS, _COMMANDS, run,
)
from neelwall.grid import Grid
from neelwall.profiles import solve_static
from neelwall.reports import load_profile

SMALL = ["--L", "40", "--n", "256"]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _manifest(out):
    """The manifest, read by a parser that refuses NaN and Infinity."""
    with open(out / "manifest.json") as fh:
        return json.load(fh, parse_constant=_not_json)


def test_every_subcommand_has_a_body():
    assert set(SUBCOMMANDS) == set(_COMMANDS)


def test_solve_static_writes_profile_and_manifest(tmp_path):
    code = run(["solve-static", *SMALL, "--out", str(tmp_path)])
    assert code == EXIT_OK
    m = _manifest(tmp_path)
    assert m["command"] == "solve-static"
    assert m["grid"] == {"L": 40.0, "n": 256, "dx": 40.0 * 2 / 256}
    assert m["seeds"] == {}                 # a static solve draws no seed
    assert m["config"]["seed"] == 0
    assert m["wall_clock_seconds"] > 0
    assert np.isfinite(m["peak_rss_mb"]) and m["peak_rss_mb"] > 0
    assert any(p.endswith("static_profile.neelw") for p in m["outputs"])
    # edge diagnostic: cos(theta) near saturation at the seam
    assert abs(m["periodization_cos_theta_edge"]) <= 1e-2
    prof = load_profile(tmp_path / "static_profile.neelw")
    assert prof.residual <= 1e-6
    assert m["scalars"]["residual"] == pytest.approx(prof.residual,
                                                     rel=1e-6, abs=1e-12)
    # the static Newton reports its counters as the traveling one does
    newton, krylov = (m["scalars"]["newton_steps"],
                      m["scalars"]["krylov_iterations"])
    assert 1 <= newton <= 6
    assert newton <= krylov <= profiles.KRYLOV_MAX * newton


def test_solve_moving_reports_speed(tmp_path):
    code = run(["solve-moving", *SMALL, "--H", "0.001",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    m = _manifest(tmp_path)
    assert m["scalars"]["c"] == pytest.approx(1e-3 / 1.0102, rel=1e-2)
    # one continuation step from the static wall: a few Newton steps, each
    # a handful of preconditioned GMRES steps
    newton, krylov = (m["scalars"]["newton_steps"],
                      m["scalars"]["krylov_iterations"])
    assert 1 <= newton <= 10
    assert newton <= krylov <= profiles.KRYLOV_MAX * newton
    prof = load_profile(tmp_path / "moving_profile.neelw")
    assert prof.H == 0.001


def test_spectrum_static(tmp_path):
    code = run(["spectrum", *SMALL, "--H", "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    m = _manifest(tmp_path)
    assert abs(m["scalars"]["lambda0_re"]) <= 1e-4
    assert m["scalars"]["Lambda0"] > 0.3
    assert m["scalars"]["solver"] == "eigh"
    assert (tmp_path / "spectrum.csv").exists()


def test_spectrum_moving(tmp_path):
    code = run(["spectrum", *SMALL, "--H", "0.001", "--out", str(tmp_path)])
    assert code == EXIT_OK
    m = _manifest(tmp_path)["scalars"]
    # sigma(A_c) from its Hamiltonian form: the real pair holds the
    # translation eigenvalue, everything else sits on Re lam = -nu/2
    assert m["solver"] == "hamiltonian"
    assert m["structure_residual"] <= 1e-12
    assert m["gap"] == pytest.approx(0.5, abs=1e-10)
    assert abs(m["lambda0_re"]) <= 1e-4


def test_simulate_quick(tmp_path):
    code = run(["simulate", *SMALL, "--H", "0", "--dt", "0.02",
                "--t-end", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    m = _manifest(tmp_path)
    assert m["scalars"]["decay_rate"] > 0.2
    assert m["scalars"]["decay_r2"] >= 0.95
    assert abs(m["scalars"]["final_defect"]) <= 1e-4


@pytest.fixture
def modulation_fails(monkeypatch):
    """Every modulation fit of the integrator raises ModulationError."""
    def failing(*args, **kwargs):
        raise dynamics.ModulationError("no modulation bracket (test)")
    monkeypatch.setattr(dynamics, "_fit_shift", failing)


def test_simulate_modulation_failure_is_a_solver_failure(
        tmp_path, modulation_fails, capsys):
    code = run(["simulate", *SMALL, "--H", "0", "--dt", "0.02",
                "--t-end", "10", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "solver failure: no modulation bracket" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_orbital_modulation_failure_is_an_unstable_verdict(
        tmp_path, modulation_fails):
    code = run(["orbital", *SMALL, "--H", "0", "--dt", "0.02",
                "--t-end", "10", "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "orbital_verdict.jsonl") as fh:
        verdict = json.loads(fh.readline())
    assert verdict["stable"] is False
    assert verdict["failure"] == "no modulation bracket (test)"
    # no trace was recorded, so none is written or listed
    assert not (tmp_path / "orbital_trace.csv").exists()
    m = _manifest(tmp_path)
    assert [p.rsplit("/", 1)[-1] for p in m["outputs"]] == [
        "orbital_verdict.jsonl"]
    assert m["scalars"]["stable"] is False
    assert m["scalars"]["wall_speed"] == "nan"


def test_drift_past_half_the_window_is_a_solver_failure(tmp_path, capsys):
    # at H = 0.1 the lab-frame drift c t of the reference passes L/2 = 20
    # near t = 200, where no translate of it can be fitted
    code = run(["simulate", *SMALL, "--H", "0.1", "--dt", "0.1",
                "--t-end", "260", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "drifted too far" in err
    assert not (tmp_path / "manifest.json").exists()


def test_too_large_time_step_is_a_solver_failure(tmp_path, capsys):
    # at dt = 1 the integrated wall stops saturating at the ends
    code = run(["simulate", *SMALL, "--H", "0", "--dt", "1", "--t-end", "20",
                "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "solver failure: wall lost at t = " in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_too_large_time_step_is_an_unstable_verdict(tmp_path):
    code = run(["orbital", *SMALL, "--H", "0.001", "--dt", "1",
                "--t-end", "20", "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "orbital_verdict.jsonl") as fh:
        verdict = json.loads(fh.readline(), parse_constant=_not_json)
    assert verdict["stable"] is False
    assert verdict["failure"].startswith("wall lost at t = ")
    m = _manifest(tmp_path)
    assert m["scalars"] == {"stable": False, "wall_speed": "nan"}


def test_lapack_failure_is_a_solver_failure(tmp_path, monkeypatch):
    def failing(op):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(cli, "eig_report", failing)
    code = run(["spectrum", *SMALL, "--H", "0", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert not (tmp_path / "manifest.json").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 128          # coarse\nnu = 2.0\nL = 40\n")
    out = tmp_path / "out"
    # flag --n overrides the file; nu comes from the file
    code = run(["solve-static", "--config", str(cfg), "--n", "256",
                "--out", str(out)])
    assert code == EXIT_OK
    m = _manifest(out)
    assert m["config"]["n"] == 256
    assert m["config"]["nu"] == 2.0
    # the stored static wall carries the configured damping
    assert load_profile(out / "static_profile.neelw").nu == 2.0
    # untouched keys keep their defaults
    assert m["config"]["dt"] == DEFAULTS["dt"]


def test_config_file_keys_with_hyphens_and_negative_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("H = -0.001,0.001\nt-end = 12\n")
    # each line is read as --key=value, so a leading minus is no flag
    assert cli.resolve_config(["orbital", "--config", str(cfg)]) == (
        "orbital", {**DEFAULTS, "H": "-0.001,0.001", "t_end": 12.0})


def test_bad_config_file_exits_3(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run(["solve-static", "--config", str(cfg),
                "--out", str(tmp_path)]) == EXIT_CONFIG
    cfg.write_text("n not-an-assignment\n")
    assert run(["solve-static", "--config", str(cfg),
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not (tmp_path / "manifest.json").exists()


@pytest.fixture
def static_solves(monkeypatch):
    """Every static solve, whether the command or a solver makes it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_static(*args, **kwargs)
    monkeypatch.setattr(cli, "solve_static", counted)
    monkeypatch.setattr(profiles, "solve_static", counted)
    return calls


def test_bad_flag_values_exit_3(tmp_path, static_solves):
    assert run(["solve-static", "--n", "256", "--L", "40", "--mode", "weird",
                "--out", str(tmp_path)]) == EXIT_CONFIG
    assert run(["frobnicate", "--out", str(tmp_path)]) == EXIT_CONFIG
    # moving-wall commands reject the local stray-field model
    for command in ("solve-moving", "mobility"):
        assert run([command, *SMALL, "--mode", "local",
                    "--out", str(tmp_path)]) == EXIT_CONFIG
    # a field outside the solver envelope, and field lists that the
    # mobility scan rejects (too few, too large, not symmetric, with a
    # zero, with repeats), fail before any static solve
    for command, fields in (("solve-moving", "0.5"), ("spectrum", "-0.5"),
                            ("mobility", "-0.001,0.001"),
                            ("mobility", "-0.01,-0.001,0.001,0.01"),
                            ("mobility", "0.001,0.002,0.003,0.004"),
                            ("mobility", "-0.001,0,0,0.001"),
                            ("mobility", "-0.001,-0.001,0.001,0.001")):
        assert run([command, *SMALL, f"--H={fields}",
                    "--out", str(tmp_path)]) == EXIT_CONFIG, (command, fields)
    # orbital's own limits, t_end >= 10/nu and |H| <= 5e-3, fail first too
    for flags in (["--t-end", "5"], ["--H", "0.01"]):
        assert run(["orbital", *SMALL, *flags,
                    "--out", str(tmp_path)]) == EXIT_CONFIG, flags
    # zero or negative damping is refused with the configuration
    for command in SUBCOMMANDS:
        for nu in ("0", "-1"):
            assert run([command, *SMALL, f"--nu={nu}",
                        "--out", str(tmp_path)]) == EXIT_CONFIG, (command, nu)
    assert static_solves == []


def test_mobility_takes_field_list(tmp_path, static_solves):
    # each moving-wall command continues from its own one static wall
    for command in ("relative-bound", "solve-moving"):
        static_solves.clear()
        assert run([command, *SMALL, "--H", "0.001",
                    "--out", str(tmp_path / command)]) == EXIT_OK
        assert len(static_solves) == 1, command
    static_solves.clear()
    # the = form keeps argparse from reading the leading minus as a flag
    code = run(["mobility", *SMALL, "--H=-0.002,-0.001,0.001,0.002",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(static_solves) == 1
    m = _manifest(tmp_path)
    assert m["scalars"]["beta_measured"] == pytest.approx(
        m["scalars"]["beta_predicted"], rel=1e-2)
    # the scan's solver totals: at most two Newton steps for the first
    # field of each sign and one for the secant-predicted second
    newton, krylov = (m["scalars"]["newton_steps"],
                      m["scalars"]["krylov_iterations"])
    assert 4 <= newton <= 6
    assert newton <= krylov <= profiles.KRYLOV_MAX * newton
    assert (tmp_path / "mobility.csv").exists()


def test_same_seed_same_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["solve-static", *SMALL, "--seed", "7",
                    "--out", str(out)]) == EXIT_OK
    p1 = (out1 / "static_profile.neelw").read_bytes()
    p2 = (out2 / "static_profile.neelw").read_bytes()
    assert p1 == p2


def test_manifest_seeds_name_only_what_draws_from_them(tmp_path):
    # appendix-check samples its checks from --seed; simulate's sech
    # perturbation draws nothing, so two seeds give the same trace and
    # its manifest records the flag in config alone
    out = tmp_path / "appendix"
    assert run(["appendix-check", *SMALL, "--seed", "5",
                "--out", str(out)]) == EXIT_OK
    m = _manifest(out)
    assert m["seeds"] == {"master": 5} and m["config"]["seed"] == 5
    traces = []
    for seed in (0, 5):
        out = tmp_path / f"simulate{seed}"
        assert run(["simulate", *SMALL, "--H", "0", "--dt", "0.02",
                    "--t-end", "10", "--seed", str(seed),
                    "--out", str(out)]) == EXIT_OK
        m = _manifest(out)
        assert m["seeds"] == {} and m["config"]["seed"] == seed
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_resolvent_sweep_summary_counts_nudges(tmp_path):
    code = run(["resolvent-sweep", *SMALL, "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "resolvent_summary.jsonl") as fh:
        summary = json.loads(fh.readline())
    assert "nudged" not in summary
    assert summary["flagged"] is False
    assert summary["sup_Gamma"] > 0
    # the Lanczos steps per computed norm, as an aggregate of the sweep
    scalars = _manifest(tmp_path)["scalars"]
    assert 1 <= scalars["krylov_steps_mean"] <= scalars["krylov_steps_max"]
    assert scalars["krylov_steps_max"] <= spectra.GK_MAX_ITER


def test_resolvent_sweep_default_delta_inside_gap_of_A(tmp_path, monkeypatch):
    # nu = 3 > 2 sqrt(Lambda0): the gap of A is the pencil's, below Lambda0,
    # and the default contour must still enclose lambda0 alone.  Lambda0
    # comes from the eigh(L) the sweep's calculator factors, with no
    # eigen-report of its own
    ops = []

    def recorded(op, delta, **kwargs):
        assert kwargs["calc"].op is op
        ops.append(op)
        return spectra.resolvent_sweep(op, delta, **kwargs)

    def refused(op):
        raise AssertionError("eig_report called")
    monkeypatch.setattr(cli, "resolvent_sweep", recorded)
    monkeypatch.setattr(cli, "eig_report", refused)
    code = run(["resolvent-sweep", *SMALL, "--nu", "3",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    delta = _manifest(tmp_path)["scalars"]["delta"]
    report = spectra.eig_report(ops[0])
    assert ops[0].nu == 3.0
    assert delta < report.gap
    assert report.count_inside_square(delta) == 1


@pytest.mark.parametrize("key", ["L", "nu", "delta", "dt", "t_end"])
def test_numbers_outside_range_exit_3_before_any_solve(
        tmp_path, key, static_solves, capsys):
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    for value in ("nan", "inf", "-1", "0"):
        cfg.write_text(f"{key} = {value}\n")
        for source in ([f"{flag}={value}"], ["--config", str(cfg)]):
            assert run(["simulate", *SMALL, "--H", "0", *source,
                        "--out", str(tmp_path)]) == EXIT_CONFIG, source
            message = (f"argument {flag}: must be finite and positive, "
                       f"got {value!r}")
            assert message in capsys.readouterr().err
    assert static_solves == []
    assert not (tmp_path / "manifest.json").exists()


def test_nan_field_and_negative_seed_exit_3_before_any_solve(
        tmp_path, static_solves, capsys):
    # a NaN field fails every envelope comparison, so each check is written
    # to refuse it; numpy's generators refuse a negative seed only when a
    # command first draws from one
    for command in SUBCOMMANDS:
        sources = [(["--seed=-1"], "argument --seed: must be a non-negative "
                                   "integer, got '-1'")]
        if command not in ("solve-static", "resolvent-sweep",
                           "appendix-check"):       # the commands that read H
            field = "-0.001,0.001,-0.002,nan" if command == "mobility" else "nan"
            sources.append(([f"--H={field}"], "|H| <="))
        for flags, message in sources:
            assert run([command, *SMALL, *flags, "--out", str(tmp_path)]
                       ) == EXIT_CONFIG, (command, flags)
            assert message in capsys.readouterr().err, (command, flags)
    assert static_solves == []
    assert not (tmp_path / "manifest.json").exists()


def test_out_naming_a_file_exits_3(tmp_path, static_solves, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run(["solve-static", *SMALL, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: cannot make output directory: ")
    assert static_solves == []
    assert out.read_text() == "not a directory\n"


def test_resolvent_sweep_refuses_delta_past_the_gap(tmp_path):
    # at delta = 0.6 the region G holds every complex eigenvalue of A
    code = run(["resolvent-sweep", *SMALL, "--delta", "0.6",
                "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "manifest.json").exists()
