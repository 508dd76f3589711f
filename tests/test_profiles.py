"""Static and traveling wall solvers, wall mass, mobility.

Oracles:
  * Local mode: arcsin(tanh x) is the exact static wall (sup error ~ the
    sech Fourier tail at this resolution).
  * Solvability: the traveling speed obeys c = H / (M nu) with
    M = 0.5 ||theta_bar'||^2, to O(H^2).
  * Symmetry: flipping H flips c.
  * Reference: the dense bordered Newton with LU (tests/oracles.py),
    without the secant predictor, gives the same traveling wave as the
    matrix-free, secant-predicted Newton-GMRES.
  * Reference: preconditioned energy descent with a Newton-CG polish
    (tests/oracles.py) gives the same static wall as the bordered
    Newton-GMRES, and fails at the same seam floor.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from neelwall import grid as grid_module
from neelwall import profiles
from neelwall.grid import Grid, derivative, l2_norm
from neelwall.profiles import (
    SolverError, mobility, mobility_fields, solve_static, solve_traveling,
    traveling_residual, wall_mass,
)
from oracles import solve_static_descent, solve_traveling_dense


def test_static_local_matches_closed_form(grid256):
    prof = solve_static(grid256, tol=1e-7, mode="local")
    exact = np.arcsin(np.tanh(grid256.x))
    assert np.max(np.abs(prof.reconstruct() - exact)) <= 1e-6
    assert prof.meta["energy"] == pytest.approx(2.0, abs=1e-7)


def test_static_nonlocal_shape(static256):
    g = static256.grid
    assert static256.residual <= 5e-8
    theta = static256.reconstruct()
    # odd in the interior, monotone, ends near +-pi/2
    # interior oddness is limited by the seam layer's high-frequency
    # content at this resolution (~1e-5 at n = 256, smaller on finer grids)
    interior = np.abs(g.x[1:]) <= g.L / 2
    assert np.max(np.abs((theta[1:] + theta[1:][::-1])[interior])) <= 1e-4
    assert np.min(derivative(static256.theta, 1).values) >= -1e-8
    assert abs(theta[0] + np.pi / 2) <= 0.05
    # nonlocal wall has strictly more energy than the local one
    assert static256.meta["energy"] > 2.0


def test_static_energy_stable_under_refinement(static256, static512):
    e1 = static256.meta["energy"]
    e2 = static512.meta["energy"]
    assert abs(e1 - e2) / e2 <= 5e-3


@pytest.mark.parametrize("n, tol", [(256, 5e-8), (512, 5e-9)])
@pytest.mark.parametrize("mode", ["nonlocal", "local"])
def test_static_newton_matches_descent(n, tol, mode):
    grid = Grid(40.0, n)
    newton = solve_static(grid, tol=tol, mode=mode)
    descent = solve_static_descent(grid, tol=tol, mode=mode)
    assert np.max(np.abs(newton.reconstruct() - descent.reconstruct())) <= 1e-8
    assert newton.meta["energy"] == pytest.approx(descent.meta["energy"],
                                                  rel=1e-12)


def test_static_seam_floor_raises_on_both_paths():
    # at n = 128 the seam layer holds the residual near 5e-6, far above tol
    grid = Grid(40.0, 128)
    for solve in (solve_static, solve_static_descent):
        with pytest.raises(SolverError) as err:
            solve(grid, tol=1e-8)
        assert min(err.value.history) > 1e-6, solve.__name__


@pytest.mark.parametrize("n", [256, 512])
def test_static_takes_bordered_newton_steps(n, monkeypatch):
    # every border row is the point evaluation at x = 0 with phase 0, so
    # theta(0) keeps its start value arcsin(tanh 0) = 0 and no step shifts
    # the wall
    grid = Grid(40.0, n)
    assert grid.x[n // 2] == 0.0
    pin = np.zeros(n)
    pin[n // 2] = 1.0
    steps = []
    bordered = profiles._bordered_step

    def counted(lin, border_col, border_row, R, phase, rtol):
        steps.append((phase, np.array_equal(border_row, pin)))
        return bordered(lin, border_col, border_row, R, phase, rtol)
    monkeypatch.setattr(profiles, "_bordered_step", counted)
    prof = solve_static(grid, tol={256: 5e-8, 512: 5e-9}[n])
    newton = prof.meta["newton_steps"]
    assert 1 <= newton <= 6 and steps == [(0.0, True)] * newton
    assert abs(prof.reconstruct()[n // 2]) <= 1e-14
    assert prof.meta["iterations"] == newton + 1
    assert newton <= prof.meta["krylov_iterations"] <= profiles.KRYLOV_MAX * newton


def test_static_validation(grid256):
    with pytest.raises(ValueError):
        solve_static(grid256, tol=1e-13)


def test_wall_mass_value(static256, static512):
    # frozen value at L = 40 (weak n-dependence)
    assert wall_mass(static256) == pytest.approx(1.0102, abs=2e-3)
    assert wall_mass(static512) == pytest.approx(wall_mass(static256),
                                                 rel=1e-3)


def test_traveling_speed_mobility_law(traveling256, static256):
    M = wall_mass(static256)
    assert traveling256.c == pytest.approx(1e-3 / M, rel=1e-3)
    assert traveling256.residual <= 5e-8


def test_traveling_residual_vanishes_only_at_solution(traveling256):
    g = traveling256.grid
    r = traveling_residual(g, traveling256.theta, traveling256.c,
                           traveling256.nu, traveling256.H)
    assert l2_norm(g, r) <= 1e-7
    r_wrong = traveling_residual(g, traveling256.theta, 0.0,
                                 traveling256.nu, traveling256.H)
    assert l2_norm(g, r_wrong) > 1e-4


def test_traveling_field_sign_symmetry(grid256, static256, traveling256):
    neg = solve_traveling(grid256, H=-1e-3, nu=1.0, tol=5e-8, init=static256)
    # exact antisymmetry holds in the continuum; the discrete seam breaks
    # it at the 1e-5 relative level on this grid
    assert neg.c == pytest.approx(-traveling256.c, rel=1e-3)


def test_traveling_nu_scaling(grid256, static256, traveling256):
    # c ~ H / (M nu): doubling nu halves the speed
    half = solve_traveling(grid256, H=1e-3, nu=2.0, tol=5e-8, init=static256)
    assert half.c == pytest.approx(traveling256.c / 2.0, rel=1e-3)


def test_traveling_validation(grid256, static256):
    for H in (0.5, np.nan):                                     # envelope
        with pytest.raises(ValueError, match="supported envelope"):
            solve_traveling(grid256, H=H, nu=1.0, init=static256)
    for nu in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nu must be positive"):
            solve_traveling(grid256, H=1e-3, nu=nu, init=static256)


def test_traveling_continues_from_moving_wall(grid256, static256,
                                              traveling256, monkeypatch):
    # the phase condition is anchored on the given wall's own slope, so a
    # moving start needs no static solve
    from_static = solve_traveling(grid256, H=2e-3, nu=1.0, init=static256)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_static called")
    monkeypatch.setattr(profiles, "solve_static", refuse)
    moved = solve_traveling(grid256, H=2e-3, nu=1.0, init=traveling256)
    assert moved.c == pytest.approx(from_static.c, rel=1e-6)


def test_mobility_continues_from_previous_field(grid256, static256,
                                                monkeypatch):
    fields = [-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3]
    linearizations = []

    class Counted(profiles.Linearization):
        def __init__(self, *args, **kwargs):
            linearizations.append(args[0].n)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(profiles, "Linearization", Counted)
    from_static = {H: solve_traveling(grid256, H, 1.0, init=static256)
                   for H in fields}
    one_by_one = len(linearizations)
    linearizations.clear()
    fit = mobility(grid256, 1.0, fields, static=static256)
    assert not fit.failures
    # one linearization per Newton step, in both scans
    assert one_by_one == sum(w.meta["newton_steps"]
                             for w in from_static.values())
    assert len(linearizations) == sum(fit.newton_steps.values())
    for H in fields:
        steps = fit.newton_steps[H]
        # the first field of each sign starts from the static wall in both
        # scans; every later one starts from the secant through the two
        # walls before it, one step away, and takes fewer Newton steps
        if abs(H) == 5e-4:
            assert steps == from_static[H].meta["newton_steps"]
        else:
            assert steps < from_static[H].meta["newton_steps"]
        assert steps <= fit.krylov_iterations[H]
        assert fit.speeds[H] == pytest.approx(from_static[H].c, rel=1e-6)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_mobility_secant_fields_take_one_newton_step(grid256, static256, nu):
    # criterion 06's fields: after the first field of each sign, one Newton
    # step from the secant prediction reaches the tolerance, and the speeds
    # are the unpredicted dense oracle's, solved from the static wall
    fields = [-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3]
    fit = mobility(grid256, nu, fields, static=static256)
    assert not fit.failures
    for H in fields:
        if abs(H) > 5e-4:
            assert fit.newton_steps[H] <= 1, H
        dense = solve_traveling_dense(grid256, H, nu, init=static256)
        assert abs(fit.speeds[H] / dense.c - 1.0) <= 1e-7


@pytest.mark.parametrize("nu", [0.5, 2.0])
def test_mobility_secant_large_extrapolation_ratio(grid256, static256, nu,
                                                   monkeypatch):
    # |H| = 5e-3 continues from 2e-4: its first step, to 1.16e-3,
    # extrapolates the secant through 1e-4 and 2e-4 by a factor 9.6
    fields = [-1e-4, 1e-4, -2e-4, 2e-4, -5e-3, 5e-3]
    fit = mobility(grid256, nu, fields, static=static256)
    # the unpredicted start: every continuation step from the last point
    monkeypatch.setattr(profiles, "_secant", lambda branch, H: branch[-1][1:])
    unpredicted = mobility(grid256, nu, fields, static=static256)
    assert not fit.failures and not unpredicted.failures
    for H in fields:
        assert fit.newton_steps[H] <= unpredicted.newton_steps[H], H
        assert fit.speeds[H] == pytest.approx(unpredicted.speeds[H],
                                              rel=1e-7)


def test_traveling_secant_within_one_call(grid256, static256):
    # H_ENVELOPE from the static wall in 100 continuation steps: the first
    # takes two Newton steps, each later one starts from the secant through
    # the two steps before it
    steps = round(profiles.H_ENVELOPE / profiles.CONTINUATION_STEP)
    wall = solve_traveling(grid256, profiles.H_ENVELOPE, 0.5, init=static256)
    assert wall.meta["newton_steps"] <= steps + 1
    # one branch point besides the wall itself: the last step before it
    H_prev, w_prev, c_prev = wall.meta["previous_point"]
    assert H_prev == pytest.approx(
        profiles.H_ENVELOPE - profiles.CONTINUATION_STEP)
    assert w_prev.shape == (grid256.n,)
    assert 0.0 < c_prev < wall.c


def test_secant_only_on_the_same_branch(grid256, static256, traveling256,
                                        monkeypatch):
    calls = []
    secant = profiles._secant

    def counted(branch, H):
        calls.append(H)
        return secant(branch, H)
    monkeypatch.setattr(profiles, "_secant", counted)
    # traveling256 (nu = 1) recorded the static wall as its previous point
    solve_traveling(grid256, 2e-3, 1.0, init=traveling256)
    assert calls == [pytest.approx(2e-3)]
    calls.clear()
    # at nu = 2 neither traveling256 nor its previous point is on the branch
    other = solve_traveling(grid256, 2e-3, 2.0, init=traveling256)
    assert calls == []
    assert other.c == pytest.approx(
        solve_traveling(grid256, 2e-3, 2.0, init=static256).c, rel=1e-6)


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize("H", [-2e-3, 5e-4, 5e-3, profiles.H_ENVELOPE])
def test_traveling_matches_dense_newton(grid256, static256, H, nu):
    # the matrix-free Newton-GMRES path against the dense bordered Newton
    # with LU it replaced, at the default tolerance
    tol = 1e-10
    free = solve_traveling(grid256, H, nu, tol=tol, init=static256)
    dense = solve_traveling_dense(grid256, H, nu, tol=tol, init=static256)
    assert abs(free.c / dense.c - 1.0) <= 1e-7
    assert np.max(np.abs(free.reconstruct() - dense.reconstruct())) <= 1e-9
    assert free.residual <= tol and dense.residual <= tol
    assert (free.meta["newton_steps"] <= free.meta["krylov_iterations"]
            <= profiles.KRYLOV_MAX * free.meta["newton_steps"])


def test_mobility_is_matrix_free(monkeypatch):
    # criterion 06's six fields at n = 2048 with every dense route closed:
    # no dense linearization, no dense multiplier, no LU
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra in the traveling solve")
    monkeypatch.setattr(profiles.Linearization, "dense", refuse)
    monkeypatch.setattr(grid_module, "multiplier_matrix", refuse)
    monkeypatch.setattr(profiles, "multiplier_matrix", refuse)
    monkeypatch.setattr(sla, "lu_factor", refuse)
    grid = Grid(40.0, 2048)
    static = solve_static(grid, tol=1e-8)
    fit = mobility(grid, 1.0, [-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3],
                   static=static)
    assert not fit.failures
    assert fit.beta_measured == pytest.approx(fit.beta_predicted, rel=5e-3)


def test_traveling_gmres_budget_raises(grid256, static256, monkeypatch):
    # two Krylov steps cannot reach the linear tolerance: the step is
    # refused, not handed to Newton half-solved
    monkeypatch.setattr(profiles, "KRYLOV_MAX", 2)
    with pytest.raises(SolverError, match=r"H=0\.001, Newton step 1: "
                                          r"relative residual") as info:
        solve_traveling(grid256, 1e-3, 1.0, init=static256)
    assert len(info.value.history) == 1


def test_bordered_step_zero_schur_complement_raises(grid256, static256):
    lin = profiles.Linearization(grid256, static256.reconstruct(), 0.0, 1.0)
    zero = np.zeros(grid256.n)
    with pytest.raises(SolverError, match="Schur complement is 0"):
        profiles._bordered_step(lin, zero, grid256.dx * np.ones(grid256.n),
                                np.ones(grid256.n), 0.0, 1e-3)


def test_mobility_fit(grid256, static256):
    fit = mobility(grid256, nu=1.0, H_list=[-2e-3, -1e-3, 1e-3, 2e-3],
                   tol=5e-8, static=static256)
    assert not fit.failures
    assert fit.beta_measured == pytest.approx(fit.beta_predicted, rel=5e-3)
    assert fit.fit_error <= 1e-2


def test_mobility_validation(grid256, static256):
    for fields in ([1e-3, -1e-3],                       # too few
                   [1e-2, -1e-2, 2e-2, -2e-2],          # too large
                   [1e-3, 2e-3, 3e-3, 4e-3],            # not symmetric
                   [-1e-3, 0.0, 0.0, 1e-3],             # zero: no speed to fit
                   [-1e-3, -1e-3, 1e-3, 1e-3],          # repeated
                   [-1e-3, 1e-3, -2e-3, np.nan]):       # not a number
        with pytest.raises(ValueError):
            mobility_fields(fields)
        with pytest.raises(ValueError):
            mobility(grid256, 1.0, fields, static=static256)
    assert mobility_fields(np.array([-1e-3, 1e-3, -2e-3, 2e-3])) == [
        -1e-3, 1e-3, -2e-3, 2e-3]


def test_solver_error_carries_history():
    err = SolverError("boom", history=[1.0, 0.5])
    assert err.history == [1.0, 0.5]
