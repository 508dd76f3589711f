"""Static and traveling walls, their linearization, wall mass, and mobility.

The traveling wall (psi, c) solves
    c^2 psi'' - nu c psi' + grad E(psi) + H cos(psi) = 0,
with speed c determined together with the profile by an inexact bordered
Newton iteration (phase condition pins the translation family), continued
in H from a secant prediction.  The static wall, the energy minimizer, is
its H = c = 0 case, solved by the same bordered Newton step with the speed
left at 0; its border row pins theta(0) = 0 at the grid point x = 0, the
traveling wall's pins <theta - theta_bar, theta_bar'> = 0.  Neither solve
shifts the wall.  The linear steps are matrix-free: GMRES on
Linearization.matvec, preconditioned by the operator's constant-coefficient
far field, which one rfft/irfft pair inverts.  For small H the speed obeys
the mobility law c ~ H / (M nu) with wall mass M = 1/2 ||theta_bar'||_{L2}^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import energy, grad_energy
from .grid import (
    BACKGROUND_WALL,
    Field,
    Grid,
    apply_multiplier,
    derivative,
    l2_norm,
    multiplier_matrix,
)

H_ENVELOPE = 0.1  # working envelope for the applied field strength
CONTINUATION_STEP = 1e-3  # largest field step of the traveling continuation
NEWTON_MAX_ITER = 60      # residual evaluations per static solve or continuation step


class SolverError(RuntimeError):
    """Raised on non-convergence; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass(frozen=True)
class Profile:
    """A wall phase with its parameters and solve diagnostics."""

    theta: Field
    H: float
    c: float
    nu: float
    residual: float
    meta: dict = dc_field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.theta.grid

    def reconstruct(self) -> np.ndarray:
        return self.theta.reconstruct()


class Linearization:
    """The linearization of the traveling-wave equation at the phase psi,

        L_c u = -(1-c^2)u'' - c nu u' + s T(s u) - (c_psi + H s) u,

    with s = sin psi, c_psi = cos psi T(cos psi) and T the stray-field
    multiplier (1 + |k|, or 1 in local mode).  At c = H = 0 it is the static
    L, the Hessian of the energy.  The constant-coefficient part is one
    Fourier symbol (1-c^2)k^2 - c nu ik, with the Nyquist mode zeroed;
    symbol + T is the far field, what L_c becomes where sin psi = +-1 and
    cos psi = 0 (less the field term H s), and it preconditions the
    bordered Newton steps of both walls.

    matvec is the operator the solvers apply (the static and traveling
    Newton-GMRES, the quadratic-remainder check, L u and the a-form
    <L u, u> of the resolvent trials); dense() is the matrix that linops
    assembles into L, L_c, A, A_c and B_c."""

    def __init__(self, grid: Grid, psi_full: np.ndarray, c: float = 0.0,
                 nu: float = 1.0, H: float = 0.0, mode: str = "nonlocal"):
        self.grid = grid
        self.s = np.sin(psi_full)
        cos = np.cos(psi_full)
        self.T = np.ones(grid.n) if mode == "local" else grid.T
        self.potential = cos * apply_multiplier(grid, cos, self.T) + H * self.s
        self.symbol = (1.0 - c**2) * grid.k2 - c * nu * grid.k_deriv
        self.multipliers = np.stack([self.symbol, self.T])

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """L_c u for real u by FFT, with u and s u transformed in one batched
        call (bitwise the two separate transforms)."""
        s = self.s
        Ku, TSu = np.real(np.fft.ifft(self.multipliers
                                      * np.fft.fft(np.stack([u, s * u]))))
        return Ku + s * TSu - self.potential * u

    def dense(self) -> np.ndarray:
        """The n x n matrix for the dense operators of linops: circulant of
        the symbol, plus s T s, minus the potential on the diagonal.  No
        solver assembles it."""
        s = self.s
        M = multiplier_matrix(self.grid, self.symbol)
        M += s[:, None] * multiplier_matrix(self.grid, self.T) * s[None, :]
        M -= np.diag(self.potential)
        return M


def _check_static_invariants(prof: Profile):
    """Oddness and monotonicity.

    theta(x) + theta(-x) vanishes to solver accuracy in the interior; near
    the domain seam the stored-remainder discretization is only first-order
    accurate in dx (the wall's algebraic tail has to bend to rejoin the
    background there), so the seam-region deviation is O(dx) by construction
    and is reported rather than driven to zero.
    """
    theta = prof.reconstruct()
    g = prof.grid
    odd_profile = np.abs(theta[1:] + theta[1:][::-1])
    oddness = float(np.max(odd_profile))
    interior = np.abs(g.x[1:]) <= g.L / 2
    oddness_interior = float(np.max(odd_profile[interior]))
    slope = derivative(prof.theta, 1).values
    mono = float(np.min(slope))
    prof.meta["oddness"] = oddness
    prof.meta["oddness_interior"] = oddness_interior
    prof.meta["min_slope"] = mono
    interior_cap = max(0.1 * oddness, 1e-7)
    # the slope may ripple negative at the level of the achieved residual
    # (visible in local mode on coarse grids, where the sech Fourier tail
    # limits the solve)
    slope_cap = -max(1e-7, 10.0 * prof.residual)
    if oddness_interior > interior_cap or oddness > 0.05 * g.dx or mono < slope_cap:
        raise SolverError(
            f"static wall failed shape invariants (interior oddness "
            f"{oddness_interior:.2e}, seam oddness {oddness:.2e}, "
            f"min slope {mono:.2e})")


def traveling_residual(grid: Grid, theta: Field, c: float, nu: float, H: float) -> np.ndarray:
    """R(psi, c) = c^2 psi'' - nu c psi' + grad E(psi) + H cos(psi).

    With this orientation of the field term the solvability integral
    <R, psi'> = 0 gives c = +H/(M nu): positive H drives the wall in the
    +x direction, matching the sign of the drift in the time integrator.
    """
    return _residual_and_slopes(theta, c, nu, H)[0]


def _residual_and_slopes(theta: Field, c: float, nu: float, H: float):
    """(R, psi', psi''): the traveling residual and the two derivatives it
    is made of, which the speed column of the Newton system reuses."""
    d1 = derivative(theta, 1).values
    d2 = derivative(theta, 2).values
    R = (c**2 * d2 - nu * c * d1 + grad_energy(theta).values
         + H * np.cos(theta.reconstruct()))
    return R, d1, d2


KRYLOV_MAX = 40  # GMRES steps per Newton step; about 8 are used at any n


def _gmres(apply, rhs: np.ndarray, rtol: float, max_iter: int):
    """GMRES from zero for apply(z) = rhs: Arnoldi by classical Gram-Schmidt
    run twice, Givens rotations on the Hessenberg columns.  Returns
    (z, steps, relative residual) after the first step that reaches rtol,
    or after max_iter steps."""
    beta = float(np.linalg.norm(rhs))
    V = np.empty((max_iter + 1, rhs.size))
    V[0] = rhs / beta
    R = np.zeros((max_iter, max_iter))
    rotations = []
    g = [beta]
    steps = 0
    while steps < max_iter:
        j = steps
        w = apply(V[j])
        h = V[:j + 1] @ w
        w -= h @ V[:j + 1]
        h2 = V[:j + 1] @ w
        w -= h2 @ V[:j + 1]
        col = (h + h2).tolist()
        h_next = float(np.linalg.norm(w))
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                  cs * col[i + 1] - sn * col[i])
        r = math.hypot(col[j], h_next)
        if r == 0.0:
            break
        cs, sn = col[j] / r, h_next / r
        rotations.append((cs, sn))
        col[j] = r
        R[:j + 1, j] = col
        g.append(-sn * g[j])
        g[j] *= cs
        steps += 1
        if abs(g[j + 1]) <= rtol * beta or h_next == 0.0:
            break
        V[j + 1] = w / h_next
    y = np.linalg.solve(R[:steps, :steps], g[:steps])
    return y @ V[:steps], steps, abs(g[steps]) / beta


def _bordered_step(lin: Linearization, border_col: np.ndarray,
                   border_row: np.ndarray, R: np.ndarray, phase: float,
                   rtol: float):
    """Solve [[L_c, border_col], [border_row^T, 0]] (du, dc) = (R, phase)
    by GMRES in the norm of the Newton residual, sqrt(dx |R|^2 + phase^2),
    right-preconditioned with the exact bordered inverse of the far-field
    multiplier p(k) = (1-c^2)k^2 - i c nu k + (1 + |k|) (Linearization's
    far field).  Returns (du, dc, steps, relative residual); raises
    SolverError if the Schur complement of the preconditioner is 0."""
    g = lin.grid
    n, w = g.n, np.sqrt(g.dx)
    p = (lin.symbol + lin.T)[:n // 2 + 1]

    def far_inverse(f):
        return np.fft.irfft(np.fft.rfft(f) / p, n)

    col_far = far_inverse(border_col)
    schur = float(border_row @ col_far)
    if not abs(schur) > 0.0:
        raise SolverError(f"far-field bordered Schur complement is {schur}")

    def precond(z):
        u0 = far_inverse(z[:n] / w)
        dc = (border_row @ u0 - z[n]) / schur
        return u0 - dc * col_far, dc

    def apply(z):
        u, dc = precond(z)
        out = np.empty(n + 1)
        out[:n] = w * (lin.matvec(u) + dc * border_col)
        out[n] = border_row @ u
        return out

    rhs = np.append(w * R, phase)
    z, steps, relres = _gmres(apply, rhs, rtol, KRYLOV_MAX)
    du, dc = precond(z)
    return du, float(dc), steps, relres


def solve_static(grid: Grid, tol: float = 1e-8,
                 mode: str = "nonlocal") -> Profile:
    """Newton on grad E = 0 from the background arcsin(tanh x), at most
    NEWTON_MAX_ITER residual evaluations.  Each step solves
    [[L, theta'], [e_0^T, 0]] (du, m) = (grad E, 0) by _bordered_step to
    solve_traveling's relative tolerance, with e_0 the point evaluation at
    the grid point x = 0 (index n/2): du(0) = 0 pins the phase, so theta(0)
    keeps its start value 0 and no step shifts the wall.  The border makes
    the Hessian L, singular along theta', invertible on the pinned space,
    and m is discarded, so the wall stays at rest.  A GMRES stall raises
    SolverError; meta records iterations (residual evaluations),
    newton_steps and krylov_iterations."""
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    theta = Field(grid, np.zeros(grid.n), BACKGROUND_WALL)
    pin = np.zeros(grid.n)
    pin[grid.n // 2] = 1.0      # grid.x[n/2] == 0
    history = []
    newton_steps = krylov = 0
    for _ in range(NEWTON_MAX_ITER):
        gradE = grad_energy(theta, mode).values
        res = l2_norm(grid, gradE)
        history.append(res)
        if res <= tol:
            break
        rtol = max(min(1e-3, 0.1 * tol / res), 1e-13)
        slope = derivative(theta, 1).values
        lin = Linearization(grid, theta.reconstruct(), mode=mode)
        du, _, steps, relres = _bordered_step(lin, slope, pin, gradE, 0.0,
                                              rtol)
        newton_steps += 1
        krylov += steps
        if not relres <= rtol:
            raise SolverError(f"GMRES stalled in static Newton step "
                              f"{newton_steps}: relative residual "
                              f"{relres:.2e} > {rtol:.1e}", history)
        theta = theta.with_values(theta.values - du)
    else:
        raise SolverError(
            f"static solve stalled at residual {res:.3e} (tol {tol:.1e})",
            history)
    prof = Profile(theta, 0.0, 0.0, 1.0, res, meta={
        "iterations": len(history), "newton_steps": newton_steps,
        "krylov_iterations": krylov, "mode": mode,
        "energy": energy(theta, mode).total, "L": grid.L, "n": grid.n})
    _check_static_invariants(prof)
    return prof


def check_field(H: float) -> float:
    """H as a float; raises ValueError outside the envelope |H| <= H_ENVELOPE
    (NaN included)."""
    H = float(H)
    if not abs(H) <= H_ENVELOPE:
        raise ValueError(f"|H| <= {H_ENVELOPE} is the supported envelope, got {H}")
    return H


def _secant(branch, H: float):
    """(remainder values, c) at field H, linearly extrapolated through the
    two converged branch points (H, remainder values, c) in branch."""
    (H0, w0, c0), (H1, w1, c1) = branch
    t = (H - H1) / (H1 - H0)
    return w1 + t * (w1 - w0), c1 + t * (c1 - c0)


def solve_traveling(grid: Grid, H: float, nu: float, init: Profile,
                    tol: float = 1e-10) -> Profile:
    """Inexact bordered Newton (n+1 unknowns: remainder and speed) with
    continuation in H from the converged wall init (static or moving),
    steps <= CONTINUATION_STEP and at most NEWTON_MAX_ITER residual
    evaluations each; the phase is pinned on init's slope.

    Each continuation step starts from the secant through the last two
    converged points of the branch H -> (theta, c) at this nu (Allgower and
    Georg, Introduction to Numerical Continuation Methods, ch. 2), or from
    the last point while there is only one.  init is a branch point when it
    has this nu or is the static wall (H = 0, c = 0 at every nu); the point
    before it is init.meta["previous_point"] (H, remainder values, c) when
    init has this grid and nu.  The returned wall records its own
    previous_point, so a scan continuing from it predicts its first step.

    Each Newton step solves the bordered system
    [[L_c, 2c psi'' - nu psi'], [dx theta_bar'^T, 0]] matrix-free by
    _bordered_step (Linearization.matvec and one rfft/irfft pair per GMRES
    step) to the relative tolerance max(min(1e-3, 0.1 tol/|F|), 1e-13),
    where |F| is the current residual.  A linear solve that misses it within
    KRYLOV_MAX steps raises SolverError.  meta records the residual
    evaluations (iterations), newton_steps and krylov_iterations."""
    H = check_field(H)
    if not nu > 0:
        raise ValueError("nu must be positive")
    theta = init.theta
    c = init.c
    theta_bar_prime = derivative(init.theta, 1).values
    border_row = grid.dx * theta_bar_prime
    w_ref = theta.values.copy()

    # the last (at most two) converged points (H, remainder values, c) of
    # the branch at this nu
    branch = []
    if init.nu == nu and init.grid == grid and "previous_point" in init.meta:
        branch.append(init.meta["previous_point"])
    if init.nu == nu or init.H == 0.0:
        branch.append((init.H, w_ref, c))
    H_start = init.H
    n_steps = max(1, int(np.ceil(abs(H - H_start) / CONTINUATION_STEP)))
    history = []
    newton_steps = krylov = 0
    for H_step in np.linspace(H_start, H, n_steps + 1)[1:]:
        if len(branch) == 2 and branch[0][0] != branch[1][0]:
            w, c = _secant(branch, H_step)
            theta = theta.with_values(w)
        prev_res = np.inf
        growth = 0
        for it in range(NEWTON_MAX_ITER):
            R, d1, d2 = _residual_and_slopes(theta, c, nu, H_step)
            phase = float(border_row @ (theta.values - w_ref))
            res = float(np.hypot(l2_norm(grid, R), abs(phase)))
            history.append(res)
            if res <= tol:
                break
            if abs(c) >= 1:
                raise SolverError(f"speed |c| = {abs(c)} reached 1", history)
            growth = growth + 1 if res > prev_res else 0
            if growth >= 5:
                raise SolverError("Newton diverged (residual grew 5 times)", history)
            prev_res = res
            rtol = max(min(1e-3, 0.1 * tol / res), 1e-13)
            lin = Linearization(grid, theta.reconstruct(), c, nu, H_step)
            du, dc, steps, relres = _bordered_step(
                lin, 2.0 * c * d2 - nu * d1, border_row, R, phase, rtol)
            newton_steps += 1
            krylov += steps
            if not relres <= rtol:
                raise SolverError(
                    f"GMRES stalled at H={H_step}, Newton step {newton_steps}: "
                    f"relative residual {relres:.2e} > {rtol:.1e} after "
                    f"{steps} steps", history)
            theta = theta.with_values(theta.values - du)
            c = c - dc
        else:
            raise SolverError(
                f"traveling solve stalled at H={H_step} "
                f"(residual {history[-1]:.3e})", history)
        branch = branch[-1:] + [(float(H_step), theta.values, float(c))]
    if abs(c) >= 1:
        raise SolverError(f"converged speed |c| = {abs(c)} >= 1", history)
    meta = {"iterations": len(history), "newton_steps": newton_steps,
            "krylov_iterations": krylov, "L": grid.L, "n": grid.n,
            "mode": "nonlocal"}
    if len(branch) == 2:
        meta["previous_point"] = branch[0]
    return Profile(theta, H, float(c), float(nu), history[-1] if history else 0.0,
                   meta=meta)


def wall_mass(static: Profile) -> float:
    """M = 1/2 ||theta_bar'||_{L2}^2."""
    d1 = derivative(static.theta, 1).values
    return 0.5 * l2_norm(static.grid, d1) ** 2


@dataclass(frozen=True)
class MobilityFit:
    """The c(H) slope fit of a mobility scan, with each converged field's
    speed and its wall's newton_steps and krylov_iterations (Profile.meta),
    and the message of each field that failed."""

    M: float
    beta_measured: float
    beta_predicted: float
    fit_error: float
    speeds: dict
    failures: dict
    newton_steps: dict
    krylov_iterations: dict


def mobility_fields(H_list) -> list[float]:
    """The fields of a mobility scan as floats; raises ValueError unless
    there are at least 4, distinct and nonzero (H = 0 is the static wall,
    not a speed to fit), each |H| <= 5e-3, symmetric about 0."""
    H_list = [float(H) for H in H_list]
    if len(H_list) < 4:
        raise ValueError("need at least 4 field values")
    if 0.0 in H_list or len(set(H_list)) < len(H_list):
        raise ValueError("field values must be nonzero and distinct")
    if not all(abs(H) <= 5e-3 for H in H_list):
        raise ValueError("mobility scan restricted to |H| <= 5e-3")
    if abs(sum(H_list)) > 1e-15 * max(abs(H) for H in H_list) * len(H_list):
        raise ValueError("field values must be symmetric about 0")
    return H_list


def mobility(grid: Grid, nu: float, H_list, static: Profile,
             tol: float = 1e-10) -> MobilityFit:
    """Measure the c(H) slope through the origin and compare with 1/(M nu).
    Fields run in order of |H|, one solve_traveling call each; each field
    continues from the last converged wall of its sign, the first from the
    static wall.  Through that wall's previous_point (the static wall for
    the second field) each continuation after the first of a sign starts
    from the secant prediction."""
    H_list = mobility_fields(H_list)
    M = wall_mass(static)
    speeds, failures, last = {}, {}, {}
    newton, krylov = {}, {}
    for H in sorted(H_list, key=abs):
        try:
            wall = solve_traveling(grid, H, nu, last.get(np.sign(H), static),
                                   tol=tol)
        except SolverError as exc:
            failures[H] = str(exc)
            continue
        speeds[H], last[np.sign(H)] = wall.c, wall
        newton[H] = wall.meta["newton_steps"]
        krylov[H] = wall.meta["krylov_iterations"]
    Hs = np.array(sorted(speeds))
    cs = np.array([speeds[H] for H in Hs])
    beta_measured = float(np.sum(cs * Hs) / np.sum(Hs**2))
    beta_predicted = 1.0 / (M * nu)
    fit_error = float(np.max(np.abs(cs - beta_measured * Hs) / np.abs(Hs)))
    return MobilityFit(M, beta_measured, beta_predicted, fit_error, speeds,
                       failures, newton, krylov)
