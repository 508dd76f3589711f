"""Independent oracles, written out term by term apart from the code they
check: the drift perturbation S of B_c, the full 2n x 2n blocks and B_c as
their difference, the dense W^{1/2}-conjugated matrix of an operator, the
null pair by shift-invert ARPACK, the static projector, one damped linear
mode in closed form and under the exponential step weights, the damped
wave right-hand side in physical space and its step by classical RK4,
nearest points by k-d tree, the resolvent sweep's sample points built one
by one, Lanczos on S*S with an eigvalsh at every step (by the three-term
recurrence, and with full reorthogonalization against a stored basis), the
traveling wall by bordered Newton on the dense Jacobian with LU, and the
static wall by preconditioned energy descent with a Newton-CG polish, its
phase fixed by shifting the zero crossing to x = 0 after every step."""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from neelwall.dynamics import _companion_function
from neelwall.energy import energy, grad_energy
from neelwall.grid import (
    BACKGROUND_WALL, Field, Grid, apply_multiplier, derivative, l2_inner,
    l2_norm, multiplier_matrix, shift, wall_background, wall_background_d1,
)
from neelwall.linops import (
    DiscretizedOperator, NullPair, weighted_state_norm,
)
from neelwall.profiles import (
    CONTINUATION_STEP, H_ENVELOPE, NEWTON_MAX_ITER, Linearization, Profile,
    SolverError, _check_static_invariants, traveling_residual,
)
from neelwall.spectra import GK_MIN_ITER, gamma_square, in_region_G


def s_matrix_direct(moving: Profile, static: Profile) -> np.ndarray:
    """Direct assembly of
    S u = c^2 u'' - c nu u' + s_psi T(s_psi u) - s_th T(s_th u)
          + (c_th - c_psi - H s_psi) u."""
    g = moving.grid
    c, nu, H = moving.c, moving.nu, moving.H
    mult = 1.0 + np.abs(g.k)
    Tm = multiplier_matrix(g, mult)
    psi = moving.reconstruct()
    th = static.reconstruct()
    s_psi, s_th = np.sin(psi), np.sin(th)
    c_psi = np.cos(psi) * apply_multiplier(g, np.cos(psi), mult)
    c_th = np.cos(th) * apply_multiplier(g, np.cos(th), mult)
    M = c**2 * multiplier_matrix(g, np.real(g.k_deriv**2))
    M -= c * nu * multiplier_matrix(g, g.k_deriv)
    M += s_psi[:, None] * Tm * s_psi[None, :] - s_th[:, None] * Tm * s_th[None, :]
    M += np.diag(c_th - c_psi - H * s_psi)
    return M


def dense_block(profile: Profile, c: float, H: float,
                nu: float) -> np.ndarray:
    """The full 2n x 2n block [[0, I], [-L_c, 2c d_z - nu I]], assembled
    around Linearization.dense() into a zero matrix."""
    g = profile.grid
    n = g.n
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = -Linearization(g, profile.reconstruct(), c, nu, H).dense()
    M[n:, n:] = -nu * np.eye(n)
    if c != 0.0:
        M[n:, n:] += 2.0 * c * multiplier_matrix(g, g.k_deriv)
    return M


def bc_difference(moving: Profile, static: Profile) -> np.ndarray:
    """B_c as the difference of the two fully assembled 2n x 2n blocks."""
    return (dense_block(moving, moving.c, moving.H, moving.nu)
            - dense_block(static, 0.0, 0.0, moving.nu))


def weighted_matrix(op: DiscretizedOperator) -> np.ndarray:
    """W^{1/2} M W^{-1/2} with the H1 Fourier weight W = 1 + k^2 on the
    first block, formed densely; the matrix itself for scalar (L2) kinds."""
    if not op.is_block:
        return op.matrix
    g = op.grid
    w = g.h1_weight
    M = op.matrix.copy()
    M[:g.n, :] = multiplier_matrix(g, np.sqrt(w)) @ M[:g.n, :]
    M[:, :g.n] = M[:, :g.n] @ multiplier_matrix(g, 1.0 / np.sqrt(w))
    return M


def _two_eigs_nearest_zero(M: np.ndarray, lu, trans: int):
    """Two eigenvalues of M (trans=0) or M^T (trans=1) nearest 0 and their
    eigenvectors, by shift-invert Arnoldi through an LU of M from a fixed
    start vector."""
    n = M.shape[0]
    op = spla.LinearOperator((n, n),
                             matvec=lambda b: sla.lu_solve(lu, b, trans=trans))
    vals, vecs = spla.eigs(M.T if trans else M, k=2, OPinv=op, sigma=0.0,
                           which="LM",
                           v0=np.random.default_rng(0).standard_normal(n))
    order = np.argsort(np.abs(vals))
    return vals[order], vecs[:, order]


def _real_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the dominant component onto the positive real axis."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return np.real(v * np.conj(pivot) / np.abs(pivot))


def null_pair_arpack(op: DiscretizedOperator) -> NullPair:
    """Null pair of a block operator by shift-invert ARPACK on M and M^T:
    right vector oriented along (theta', 0), weighted-adjoint left vector
    W^{-1} y with M^T y ~ 0, lambda0 from the transposed solve, which must
    sit ten times closer to 0 than the next eigenvalue."""
    g = op.grid
    lu = sla.lu_factor(op.matrix)
    _, vecs = _two_eigs_nearest_zero(op.matrix, lu, trans=0)
    right = _real_phase(vecs[:, 0])
    if np.dot(right[:g.n], derivative(op.profile.theta, 1).values) < 0:
        right = -right
    right = right / weighted_state_norm(g, right)
    vals, vecs = _two_eigs_nearest_zero(op.matrix, lu, trans=1)
    if abs(vals[1]) < 10 * abs(vals[0]):
        raise RuntimeError("zero mode not separated")
    left = _weight(g, _real_phase(vecs[:, 0]), inverse=True)
    left = left / weighted_state_norm(g, left)
    overlap = float(g.dx * np.dot(right, _weight(g, left)))
    return NullPair(right, left, overlap, complex(vals[0]), g)


def _weight(g: Grid, U: np.ndarray, inverse: bool = False) -> np.ndarray:
    """W U (or W^{-1} U, dividing by the weight) for a stacked U = (u, v),
    W = blockdiag(1 + k^2, 1)."""
    uh = np.fft.fft(U[:g.n])
    uh = uh / g.h1_weight if inverse else g.h1_weight * uh
    return np.concatenate([np.real(np.fft.ifft(uh)), U[g.n:]])


def static_projector_matrix(static: Profile, nu: float | None = None) -> np.ndarray:
    """Static-wall projector P U = U - <U, Phi0>_{L2xL2} / <Theta0, Phi0> Theta0
    with Theta0 = (theta', 0), Phi0 = (nu theta', theta')."""
    nu = static.nu if nu is None else nu
    g = static.grid
    dth = derivative(static.theta, 1).values
    theta0 = np.concatenate([dth, np.zeros(g.n)])
    phi0 = np.concatenate([nu * dth, dth])
    denom = g.dx * float(np.dot(theta0, phi0))
    return np.eye(2 * g.n) - np.outer(theta0, g.dx * phi0) / denom


def closed_form_damped_mode(nu: float, Lam: float, u0: float, v0: float, t):
    """Exact solution of u'' + nu u' + Lam u = 0 with u(0)=u0, u'(0)=v0."""
    disc = np.sqrt(complex(nu**2 - 4.0 * Lam))
    t = np.asarray(t)
    if abs(disc) < 1e-12:
        r = -nu / 2.0
        a, b = u0, v0 - r * u0
        u = (a + b * t) * np.exp(r * t)
        v = (b + r * (a + b * t)) * np.exp(r * t)
        return np.real(u), np.real(v)
    rp = (-nu + disc) / 2.0
    rm = (-nu - disc) / 2.0
    a = (v0 - rm * u0) / (rp - rm)
    b = u0 - a
    u = a * np.exp(rp * t) + b * np.exp(rm * t)
    v = a * rp * np.exp(rp * t) + b * rm * np.exp(rm * t)
    return np.real(u), np.real(v)


def integrate_linear_mode(nu: float, Lam: float, u0: float, v0: float,
                          dt: float, n_steps: int):
    """Propagate one frozen linear mode with the exponential step weights
    (no remainder term), returning the (u, v) time series."""
    disc = np.sqrt(complex(nu**2 - 4.0 * Lam))
    if abs(disc) < 1e-8:
        disc += 1e-8
    lp = (-nu + disc) / 2.0
    lm = (-nu - disc) / 2.0
    E11, E12, E21, E22 = _companion_function(
        np.array([lp]), np.array([lm]), np.array([complex(Lam)]),
        lambda z: np.exp(z * dt))
    u = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    u[0], v[0] = u0, v0
    uu, vv = complex(u0), complex(v0)
    for i in range(n_steps):
        uu, vv = E11[0] * uu + E12[0] * vv, E21[0] * uu + E22[0] * vv
        u[i + 1], v[i + 1] = uu.real, vv.real
    return u, v


def damped_wave_remainder(grid: Grid, nu: float, c: float, H: float):
    """w -> the bounded part of phi_t at theta = w + arcsin(tanh x):
    sin(theta) T(cos theta) - H cos(theta) plus the background forcing
    (1-c^2) sech'' + c nu sech, with sech'' the spectral derivative of the
    sampled sech x, as the energy gradient differentiates it."""
    mult_T = 1.0 + np.abs(grid.k)
    bg = np.arcsin(np.tanh(grid.x))
    sech = 1.0 / np.cosh(grid.x)
    forcing = ((1.0 - c**2) * np.real(np.fft.ifft(grid.k_deriv * np.fft.fft(sech)))
               + c * nu * sech)

    def remainder(w):
        theta = w + bg
        Tc = np.real(np.fft.ifft(mult_T * np.fft.fft(np.cos(theta))))
        return np.sin(theta) * Tc - H * np.cos(theta) + forcing
    return remainder


def damped_wave_rhs(grid: Grid, nu: float, c: float, H: float):
    """(w, phi) -> (theta_t, phi_t) of
    theta_t = phi, phi_t = (1-c^2) w'' + c nu w' + 2c phi' - nu phi + G(w)
    in physical space, derivatives spectral with the Nyquist mode zeroed;
    G is damped_wave_remainder."""
    remainder = damped_wave_remainder(grid, nu, c, H)
    kd, kd2 = grid.k_deriv, np.real(grid.k_deriv**2)

    def spectral(mult, f):
        return np.real(np.fft.ifft(mult * np.fft.fft(f)))

    def rhs(w, phi):
        return phi, ((1.0 - c**2) * spectral(kd2, w) + c * nu * spectral(kd, w)
                     + 2.0 * c * spectral(kd, phi) - nu * phi + remainder(w))
    return rhs


def rk4_step(grid: Grid, nu: float, c: float, H: float, dt: float):
    """(w, phi) -> (w, phi) one step dt later, by classical RK4 on
    damped_wave_rhs."""
    rhs = damped_wave_rhs(grid, nu, c, H)

    def step(w, phi):
        k1w, k1p = rhs(w, phi)
        k2w, k2p = rhs(w + dt / 2 * k1w, phi + dt / 2 * k1p)
        k3w, k3p = rhs(w + dt / 2 * k2w, phi + dt / 2 * k2p)
        k4w, k4p = rhs(w + dt * k3w, phi + dt * k3p)
        return (w + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w),
                phi + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))
    return step


def nearest_kdtree(points, targets, k: int = 1):
    """(distances, indices), each (len(points), k), of the k targets
    nearest to each point, from scipy's k-d tree on (Re, Im)."""
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    k = min(k, len(targets))
    tree = cKDTree(np.column_stack([targets.real, targets.imag]))
    d, i = tree.query(np.column_stack([points.real, points.imag]), k=k)
    return (d[:, None], i[:, None]) if k == 1 else (d, i)


def sweep_points_reference(delta: float, M1: float, rmax: float,
                           n_radial: int, n_angular: int, n_gamma: int):
    """The sample points of spectra.resolvent_sweep and their regions, built
    point by point: the log-polar grid (a point inside the contour square
    pushed radially past it), the near-real G1 line, the Gamma contour.
    Each angle phi and its mirror -phi come from the average of the two
    linspace angles, and the phase at -phi is the conjugate of the one at
    phi, so mirror points are exact conjugates."""
    angles = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, n_angular)
    lams = []
    for r in np.geomspace(delta / 4.0, rmax, n_radial):
        for i, a in enumerate(angles):
            phi = 0.5 * (a - angles[n_angular - 1 - i])
            z = np.exp(1j * abs(phi))
            z = np.conj(z) if phi < 0 else z
            lam = -delta + r * z
            if not in_region_G(lam, delta):
                lam = -delta + (r + 2.5 * delta) * z
            lams.append(lam)
    for r in np.geomspace(M1 + delta, rmax, n_radial):
        for im in (-0.5 * delta, 0.0, 0.5 * delta):
            lams.append(r + 1j * im)
    regions = ["G2" if abs(lam.imag) > delta else "G1" if lam.real > M1
               else "G3" for lam in lams]
    return (lams + list(gamma_square(delta, n_gamma)),
            regions + ["Gamma"] * n_gamma)


def gk_batch_reference(matvec, rmatvec, m, size, tol, max_iter, seed,
                       dtype=np.complex128):
    """Lanczos sigma_max estimates on S*S by the three-term recurrence,
    with the batched tridiagonal eigvalsh run at every step: the loop
    spectra._gk_batch must reproduce its estimates bit for bit, and its
    step counts.  Row norms are summed over the real view, as there."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v0 = (v0 / np.linalg.norm(v0)).astype(dtype)
    act = np.arange(m)
    v, v_prev = np.tile(v0, (m, 1)), None
    alphas = np.zeros((m, max_iter))
    betas = np.zeros((m, max_iter))
    est, est_before = np.zeros((2, m))
    steps = np.zeros(m, dtype=int)
    for j in range(max_iter):
        u = matvec(v, act)
        a = np.linalg.norm(u.view(u.real.dtype), axis=1) ** 2
        w = rmatvec(u, act) - a[:, None] * v
        if j:
            w = w - b[:, None] * v_prev
        b = np.linalg.norm(w.view(w.real.dtype), axis=1)
        alphas[act, j], betas[act, j] = a, b
        steps[act] = j + 1
        top = _all_top_eigenvalues(alphas[act, :j + 1], betas[act, :j])
        new = np.sqrt(np.maximum(top, 0.0))
        done = b < 1e-12 * np.maximum(top, 1.0)
        if j + 1 >= GK_MIN_ITER:
            done |= np.abs(new - est_before[act]) <= 2.0 * tol * new
        est_before[act] = est[act]
        est[act] = new
        if done.any():
            keep = ~done
            act = act[keep]
            if not act.size:
                break
            v, w, b = v[keep], w[keep], b[keep]
        v_prev, v = v, w / b[:, None]
    return est, steps


def gk_batch_reorth_reference(matvec, rmatvec, m, size, tol, max_iter, seed,
                              dtype=np.complex128):
    """The same Lanczos estimates with full reorthogonalization: each new
    vector is orthogonalized (modified Gram-Schmidt) against the whole
    stored Krylov basis, which the three-term recurrence of
    spectra._gk_batch does without."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v0 = (v0 / np.linalg.norm(v0)).astype(dtype)
    act = np.arange(m)
    Vs = [np.tile(v0, (m, 1))]
    alphas = np.zeros((m, max_iter))
    betas = np.zeros((m, max_iter))
    est, est_before = np.zeros((2, m))
    steps = np.zeros(m, dtype=int)
    for j in range(max_iter):
        u = matvec(Vs[-1], act)
        a = np.linalg.norm(u, axis=1) ** 2
        w = rmatvec(u, act) - a[:, None] * Vs[-1]
        if j:
            w -= b[:, None] * Vs[-2]
        for vv in Vs:
            w -= np.vecdot(vv, w)[:, None] * vv
        b = np.linalg.norm(w, axis=1)
        alphas[act, j], betas[act, j] = a, b
        steps[act] = j + 1
        top = _all_top_eigenvalues(alphas[act, :j + 1], betas[act, :j])
        new = np.sqrt(np.maximum(top, 0.0))
        done = b < 1e-12 * np.maximum(top, 1.0)
        if j + 1 >= GK_MIN_ITER:
            done |= np.abs(new - est_before[act]) <= 2.0 * tol * new
        est_before[act] = est[act]
        est[act] = new
        if done.any():
            keep = ~done
            act = act[keep]
            if not act.size:
                break
            Vs = [x[keep] for x in Vs]
            w, b = w[keep], b[keep]
        Vs.append(w / b[:, None])
    return est, steps


def _all_top_eigenvalues(alphas, betas):
    """Largest eigenvalue of each tridiagonal (alphas, betas) by eigvalsh of
    the full symmetric matrices."""
    k = np.arange(alphas.shape[1])
    T = np.zeros((alphas.shape[0], len(k), len(k)))
    T[:, k, k] = alphas
    T[:, k[1:], k[:-1]] = betas
    return np.linalg.eigvalsh(T)[:, -1]


def solve_traveling_dense(grid: Grid, H: float, nu: float, init: Profile,
                          tol: float = 1e-10) -> Profile:
    """Bordered Newton (n+1 unknowns: remainder and speed) with continuation
    in H from init, steps <= CONTINUATION_STEP and at most NEWTON_MAX_ITER
    residual evaluations each; the phase is pinned on init's slope.
    Each step assembles the dense (n+1)^2 Jacobian from
    Linearization.dense() and reuses its LU factors while the residual
    falls fast (a chord step): the reference profiles.solve_traveling
    is checked against.  Deliberately unpredicted: every continuation step
    starts from the last point, not from profiles.solve_traveling's secant,
    and init's recorded previous_point is ignored, so the oracle shares no
    starting iterate with the code it checks."""
    if abs(H) > H_ENVELOPE:
        raise ValueError(f"|H| <= {H_ENVELOPE} is the supported envelope, got {H}")
    if nu <= 0:
        raise ValueError("nu must be positive")
    theta = init.theta
    c = init.c
    theta_bar_prime = derivative(init.theta, 1).values
    w_ref = theta.values.copy()
    dx = grid.dx
    n = grid.n

    H_start = init.H
    n_steps = max(1, int(np.ceil(abs(H - H_start) / CONTINUATION_STEP)))
    history = []
    for H_step in np.linspace(H_start, H, n_steps + 1)[1:]:
        lu = None
        prev_res = np.inf
        growth = 0
        for it in range(NEWTON_MAX_ITER):
            R = traveling_residual(grid, theta, c, nu, H_step)
            phase = float(dx * np.sum((theta.values - w_ref) * theta_bar_prime))
            res = float(np.hypot(l2_norm(grid, R), abs(phase)))
            history.append(res)
            if res <= tol:
                break
            if abs(c) >= 1:
                raise SolverError(f"speed |c| = {abs(c)} reached 1", history)
            growth = growth + 1 if res > prev_res else 0
            if growth >= 5:
                raise SolverError("Newton diverged (residual grew 5 times)", history)
            if lu is None or res > 0.3 * prev_res:
                # (re)assemble the bordered Jacobian and factor it
                J = np.zeros((n + 1, n + 1))
                J[:n, :n] = Linearization(grid, theta.reconstruct(), c, nu,
                                          H_step).dense()
                d1 = derivative(theta, 1).values
                d2 = derivative(theta, 2).values
                J[:n, n] = 2.0 * c * d2 - nu * d1
                J[n, :n] = dx * theta_bar_prime
                lu = sla.lu_factor(J)
            prev_res = res
            rhs = np.concatenate([R, [phase]])
            delta = sla.lu_solve(lu, rhs)
            theta = theta.with_values(theta.values - delta[:n])
            c = c - float(delta[n])
        else:
            raise SolverError(
                f"traveling solve stalled at H={H_step} "
                f"(residual {history[-1]:.3e})", history)
    if abs(c) >= 1:
        raise SolverError(f"converged speed |c| = {abs(c)} >= 1", history)
    return Profile(theta, float(H), float(c), float(nu), history[-1] if history else 0.0,
                   meta={"iterations": len(history), "L": grid.L, "n": grid.n,
                         "mode": "nonlocal"})


STATIC_MAX_ITER = 2000    # descent iterations of the static solve at most


def _recenter(w: Field) -> Field:
    """Shift so the reconstructed phase crosses zero at x = 0: the descent
    reference's phase condition, where profiles.solve_static pins theta(0)
    in its Newton border instead.

    The crossing is located by linear interpolation between the two samples
    bracketing the sign change nearest the origin, then polished by Newton
    on the Fourier series.
    """
    g = w.grid
    theta = w.reconstruct()
    mid = g.n // 2
    # search outward from the center for a sign change
    sgn = np.signbit(theta)
    idx = None
    for off in range(g.n - 1):
        for i in (mid - 1 - off, mid - 1 + off):
            if 0 <= i < g.n - 1 and sgn[i] != sgn[i + 1]:
                idx = i
                break
        if idx is not None:
            break
    if idx is None:
        raise SolverError("phase has no zero crossing; cannot recenter")
    x0 = g.x[idx] - theta[idx] * g.dx / (theta[idx + 1] - theta[idx])
    # polish the crossing to spectral accuracy: Newton on theta(x0) = 0 with
    # the remainder evaluated off-grid through its Fourier series
    what = np.fft.fft(w.values) / g.n
    dwhat = g.k_deriv * what

    def theta_at(x):
        ph = np.exp(1j * g.k * (x + g.L))
        return (float(np.real(np.sum(what * ph))) + wall_background(x),
                float(np.real(np.sum(dwhat * ph))) + wall_background_d1(x))

    for _ in range(4):
        val, slope = theta_at(x0)
        if slope <= 0 or abs(val) < 1e-14:
            break
        x0 -= val / slope
    if abs(x0) < 1e-15:
        return w
    return shift(w, x0)


def _newton_polish(theta: Field, mode: str, tol: float, history: list):
    """Newton steps with preconditioned CG on the (singular) Hessian; the
    translation direction is projected out of right-hand side and iterates."""
    grid = theta.grid
    precond = 1.0 / (grid.h1_weight + np.abs(grid.k))
    for _ in range(12):
        gradE = grad_energy(theta, mode).values
        res = l2_norm(grid, gradE)
        history.append(res)
        if res <= tol:
            return theta, res
        hess = Linearization(grid, theta.reconstruct(), mode=mode).matvec
        null = derivative(theta, 1).values
        null = null / np.linalg.norm(null)

        def proj(u):
            return u - np.dot(null, u) * null

        rhs = proj(gradE)
        # hand-rolled preconditioned CG restricted to the complement of the
        # translation mode (the Hessian is positive there)
        d = np.zeros(grid.n)
        r = rhs.copy()
        z = proj(apply_multiplier(grid, r, precond))
        p = z.copy()
        rz = np.dot(r, z)
        for _ in range(200):
            Ap = proj(hess(p))
            alpha = rz / np.dot(p, Ap)
            d += alpha * p
            r -= alpha * Ap
            if np.linalg.norm(r) <= 1e-4 * tol + 1e-12 * np.linalg.norm(rhs):
                break
            z = proj(apply_multiplier(grid, r, precond))
            rz_new = np.dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        theta = _recenter(theta.with_values(theta.values - d))
    return theta, l2_norm(grid, grad_energy(theta, mode).values)


def solve_static_descent(grid: Grid, tol: float = 1e-8,
                         mode: str = "nonlocal") -> Profile:
    """Energy minimization from the background arcsin(tanh x) by
    Fourier-preconditioned descent with backtracking line search (at most
    STATIC_MAX_ITER steps), followed by a Newton polish once the residual
    is small (near the minimum the line search drowns in energy round-off);
    the phase is re-centered (_recenter) every iteration.  The reference
    profiles.solve_static's bordered Newton is checked against: it shares
    only the gradient and the Hessian matvec with it."""
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    theta = Field(grid, np.zeros(grid.n), BACKGROUND_WALL)
    precond = 1.0 / grid.h1_weight
    switch = max(tol, 1e-4)
    E = energy(theta, mode).total
    alpha = 1.0
    history = []
    res = np.inf
    for it in range(STATIC_MAX_ITER):
        gradE = grad_energy(theta, mode).values
        res = l2_norm(grid, gradE)
        history.append(res)
        if res <= switch:
            break
        d = -apply_multiplier(grid, gradE, precond)
        slope = float(np.real(l2_inner(grid, gradE, d)))
        step = min(alpha * 1.5, 2.0)
        while step > 1e-14:
            trial = theta.with_values(theta.values + step * d)
            E_trial = energy(trial, mode).total
            if E_trial <= E + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            raise SolverError("line search failed in static solve", history)
        alpha = step
        theta = _recenter(trial)
        E = energy(theta, mode).total
    if res > switch:
        raise SolverError(
            f"static descent did not reach {switch:.1e} in {STATIC_MAX_ITER} "
            f"iterations (last residual {history[-1]:.3e})", history)
    if res > tol:
        theta, res = _newton_polish(theta, mode, tol, history)
    if res > tol:
        raise SolverError(
            f"static solve stalled at residual {res:.3e} (tol {tol:.1e})",
            history)
    theta = _recenter(theta)
    prof = Profile(theta, 0.0, 0.0, 1.0, res,
                   meta={"iterations": len(history), "mode": mode,
                         "energy": energy(theta, mode).total,
                         "L": grid.L, "n": grid.n})
    _check_static_invariants(prof)
    return prof
