"""Independent oracles, written out term by term apart from the code they
check: the drift perturbation S of B_c, the static projector, and one damped
linear mode in closed form and under the exponential step weights."""
from __future__ import annotations

import numpy as np

from neelwall.dynamics import _companion_function
from neelwall.grid import apply_multiplier, derivative, multiplier_matrix
from neelwall.profiles import Profile


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
