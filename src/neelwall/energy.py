"""Reduced wall energy E(theta) and its L2 gradient.

E(theta) = 1/2 ( ||theta'||_{L2}^2 + ||cos theta||_{Hhalf}^2
                 + ||cos theta||_{L2}^2 ),    theta(+-inf) = +-pi/2.

grad E(theta) = -theta'' - sin(theta) T(cos theta), the unique L2 gradient of
the functional above (validated against finite differences of energy(); see
gradient_selftest).  ``mode="local"`` replaces T by the identity, which makes
arcsin(tanh x) an exact critical point and serves as a closed-form oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    BACKGROUND_NONE,
    Field,
    apply_multiplier,
    derivative,
    hhalf_seminorm_sq,
    l2_inner,
    l2_norm,
)

MODES = ("nonlocal", "local")


@dataclass(frozen=True)
class EnergyBreakdown:
    exchange: float
    stray: float
    anisotropy: float

    @property
    def total(self) -> float:
        return self.exchange + self.stray + self.anisotropy


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def energy(theta: Field, mode: str = "nonlocal") -> EnergyBreakdown:
    """Evaluate the three energy terms by Fourier quadrature."""
    _check_mode(mode)
    g = theta.grid
    dtheta = derivative(theta, 1).values
    c = np.cos(theta.reconstruct())
    exchange = 0.5 * l2_norm(g, dtheta) ** 2
    anisotropy = 0.5 * l2_norm(g, c) ** 2
    stray = 0.0 if mode == "local" else 0.5 * hhalf_seminorm_sq(g, c)
    return EnergyBreakdown(exchange, stray, anisotropy)


def grad_energy(theta: Field, mode: str = "nonlocal") -> Field:
    """L2 gradient -theta'' - sin(theta) T(cos theta); decaying output."""
    _check_mode(mode)
    # theta'' = D o D, background slope included: the exact discrete
    # adjoint of the exchange term
    return Field(theta.grid, _gradient(theta, derivative(theta, 2).values,
                                       mode), BACKGROUND_NONE)


def _gradient(theta: Field, d2: np.ndarray, mode: str) -> np.ndarray:
    """-d2 - sin(theta) T(cos theta): grad_energy's samples from the second
    derivative d2 = derivative(theta, 2) that the caller already holds."""
    g = theta.grid
    full = theta.reconstruct()
    c = np.cos(full)
    Tc = c if mode == "local" else apply_multiplier(g, c, g.T)
    return -d2 - np.sin(full) * Tc


def gradient_selftest(theta: Field, seed: int = 0) -> float:
    """Directional finite-difference check of the nonlocal grad_energy.

    Returns the worst relative error
    |<gradE, u> - (E(theta+eps u) - E(theta-eps u))/(2 eps)| / (1 + |<gradE,u>|)
    with eps = 1e-5, over two random smooth directions.  Used as a cheap
    startup self-test.
    """
    g = theta.grid
    eps = 1e-5
    rng = np.random.default_rng(seed)
    gradE = grad_energy(theta).values
    # keep directions smooth so quadrature is exact
    smooth = np.abs(g.k) <= 0.5 * np.max(np.abs(g.k))
    worst = 0.0
    for _ in range(2):
        u = apply_multiplier(g, rng.standard_normal(g.n), smooth)
        u /= l2_norm(g, u)
        analytic = l2_inner(g, gradE, u)
        ep = energy(theta.with_values(theta.values + eps * u)).total
        em = energy(theta.with_values(theta.values - eps * u)).total
        fd = (ep - em) / (2.0 * eps)
        worst = max(worst, abs(analytic - fd) / (1.0 + abs(analytic)))
    return worst
