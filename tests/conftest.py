"""Shared fixtures: small exploratory grids and solved profiles.

Session-scoped so the (comparatively) expensive solves and eigensolves run
once.  The small grid (L = 40, n = 256) keeps unit tests fast; the
full-scale runs live in test_acceptance.py.

Residual tolerances respect the per-grid floor: the periodized wall has a
seam layer at x = +-L whose defect scales with dx, so the reachable static
residual is ~3e-8 at n = 256 and ~2e-9 at n = 512 (L = 40).
"""
from __future__ import annotations

import numpy as np
import pytest

from neelwall.grid import Grid
from neelwall.profiles import Profile, solve_static, solve_traveling
from neelwall.linops import build_L, build_Lc, build_block


@pytest.fixture(scope="session")
def grid256():
    return Grid(L=40.0, n=256)


@pytest.fixture(scope="session")
def grid512():
    return Grid(L=40.0, n=512)


@pytest.fixture(scope="session")
def static256(grid256):
    return solve_static(grid256, tol=5e-8)


@pytest.fixture(scope="session")
def static512(grid512):
    return solve_static(grid512, tol=5e-9)


@pytest.fixture(scope="session")
def traveling256(grid256, static256):
    return solve_traveling(grid256, H=1e-3, nu=1.0, tol=5e-8, init=static256)


@pytest.fixture(scope="session")
def traveling512(grid512, static512):
    return solve_traveling(grid512, H=1e-3, nu=1.0, tol=5e-9, init=static512)


@pytest.fixture(scope="session")
def L_op256(static256):
    return build_L(static256)


@pytest.fixture(scope="session")
def A_op256(static256):
    return build_block(static256, with_c=False)


@pytest.fixture(scope="session")
def Ac_op256(traveling256):
    return build_block(traveling256, with_c=True)


@pytest.fixture(scope="session")
def moving_blocks256(grid256, static256):
    """A_c at n = 256 for nu in (0.5, 1, 2) and three fields, keyed
    (nu, H)."""
    return {(nu, H): build_block(solve_traveling(grid256, H, nu, tol=5e-8,
                                                 init=static256))
            for nu in (0.5, 1.0, 2.0) for H in (5e-4, 1e-3, 2e-3)}


@pytest.fixture(scope="session")
def Lc_op256(traveling256):
    return build_Lc(traveling256)


def smooth_random(grid: Grid, seed: int = 0, kmax_frac: float = 0.25,
                  decay: bool = True) -> np.ndarray:
    """Band-limited seeded random samples, optionally Gaussian-windowed so
    they decay at the seam."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.n)
    keep = np.abs(grid.k) <= kmax_frac * np.max(np.abs(grid.k))
    out = np.real(np.fft.ifft(keep * np.fft.fft(raw)))
    if decay:
        out = out * np.exp(-((grid.x / (grid.L / 3.0)) ** 2))
    return out
