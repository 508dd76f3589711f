"""Energy functional and its gradient.

Oracles:
  * Local mode: theta = arcsin(tanh x) is an exact critical point with
    energy exactly 2 (exchange 1 + anisotropy 1; integral of sech^2 = 2).
  * Finite differences: directional derivatives of energy() match
    <grad E, u> to O(eps^2).
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neelwall.energy import EnergyBreakdown, energy, grad_energy, gradient_selftest
from neelwall.grid import BACKGROUND_WALL, Field, Grid, l2_inner, l2_norm
from conftest import smooth_random

G = Grid(L=40.0, n=256)


def _wall(values=None):
    return Field(G, np.zeros(G.n) if values is None else values,
                 BACKGROUND_WALL)


def test_breakdown_total():
    b = EnergyBreakdown(1.0, 0.25, 0.5)
    assert b.total == pytest.approx(1.75)


def test_local_mode_oracle_energy_two():
    b = energy(_wall(), mode="local")
    assert b.stray == 0.0
    assert b.exchange == pytest.approx(1.0, abs=1e-10)
    assert b.anisotropy == pytest.approx(1.0, abs=1e-10)
    assert b.total == pytest.approx(2.0, abs=1e-8)


def test_local_mode_gradient_vanishes_on_background():
    # limited by the Fourier tail of sech at this resolution
    # (~e^{-pi k_max / 2} ~ 1e-6 for dx = 0.3125); drops to 1e-8 at n = 2048
    g = grad_energy(_wall(), mode="local").values
    assert l2_norm(G, g) <= 1e-5


def test_nonlocal_energy_exceeds_local():
    # the stray-field term only adds energy
    e_nl = energy(_wall()).total
    e_loc = energy(_wall(), mode="local").total
    assert e_nl > e_loc


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        energy(_wall(), mode="bogus")
    with pytest.raises(ValueError):
        grad_energy(_wall(), mode="bogus")


@pytest.mark.parametrize("mode", ["nonlocal", "local"])
def test_gradient_matches_finite_differences(mode):
    theta = _wall(0.1 * smooth_random(G, seed=1))
    gradE = grad_energy(theta, mode).values
    u = smooth_random(G, seed=2)
    u /= l2_norm(G, u)
    analytic = l2_inner(G, gradE, u)
    errs = []
    for eps in (1e-3, 1e-4):
        ep = energy(theta.with_values(theta.values + eps * u), mode).total
        em = energy(theta.with_values(theta.values - eps * u), mode).total
        errs.append(abs((ep - em) / (2 * eps) - analytic))
    assert errs[0] / max(abs(analytic), 1e-12) <= 1e-5
    # O(eps^2): a decade in eps gains ~two decades in accuracy
    assert errs[1] <= 0.05 * errs[0]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gradient_selftest_random_states(seed):
    theta = _wall(0.05 * smooth_random(G, seed=seed))
    assert gradient_selftest(theta, seed=seed) <= 1e-6


def test_gradient_output_is_decaying_field():
    g = grad_energy(_wall())
    assert g.background == "none"
    # gradient of the wall decays at the seam up to the O(dx) seam layer
    assert abs(g.values[0]) < 0.1
