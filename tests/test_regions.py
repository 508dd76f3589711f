"""Closed-form region functions and the sampled inequality suite.

Oracles:
  * The u-substituted form of S agrees with the defining form to roundoff.
  * Minimizing S^2 over the angle in closed form shows the stated imaginary
    lower bound is dominated by the true minimum.
  * Each sampled inequality passes at unit-test sample sizes.
  * The chunked envelope check and the array samplers reproduce, bit for
    bit, the full-array and list-based reference implementations written
    out at the end of this file.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from neelwall import regions
from neelwall.regions import (
    _CHUNK, RegionParams, S_func, S_func_substituted, S_imag_lower_bound,
    S_lower_bound, a_of, aux1_hypothesis, check_aux1, check_aux2,
    check_M_bounded, epsilon_of, f_a_func, run_all_checks,
)
from neelwall.spectra import _label, gamma_square, in_region_G

PARAMS = RegionParams(nu=1.0, delta=0.2, Lambda0=0.44, beta=0.9)


def test_params_validation():
    for nu in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            RegionParams(nu=nu, delta=0.2, Lambda0=0.4, beta=0.9)
    for Lambda0 in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Lambda0 must be positive and "
                                             "finite"):
            RegionParams(nu=1.0, delta=0.2, Lambda0=Lambda0, beta=0.9)
    with pytest.raises(ValueError):
        RegionParams(nu=1.0, delta=0.6, Lambda0=0.4, beta=0.9)   # delta >= nu/2
    with pytest.raises(ValueError):
        RegionParams(nu=1.0, delta=0.2, Lambda0=-0.4, beta=0.9)
    with pytest.raises(ValueError):
        RegionParams(nu=1.0, delta=0.2, Lambda0=0.4, beta=1.5)
    with pytest.raises(ValueError):
        RegionParams(nu=1.0, delta=0.49, Lambda0=0.4, beta=0.9)  # 2d >= b nu


def test_substitution_identity_pointwise():
    rng = np.random.default_rng(0)
    phi = rng.uniform(0, np.pi / 2, 1000)
    lam = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    s1 = S_func(phi, lam, 1.0)
    s2 = S_func_substituted(phi, lam, 1.0)
    assert np.max(np.abs(s1 - s2)) <= 1e-12


def test_S_lower_bound_value():
    # delta (nu/2 - delta) / sqrt(delta^2 + nu^2/4)
    d, nu = PARAMS.delta, PARAMS.nu
    assert S_lower_bound(PARAMS) == pytest.approx(
        d * (nu / 2 - d) / np.hypot(d, nu / 2))


def test_S_imag_bound_dominated_by_angular_minimum():
    # min over phi of S^2 is |Im||Re + nu/2| / sqrt(nu^2/4 + Im^2), which
    # must dominate the stated bound (sharp as |Im| -> 0 or infinity)
    rng = np.random.default_rng(1)
    lam = rng.uniform(-0.4, 10, 2000) + 1j * rng.uniform(0.01, 50, 2000)
    nu = 1.0
    exact_min = (np.abs(lam.imag) * np.abs(lam.real + nu / 2)
                 / np.sqrt(nu**2 / 4 + lam.imag**2))
    assert np.all(exact_min >= S_imag_lower_bound(lam, nu) - 1e-12)


def test_a_of_and_epsilon():
    assert a_of(0.0, 1.0, 4.0) == pytest.approx(0.5)
    eps = epsilon_of(PARAMS.beta, PARAMS.nu, PARAMS.Lambda0)
    assert 0 < eps < 1


def test_f_a_sign_change():
    # f_a(0) = 1 - a > 0 and f_a(pi/2) = -(1 + a) < 0 for a < 1
    lam = 0.0 + 5j
    nu, L0 = 1.0, 100.0
    assert f_a_func(0.0, lam, L0, nu) > 0
    assert f_a_func(np.pi / 2, lam, L0, nu) < 0


def test_aux1_hypothesis_mask():
    ok = 0.0 + 2j
    assert aux1_hypothesis(ok, PARAMS)
    assert not aux1_hypothesis(-1.0 + 2j, PARAMS)    # Re too negative
    assert not aux1_hypothesis(0.0 + 0.1j, PARAMS)   # Im too small


def test_in_G2_and_contour():
    d = PARAMS.delta
    # G2 is the part of G that the sweep labels "G2"
    assert in_region_G(2j * d, d) and _label(2j * d, d, 1.0) == "G2"
    assert _label(0.5j * d, d, 1.0) != "G2"
    assert not in_region_G(-2 * d + 2j * d, d)
    pts = gamma_square(d, 32)
    assert len(pts) == 32
    # contour points sit on the square boundary, outside G2's interior
    assert np.max(np.maximum(np.abs(pts.real), np.abs(pts.imag))) \
        == pytest.approx(d)
    # scalar and array G membership agree
    assert in_region_G(1.0 + 0j, d) and not in_region_G(0.0 + 0j, d)
    arr = in_region_G(np.array([1.0 + 0j, 0.0 + 0j]), d)
    assert arr.tolist() == [True, False]


def test_run_all_checks_pass():
    checks = run_all_checks(PARAMS, n_samples=20_000, seed=0)
    assert len(checks) == 6
    for c in checks:
        assert c.passed, f"{c.name}: observed {c.observed} vs bound {c.bound}"


def test_checks_deterministic():
    a = check_M_bounded(PARAMS, n_samples=50_000, seed=7)
    b = check_M_bounded(PARAMS, n_samples=50_000, seed=7)
    assert a.observed == b.observed


def test_M_sup_stable_under_resampling():
    a = check_M_bounded(PARAMS, n_samples=100_000, seed=1)
    b = check_M_bounded(PARAMS, n_samples=400_000, seed=2)
    assert abs(a.observed - b.observed) / b.observed <= 0.05


# ---------------------------------------------------------------------------
# reference implementations: the full-array envelope check, a scalar G filter
# and the list-based admissible samplers, as the checks were first written


def _M_bounded_reference(params, n_samples, seed):
    rng = np.random.default_rng(seed)
    nu, delta = params.nu, params.delta
    phi = rng.uniform(0, np.pi / 2, n_samples)
    re = -delta + 10.0 ** rng.uniform(np.log10(delta / 10.0),
                                      np.log10(1e3 * nu), n_samples)
    im = delta * 10.0 ** rng.uniform(0, np.log10(1e3 * nu / delta), n_samples) \
        * rng.choice([-1.0, 1.0], n_samples)
    lam = re + 1j * im
    vals = regions.M_func(phi, lam, params)
    finite = np.isfinite(vals)
    i = int(np.argmax(np.where(finite, vals, -np.inf)))
    sup = float(vals[i])
    return (bool(np.all(finite)) and np.isfinite(sup), sup,
            {"arg_phi": float(phi[i]), "arg_lam": complex(lam[i]),
             "n_infinite": int(np.sum(~finite))})


def _assert_M_bounded_matches(n_samples, seed):
    got = check_M_bounded(PARAMS, n_samples=n_samples, seed=seed)
    passed, sup, extra = _M_bounded_reference(PARAMS, n_samples, seed)
    assert got.passed == passed
    assert got.observed == sup
    assert got.extra == extra
    return got


@pytest.mark.parametrize("n_samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 150_001])
def test_M_bounded_streams_bit_identical(n_samples):
    got = _assert_M_bounded_matches(n_samples, seed=11)
    assert got.passed and got.extra["n_infinite"] == 0


def test_M_bounded_non_finite_values(monkeypatch):
    # inf is planted by a rule on the sample values, so chunking cannot move it
    n, seed = 3 * _CHUNK + 17, 12
    first_phi = np.random.default_rng(seed).uniform(0, np.pi / 2, n)[:_CHUNK]
    rules = {
        "first chunk": lambda phi, lam: np.isin(phi, first_phi),
        "upper half, small angle": lambda phi, lam: (lam.imag > 0) & (phi < 0.3),
        "everywhere": lambda phi, lam: np.ones(np.shape(phi), dtype=bool),
    }
    M_func = regions.M_func
    for name, rule in rules.items():
        with monkeypatch.context() as m:
            m.setattr(regions, "M_func", lambda phi, lam, p, rule=rule: np.where(
                rule(phi, lam), np.inf, M_func(phi, lam, p)))
            got = _assert_M_bounded_matches(n, seed)
        assert not got.passed and got.extra["n_infinite"] > 0, name
    # every value infinite: sample 0 is reported, as argmax reports it
    assert got.extra["n_infinite"] == n and got.observed == np.inf


def test_M_bounded_memory_independent_of_sample_count():
    # every chunk draws its own samples: one budget holds at 1e6 and 4e6
    # samples, where full-array draws take 40 bytes per sample (40, 160 MB)
    for n_samples in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            check_M_bounded(PARAMS, n_samples=n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"{n_samples}: tracemalloc peak {peak / 1e6:.1f} MB"


def _in_G_scalar(z, delta):
    return z.real > -delta and not (abs(z.real) < delta and abs(z.imag) < delta)


def test_in_region_G_elementwise_matches_scalar():
    d = PARAMS.delta
    edges = np.linspace(-2 * d, 2 * d, 41)        # includes the square's sides
    lam = (edges[:, None] + 1j * edges[None, :]).ravel()
    assert in_region_G(lam, d).tolist() == [_in_G_scalar(complex(z), d) for z in lam]


def _sample_G_reference(rng, delta, nu, n):
    r = np.empty(n)
    third = n // 3
    r[:third] = delta * (1.0 + 10.0 ** rng.uniform(-3, 0.5, third))
    r[third:] = 10.0 ** rng.uniform(np.log10(delta / 2.0),
                                    np.log10(1e3 * nu), n - third)
    phi = rng.uniform(-np.pi / 2, np.pi / 2, n)
    lam = -delta + r * np.exp(1j * phi)
    lam = lam[np.array([_in_G_scalar(complex(z), delta) for z in lam])]
    while len(lam) < n:
        lam = np.concatenate([lam, _sample_G_reference(rng, delta, nu, n - len(lam))])
    return lam[:n]


def test_sample_G_matches_scalar_filter():
    for seed in range(3):
        got = regions._sample_G(np.random.default_rng(seed), 0.2, 1.0, 20_000)
        ref = _sample_G_reference(np.random.default_rng(seed), 0.2, 1.0, 20_000)
        assert np.array_equal(got, ref)


def _aux_reference(params, n_samples, seed, which):
    """check_aux1 (which = 1) or check_aux2 with a Python-list sampler;
    returns the samples and the observed worst margin."""
    rng = np.random.default_rng(seed)
    L0, nu, beta = params.Lambda0, params.nu, params.beta
    lam = []
    while len(lam) < n_samples:
        re = rng.uniform(-beta * nu / 2.0, 10.0 * nu, n_samples)
        im_min = np.sqrt(L0 + np.sqrt(L0) * (2.0 - beta) * nu)
        if which == 1:
            im = rng.uniform(im_min, im_min + 10.0 ** rng.uniform(-2, 2, n_samples)) \
                * rng.choice([-1.0, 1.0], n_samples)
        else:
            im = im_min * 10.0 ** rng.uniform(0, 2, n_samples) \
                * rng.choice([-1.0, 1.0], n_samples)
        cand = re + 1j * im
        lam.extend(cand[aux1_hypothesis(cand, params)])
    lam = np.array(lam[:n_samples])
    if which == 1:
        margin = (np.abs(1.0 - np.abs(nu + lam) / np.sqrt(L0))
                  - (1.0 - beta / 2.0) * nu / np.sqrt(L0))
    else:
        eps = 0.5 * np.arcsin(epsilon_of(beta, nu, L0))
        phi = rng.uniform(-eps, eps, n_samples)
        margin = (np.abs(f_a_func(phi, lam, L0, nu))
                  - 0.5 * (1.0 - beta / 2.0) * nu / np.sqrt(L0))
    return lam, float(np.min(margin))


@pytest.mark.parametrize("which, check", [(1, check_aux1), (2, check_aux2)])
def test_aux_samplers_match_list_reference(monkeypatch, which, check):
    # Lambda0 = 5 makes the hypothesis reject some candidates
    params = RegionParams(nu=1.0, delta=0.2, Lambda0=5.0, beta=0.9)
    sample, seen = regions._sample_admissible, []
    monkeypatch.setattr(regions, "_sample_admissible",
                        lambda *args: seen.append(sample(*args)) or seen[-1])
    got = check(params, n_samples=30_001, seed=9)
    lam, worst = _aux_reference(params, 30_001, 9, which)
    assert np.array_equal(seen[0], lam)
    assert got.observed == worst
