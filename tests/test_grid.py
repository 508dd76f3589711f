"""Grid primitives: multipliers, derivatives, shifts, norms.

Oracles:
  * Poisson kernel: the half-Laplacian of P_t(x) = t / (pi (t^2 + x^2))
    equals -d/dt P_t = (t^2 - x^2) / (pi (t^2 + x^2)^2), from the
    translation-semigroup property of exp(-t(-Delta)^{1/2}).  The kernel
    decays only algebraically, so the periodized comparison carries an
    O(1/L) tail error and is checked on the interior at 2e-4.
  * Single Fourier mode: (-Delta)^{1/2} cos(k x) = |k| cos(k x) exactly.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neelwall.grid import (
    BACKGROUND_WALL, Field, Grid, apply_multiplier, derivative, h1_norm,
    hhalf_seminorm_sq, l2_inner, l2_norm, multiplier_matrix, shift,
    state_norm, wall_background, wall_background_d1,
)
from neelwall import grid as grid_module
from conftest import smooth_random

G = Grid(L=40.0, n=256)


# ---------------------------------------------------------------------------
# construction and validation


def test_grid_geometry():
    assert G.dx == pytest.approx(2 * G.L / G.n)
    assert G.x[0] == -G.L
    assert G.x[-1] == pytest.approx(G.L - G.dx)
    # wavenumbers are multiples of pi / L
    assert np.allclose(np.diff(np.sort(G.k)), np.pi / G.L)


@pytest.mark.parametrize("L,n", [(-1.0, 256), (0.0, 256), (40.0, 100),
                                 (40.0, 8), (np.inf, 256), (np.nan, 256),
                                 (40.0, 256.0)])
def test_grid_rejects_bad_parameters(L, n):
    with pytest.raises(ValueError):
        Grid(L, n)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(G, np.zeros(G.n - 1))
    with pytest.raises(ValueError):
        Field(G, np.full(G.n, np.nan))
    with pytest.raises(ValueError):
        Field(G, np.zeros(G.n), background="bogus")
    # a wall-background field must saturate at the ends
    with pytest.raises(ValueError):
        Field(Grid(40.0, 256), np.full(256, 1.0), BACKGROUND_WALL)


def test_wall_background_reconstruct():
    f = Field(G, np.zeros(G.n), BACKGROUND_WALL)
    assert np.allclose(f.reconstruct(), np.arcsin(np.tanh(G.x)))


def test_grid_background_cached_and_read_only():
    bg = G.background
    assert bg is G.background
    assert np.array_equal(bg, wall_background(G.x))
    assert not bg.flags.writeable


def test_grid_k2_and_T_cached_and_read_only():
    # the multipliers every module reads, equal to the expressions they
    # replaced there: k^2 with the Nyquist mode zeroed, and 1 + |k|
    for arr, ref in ((G.k2, -np.real(G.k_deriv**2)), (G.T, 1.0 + np.abs(G.k))):
        assert np.array_equal(arr, ref)
        assert not arr.flags.writeable
    assert G.k2 is G.k2 and G.T is G.T
    assert G.k2[G.n // 2] == 0.0 and G.k2[G.n // 2 - 1] == G.k[G.n // 2 - 1] ** 2


# ---------------------------------------------------------------------------
# half-Laplacian oracles


def test_half_laplacian_poisson_kernel():
    t = 2.0
    P = t / (np.pi * (t**2 + G.x**2))
    expected = (t**2 - G.x**2) / (np.pi * (t**2 + G.x**2) ** 2)
    got = apply_multiplier(G, P, np.abs(G.k))
    interior = np.abs(G.x) <= G.L / 2
    assert np.max(np.abs(got - expected)[interior]) <= 2e-4


def test_half_laplacian_single_mode_exact():
    j = 7
    k = np.pi * j / G.L
    f = np.cos(k * G.x)
    assert np.allclose(apply_multiplier(G, f, np.abs(G.k)), k * f, atol=1e-12)
    assert np.allclose(apply_multiplier(G, f, G.T), (1 + k) * f, atol=1e-12)


def test_half_laplacian_parseval():
    f = smooth_random(G, seed=3)
    hf = apply_multiplier(G, f, np.abs(G.k))
    assert l2_inner(G, hf, f) == pytest.approx(hhalf_seminorm_sq(G, f),
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# hypothesis properties of the multipliers


seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_T_self_adjoint(s1, s2):
    f = smooth_random(G, seed=s1)
    g = smooth_random(G, seed=s2)
    Tf = apply_multiplier(G, f, G.T)
    Tg = apply_multiplier(G, g, G.T)
    assert l2_inner(G, Tf, g) == pytest.approx(l2_inner(G, f, Tg),
                                               rel=1e-10, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_T_positive(s):
    f = smooth_random(G, seed=s)
    Tf = apply_multiplier(G, f, G.T)
    assert l2_inner(G, Tf, f) >= l2_norm(G, f) ** 2 * (1 - 1e-12)


@settings(max_examples=20, deadline=None)
@given(seeds, st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_shift_group_property(s, a, b):
    # strictly band-limited input: shifting in two steps takes a real part
    # in between, which only commutes with the phase factor when the
    # Nyquist mode is empty
    f = Field(G, smooth_random(G, seed=s, decay=False))
    if abs(a) >= G.L / 2 or abs(b) >= G.L / 2 or abs(a + b) >= G.L / 2:
        return
    one = shift(f, a + b).values
    two = shift(shift(f, a), b).values
    assert np.allclose(one, two, atol=1e-10)


def test_shift_exact_on_background():
    f = Field(G, np.zeros(G.n), BACKGROUND_WALL)
    s = 1.25
    moved = shift(f, s)
    assert np.allclose(moved.reconstruct(), wall_background(G.x + s),
                       atol=1e-12)


def test_shift_rejects_large_offsets():
    f = Field(G, np.zeros(G.n))
    with pytest.raises(ValueError):
        shift(f, G.L / 2)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_single_mode():
    j = 5
    k = np.pi * j / G.L
    f = Field(G, np.cos(k * G.x))
    assert np.allclose(derivative(f, 1).values, -k * np.sin(k * G.x),
                       atol=1e-12)
    assert np.allclose(derivative(f, 2).values, -k**2 * np.cos(k * G.x),
                       atol=1e-11)


def test_second_derivative_composes_first():
    # one definition of the second derivative: D applied to the full first
    # derivative, over a wall background its analytic slope included
    for f in (Field(G, smooth_random(G, seed=11)),
              Field(G, 0.05 / np.cosh(G.x - 1.0), BACKGROUND_WALL)):
        twice = derivative(derivative(f, 1), 1).values
        assert derivative(f, 2).values.tobytes() == twice.tobytes()


def test_derivative_background_is_analytic():
    f = Field(G, np.zeros(G.n), BACKGROUND_WALL)
    assert np.allclose(derivative(f, 1).values, wall_background_d1(G.x),
                       atol=1e-12)


def test_derivative_rejects_higher_order():
    with pytest.raises(ValueError):
        derivative(Field(G, np.zeros(G.n)), 3)


# ---------------------------------------------------------------------------
# norms and inner products


def test_h1_norm_decomposition():
    f = smooth_random(G, seed=2)
    df = derivative(Field(G, f), 1).values
    assert h1_norm(G, f) ** 2 == pytest.approx(
        l2_norm(G, f) ** 2 + l2_norm(G, df) ** 2, rel=1e-12)


def test_state_norm_matches_components():
    u = smooth_random(G, seed=4)
    v = smooth_random(G, seed=5)
    assert state_norm(G, u, v) == pytest.approx(
        np.hypot(h1_norm(G, u), l2_norm(G, v)), rel=1e-12)


def test_one_h1_sum():
    # h1_norm and state_norm share one H1 sum: at v = 0 they agree to the
    # bit, for decaying random u
    rng = np.random.default_rng(31)
    window = np.exp(-((G.x / (G.L / 3.0)) ** 2))
    for _ in range(50):
        u = rng.standard_normal(G.n) * window
        assert state_norm(G, u, np.zeros(G.n)) == h1_norm(G, u)


# the only places in src that transform to a real multiplier product by
# hand, each with its reason
OWN_REAL_MULTIPLIERS = {
    ("grid.py", "apply_multiplier"),   # the definition itself
    ("profiles.py", "matvec"),         # two transforms in one batched call
}


def test_real_multipliers_go_through_apply_multiplier():
    found = set()
    for path in sorted(Path(grid_module.__file__).parent.glob("*.py")):
        source = path.read_text()
        functions = [node for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        for lineno, line in enumerate(source.splitlines(), start=1):
            if re.search(r"np\.real\(\s*np\.fft\.ifft\(", line):
                enclosing = [f for f in functions
                             if f.lineno <= lineno <= f.end_lineno]
                name = (min(enclosing, key=lambda f: f.end_lineno - f.lineno)
                        .name if enclosing else "<module>")
                found.add((path.name, name))
    assert found == OWN_REAL_MULTIPLIERS


# ---------------------------------------------------------------------------
# dense multiplier matrices


def test_multiplier_matrices_match_ffts():
    f = smooth_random(G, seed=15)
    assert np.allclose(multiplier_matrix(G, 1.0 + np.abs(G.k)) @ f,
                       apply_multiplier(G, f, G.T), atol=1e-11)
    assert np.allclose(multiplier_matrix(G, G.k_deriv) @ f,
                       derivative(Field(G, f), 1).values, atol=1e-11)
    assert np.allclose(multiplier_matrix(G, np.real(G.k_deriv**2)) @ f,
                       derivative(Field(G, f), 2).values, atol=1e-10)


def test_multiplier_matrix_symmetric_for_even_multiplier():
    M = multiplier_matrix(G, 1.0 + np.abs(G.k))
    assert np.allclose(M, M.T, atol=1e-12)


def test_multiplier_matrix_matches_identity_transform_oracle():
    # oracle: the multiplier applied to every identity column by FFT
    g = Grid(L=40.0, n=512)
    eye = np.eye(g.n)
    w = 1.0 + g.k**2
    ksq = -np.real(g.k_deriv**2)
    c, nu = 0.3, 1.0
    symbols = {
        "T": 1.0 + np.abs(g.k), "d": g.k_deriv, "d2": np.real(g.k_deriv**2),
        "W^1/2": np.sqrt(w), "W^-1/2": 1.0 / np.sqrt(w), "W": w,
        "Lc": (1.0 - c**2) * ksq - c * nu * g.k_deriv,
    }
    for name, mult in symbols.items():
        oracle = np.real(np.fft.ifft(mult[:, None] * np.fft.fft(eye, axis=0),
                                     axis=0))
        M = multiplier_matrix(g, mult)
        assert M.shape == (g.n, g.n) and M.dtype == np.float64, name
        assert np.max(np.abs(M - oracle)) <= 1e-12 * np.max(np.abs(oracle)), name
    # symbols that send real samples to complex ones are refused; the second
    # is Hermitian except at the Nyquist mode, which k_deriv zeroes
    for bad in (1j * np.abs(g.k), 1.0 + 1j * g.k):
        with pytest.raises(ValueError):
            multiplier_matrix(g, bad)


def test_l2_inner_real_for_real_input():
    f = smooth_random(G, seed=16)
    g = smooth_random(G, seed=17)
    assert isinstance(l2_inner(G, f, g), float)
