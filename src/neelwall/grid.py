"""Uniform periodic grid, Fourier multipliers, and the norms of the model.

Everything downstream (energy, profiles, operators, dynamics) is built on the
primitives here: the grid on [-L, L), the half-Laplacian multiplier |k|, the
nonlocal operator T = 1 + (-Delta)^{1/2}, the H1 weight 1 + k^2, spectral
derivatives, and the inner products (L2, H1, homogeneous H^{1/2}) and the
H1 x L2 state norm.  apply_multiplier is the one real Fourier multiplier;
the profile-dependent a-form is <L u, u> through profiles.Linearization.

Phases that connect -pi/2 to +pi/2 are not periodic, so a Field may carry a
fixed wall background phi_bg(x) = arcsin(tanh x) and store only the decaying
remainder w = theta - phi_bg.  The background and its derivatives are handled
analytically; Fourier transforms only ever touch decaying quantities.

Inner products conjugate the *second* argument throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

BACKGROUND_NONE = "none"
BACKGROUND_WALL = "wall"


def wall_background(x):
    """Reference wall phase phi_bg(x) = arcsin(tanh x)."""
    return np.arcsin(np.tanh(x))


def wall_background_d1(x):
    """phi_bg'(x) = sech x."""
    return 1.0 / np.cosh(x)


def wall_background_d2(x):
    """phi_bg''(x) = -sech x tanh x."""
    return -np.tanh(x) / np.cosh(x)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with n points (n a power of two)."""

    L: float
    n: int

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValueError(f"L must be finite and positive, got {self.L}")
        if (not isinstance(self.n, (int, np.integer)) or self.n < 16
                or self.n & (self.n - 1)):
            raise ValueError(
                f"grid size must be an integer power of two >= 16, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.L + self.dx * np.arange(self.n)
        x.setflags(write=False)
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers k_j = pi j / L in FFT ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k.setflags(write=False)
        return k

    @cached_property
    def k_deriv(self) -> np.ndarray:
        """ik with the Nyquist mode zeroed (odd-derivative convention)."""
        kd = 1j * self.k.copy()
        kd[self.n // 2] = 0.0
        kd.setflags(write=False)
        return kd

    @cached_property
    def k2(self) -> np.ndarray:
        """k^2 as -(ik)^2 with the k_deriv convention, so the Nyquist mode
        is zeroed and the second derivative -k2 is d o d exactly."""
        k2 = -np.real(self.k_deriv**2)
        k2.setflags(write=False)
        return k2

    @cached_property
    def T(self) -> np.ndarray:
        """The stray-field multiplier 1 + |k| of T = 1 + (-Delta)^{1/2}."""
        T = 1.0 + np.abs(self.k)
        T.setflags(write=False)
        return T

    @cached_property
    def h1_weight(self) -> np.ndarray:
        """The H1 Fourier weight 1 + k^2."""
        w = 1.0 + self.k**2
        w.setflags(write=False)
        return w

    @cached_property
    def background(self) -> np.ndarray:
        """The wall background arcsin(tanh x) sampled on x."""
        bg = wall_background(self.x)
        bg.setflags(write=False)
        return bg


@dataclass(frozen=True)
class Field:
    """Real function on a Grid, optionally split over the wall background.

    With ``background == "wall"`` the stored values are the remainder
    w(x) = theta(x) - arcsin(tanh x); reconstruct() returns theta itself.
    """

    grid: Grid
    values: np.ndarray
    background: str = BACKGROUND_NONE

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field samples must be finite")
        if self.background not in (BACKGROUND_NONE, BACKGROUND_WALL):
            raise ValueError(f"unknown background {self.background!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.background == BACKGROUND_WALL:
            theta = self.reconstruct()
            edge = max(abs(abs(theta[0]) - np.pi / 2), abs(abs(theta[-1]) - np.pi / 2))
            if edge > 0.1:
                raise ValueError(
                    f"wall-background field does not saturate at the ends "
                    f"(edge deviation {edge:.3g} > 0.1); domain too short?"
                )

    def reconstruct(self) -> np.ndarray:
        """Full samples: remainder plus background (if any)."""
        if self.background == BACKGROUND_WALL:
            return self.values + self.grid.background
        return self.values

    def with_values(self, values, background=None) -> "Field":
        return Field(self.grid, values, self.background if background is None else background)


def _require_decaying(f: Field, opname: str):
    if f.background != BACKGROUND_NONE:
        raise ValueError(
            f"{opname} acts on decaying fields only; operate on the remainder "
            "or on decaying quantities like cos(theta)"
        )


def apply_multiplier(grid: Grid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier to real samples; returns real samples."""
    return np.real(np.fft.ifft(mult * np.fft.fft(values)))


def half_laplacian(f: Field) -> Field:
    """(-Delta)^{1/2} f via the multiplier |k|; the mean mode maps to 0."""
    _require_decaying(f, "half_laplacian")
    out = apply_multiplier(f.grid, f.values, np.abs(f.grid.k))
    return Field(f.grid, out)


def apply_T(f: Field) -> Field:
    """T f = f + (-Delta)^{1/2} f  (multiplier 1 + |k|)."""
    _require_decaying(f, "apply_T")
    return Field(f.grid, apply_multiplier(f.grid, f.values, f.grid.T))


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative; wall-background derivatives enter analytically."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    g = f.grid
    out = apply_multiplier(g, f.values, g.k_deriv if order == 1 else -g.k2)
    if f.background == BACKGROUND_WALL:
        out = out + (wall_background_d1(g.x) if order == 1 else wall_background_d2(g.x))
    return Field(g, out)


def shift(f: Field, s: float) -> Field:
    """Translate f(.) -> f(. + s): phase shift on the remainder, exact on the
    background."""
    if abs(s) >= f.grid.L / 2:
        raise ValueError(f"|shift| must be < L/2 = {f.grid.L / 2}, got {s}")
    g = f.grid
    shifted = apply_multiplier(g, f.values, np.exp(1j * g.k * s))
    if f.background == BACKGROUND_WALL:
        shifted = shifted + wall_background(g.x + s) - g.background
    return Field(g, shifted, f.background)


# ---------------------------------------------------------------------------
# inner products / norms (second argument conjugated)


def l2_inner(grid: Grid, f, g) -> complex:
    val = grid.dx * np.sum(np.asarray(f) * np.conj(np.asarray(g)))
    return val if np.iscomplexobj(f) or np.iscomplexobj(g) else float(np.real(val))


def l2_norm(grid: Grid, f) -> float:
    return float(np.sqrt(grid.dx) * np.linalg.norm(np.asarray(f)))


def hhalf_seminorm_sq(grid: Grid, f) -> float:
    """Homogeneous H^{1/2} seminorm squared: sum |k| |fhat|^2 (Parseval
    normalized so it matches the grid quadrature)."""
    fhat = np.fft.fft(np.asarray(f))
    return float(grid.dx / grid.n * np.sum(np.abs(grid.k) * np.abs(fhat) ** 2))


def h1_inner(grid: Grid, f, g) -> complex:
    """H1 product <f,g> + <f',g'> evaluated Fourier-side with weight 1+k^2."""
    fhat = np.fft.fft(np.asarray(f))
    ghat = np.fft.fft(np.asarray(g))
    val = grid.dx / grid.n * np.sum(grid.h1_weight * fhat * np.conj(ghat))
    return val if np.iscomplexobj(f) or np.iscomplexobj(g) else float(np.real(val))


def h1_norm(grid: Grid, f) -> float:
    return float(np.sqrt(np.real(h1_inner(grid, f, f))))


def state_norm(grid: Grid, u, v) -> float:
    """H1 x L2 norm of the pair (u, v)."""
    h1_sq = grid.dx / grid.n * np.sum(grid.h1_weight * np.abs(np.fft.fft(u)) ** 2)
    return float(np.sqrt(h1_sq + grid.dx * np.sum(np.abs(v) ** 2)))


# ---------------------------------------------------------------------------
# dense multiplier matrices (shared by operator assembly and solvers)


def multiplier_matrix(grid: Grid, mult: np.ndarray) -> np.ndarray:
    """Dense real matrix of a Fourier multiplier: the circulant with first
    column ifft(mult).  The symbol must map real samples to real samples,
    mult(-k) = conj(mult(k)); otherwise this raises ValueError."""
    col = np.fft.ifft(np.broadcast_to(mult, (grid.n,)))
    imag = np.max(np.abs(col.imag))
    if imag > 1e-12 * np.max(np.abs(col)):
        raise ValueError(f"symbol maps real samples to complex ones (max |Im| {imag:.2e})")
    return sla.circulant(col.real)
