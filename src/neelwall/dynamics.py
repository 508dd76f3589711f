"""Damped nonlocal wave dynamics, modulation tracking, decay fitting, and
the orbital-stability experiment.

The evolution (comoving frame moving at speed c; lab frame is c = 0)

    theta_t = phi
    phi_t   = (1-c^2) theta_zz + c nu theta_z + 2c phi_z - nu phi
              + sin(theta) T(cos theta) - H cos(theta)

(phi_t = -R(theta) + 2c phi_z - nu phi with R = profiles.traveling_residual)
is integrated by an exponential two-stage rule: the Fourier-diagonal linear
part (per mode the 2x2 companion block [[0,1],[-(1-c^2)k^2 + i c nu k,
-nu + 2ick]]) is propagated by its exact matrix exponential, and the bounded
remainder (background terms, the nonlocal nonlinearity, the applied field) by
the phi1/phi2 exponential integrator weights.  The scheme is second order in
dt, unconditionally stable on the linear part, and exact when the remainder
vanishes.  It is the only stepper; the tests check it against classical RK4
in physical space.

The step carries the state (w, phi) between steps as rfft half spectra of
length n/2 + 1 and takes eight real transforms per step; phi never returns
to physical space, and ||phi||^2 comes from Parseval.  A recorded
frame fits the modulation shift on half spectra, from one spectrum of the
reference per run and one rfft per Newton step (none for the first step of a
comoving frame, which starts at the previous frame's translate); its residual
and exchange energy are Parseval sums over spectra it already holds, and its
stray energy shares rfft(cos theta) with the next step.  A warm-started frame
therefore costs one or two transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from .grid import (
    BACKGROUND_WALL,
    Field,
    Grid,
    apply_multiplier,
    derivative,
    h1_norm,
    l2_inner,
    l2_norm,
    shift,
    state_norm,
    wall_background,
    wall_background_d1,
)
from .profiles import Linearization, Profile, traveling_residual

FRAMES = ("lab", "comoving")
PERTURBATION_SHAPES = ("sech", "odd_sech", "noise")
_ORBITAL_H_MAX = 5e-3      # orbital_experiment's field limit, checked first


class BlowUpError(RuntimeError):
    """Raised when a norm exceeds the blow-up threshold or a frame's wall
    is no longer finite and saturated; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ModulationError(ValueError):
    """Raised when the wall position or the modulation shift of a frame
    cannot be fitted (no zero crossing, no bracket, Newton diverged)."""


@dataclass(frozen=True)
class Perturbation:
    shape: str = "sech"
    amplitude: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.shape not in PERTURBATION_SHAPES:
            raise ValueError(f"shape must be one of {PERTURBATION_SHAPES}")
        if not 0 <= self.amplitude <= 0.5:
            raise ValueError("perturbation amplitude must be in [0, 0.5]")


def build_perturbation(grid: Grid, pert: Perturbation) -> np.ndarray:
    """Sample the perturbation shape; noise is band-limited and seeded."""
    if pert.shape == "sech":
        p = 1.0 / np.cosh(grid.x)
    elif pert.shape == "odd_sech":
        p = grid.x / np.cosh(grid.x)
    else:
        rng = np.random.default_rng(pert.seed)
        raw = rng.standard_normal(grid.n)
        keep = np.abs(grid.k) <= 0.25 * np.max(np.abs(grid.k))
        p = apply_multiplier(grid, raw, keep)
        p *= np.exp(-((grid.x / (grid.L / 3)) ** 2))  # keep it decaying
        p /= h1_norm(grid, p)
    return pert.amplitude * p


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    nu: float
    H: float = 0.0
    frame: str = "lab"
    perturbation: Perturbation = Perturbation()
    max_frames: int = 4096

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and positive")
        if not 0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if not 10.0 / self.nu <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and at least 10/nu to "
                             "fit a decay")
        if not math.isfinite(self.H):
            raise ValueError("H must be finite")
        if self.frame not in FRAMES:
            raise ValueError(f"frame must be one of {FRAMES}")
        if (not isinstance(self.max_frames, (int, np.integer))
                or self.max_frames < 1):
            raise ValueError("max_frames must be a positive integer")


@dataclass
class SimTrace:
    times: np.ndarray
    residual_H1: np.ndarray
    wall_position: np.ndarray
    s: np.ndarray
    energy: np.ndarray
    v_norm: np.ndarray
    defect: np.ndarray
    meta: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# exponential step weights


def _phi(z, k: int):
    """phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k, the exponential
    integrator weight (phi_1 and phi_2 here).  Below |z| = 0.1 the closed
    form loses about eps/|z|^k, so there its Taylor series
    sum_j z^j/(j+k)! is summed to 12 terms (truncation below 1e-21)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.1
    zs, zb = z[small], z[~small]
    out[small] = sum(zs**j / math.factorial(j + k) for j in range(12))
    tail = np.exp(zb)
    for j in range(k):
        tail = tail - zb**j / math.factorial(j)
    out[~small] = tail / zb**k
    return out


def _companion_function(lp, lm, q, f):
    """Entries of f(M) for the companion block M = [[0,1],[-q, lp+lm]] with
    eigenvalues lp, lm (divided-difference form)."""
    dd = (f(lp) - f(lm)) / (lp - lm)
    s = (lp * f(lm) - lm * f(lp)) / (lp - lm)
    return s, dd, -q * dd, f(lp) + f(lm) - s


@dataclass
class StepWeights:
    """Per-Fourier-mode 2x2 propagator and phi1/phi2 second columns."""

    E11: np.ndarray
    E12: np.ndarray
    E21: np.ndarray
    E22: np.ndarray
    P1_12: np.ndarray
    P1_22: np.ndarray
    P2_12: np.ndarray
    P2_22: np.ndarray


def step_weights(grid: Grid, nu: float, c: float, dt: float) -> StepWeights:
    """Exact exponential weights of the Fourier-diagonal linear part.

    Mode eigenvalues are ick + (-nu +- sqrt(nu^2 - 4k^2))/2 (the sqrt is
    c-independent); near-degenerate pairs are split by a 1e-8 jitter so the
    divided differences stay well conditioned.
    """
    # derivative terms use ik with the Nyquist mode zeroed, exactly like the
    # discrete gradient (d^2 = D o D); otherwise the energy balance picks up
    # a dt-independent defect from the Nyquist mode
    k, k2 = np.imag(grid.k_deriv), grid.k2
    disc = np.sqrt(np.asarray(nu**2 - 4.0 * k2, dtype=complex))
    disc = np.where(np.abs(disc) < 1e-8, disc + 1e-8, disc)
    lp = 1j * c * k + (-nu + disc) / 2.0
    lm = 1j * c * k + (-nu - disc) / 2.0
    q = (1.0 - c**2) * k2 - 1j * c * nu * k
    E11, E12, E21, E22 = _companion_function(lp, lm, q, lambda z: np.exp(z * dt))
    _, P1_12, _, P1_22 = _companion_function(lp, lm, q, lambda z: dt * _phi(z * dt, 1))
    _, P2_12, _, P2_22 = _companion_function(lp, lm, q, lambda z: dt * _phi(z * dt, 2))
    return StepWeights(E11, E12, E21, E22, P1_12, P1_22, P2_12, P2_22)


# ---------------------------------------------------------------------------
# right-hand-side pieces


@dataclass(frozen=True)
class _HalfGrid:
    """Per-grid constants of the real-FFT path.

    All arrays but ``d1`` and ``d2`` act on rfft half spectra (length
    n/2 + 1, the Nyquist mode included once); ``l2`` holds the Parseval
    weights (1, 2, ..., 2, 1) dx/n, so ||f||^2 = sum(l2 |rfft(f)|^2).
    ``d1`` is the analytic background slope sech x and ``d2`` its spectral
    derivative D(sech x), the background's share of derivative(theta, 2);
    ``d1_hat`` and ``d2_hat`` are their rffts.
    """

    k: np.ndarray
    kd: np.ndarray
    kd2: np.ndarray
    T: np.ndarray
    l2: np.ndarray
    h1: np.ndarray
    hhalf: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d1_hat: np.ndarray
    d2_hat: np.ndarray


@lru_cache(maxsize=8)
def _half_grid(grid: Grid) -> _HalfGrid:
    h = grid.n // 2 + 1
    k = grid.k[:h]
    kd = grid.k_deriv[:h]
    l2 = np.full(h, 2.0 * grid.dx / grid.n)
    l2[0] = l2[-1] = grid.dx / grid.n
    d1 = wall_background_d1(grid.x)
    d2 = apply_multiplier(grid, d1, grid.k_deriv)
    arrays = (k, kd, -grid.k2[:h], grid.T[:h], l2,
              l2 * grid.h1_weight[:h], l2 * np.abs(k), d1, d2,
              np.fft.rfft(d1), np.fft.rfft(d2))
    for a in arrays:
        a.setflags(write=False)
    return _HalfGrid(*arrays)


def _sq_norm(weights: np.ndarray, fh: np.ndarray) -> float:
    """sum(weights |fh|^2) for a half spectrum fh."""
    return float(weights @ (fh.real**2 + fh.imag**2))


def _inner(weights: np.ndarray, fh: np.ndarray, gh: np.ndarray) -> float:
    """sum(weights Re(fh conj(gh))) for half spectra fh, gh."""
    return float(weights @ (fh.real * gh.real + fh.imag * gh.imag))


def _background_forcing(grid: Grid, nu: float, c: float) -> np.ndarray:
    """Constant part of phi_t from the wall background:
    (1-c^2) phi_bg'' + c nu phi_bg', with phi_bg'' = D(sech x) as in
    derivative(theta, 2), so (psi, 0) is a discrete equilibrium."""
    half = _half_grid(grid)
    return (1.0 - c**2) * half.d2 + c * nu * half.d1


def _cos_parts(grid: Grid, w: np.ndarray):
    """(theta, cos theta, rfft(cos theta)) of the remainder w: what both the
    remainder term and a frame's stray energy take from w."""
    theta = w + grid.background
    cos_t = np.cos(theta)
    return theta, cos_t, np.fft.rfft(cos_t)


def _remainder_term(grid: Grid, parts, H: float,
                    forcing: np.ndarray) -> np.ndarray:
    """Bounded part of phi_t not covered by the Fourier-diagonal block: the
    nonlocal nonlinearity, the field term and the background forcing, at
    the state whose _cos_parts are ``parts``."""
    theta, cos_t, cos_h = parts
    Tc = np.fft.irfft(_half_grid(grid).T * cos_h, grid.n)
    return np.sin(theta) * Tc - H * cos_t + forcing


def wall_position_of(grid: Grid, theta_full: np.ndarray,
                     previous: float = 0.0) -> float:
    """Zero crossing of the phase by linear interpolation, tie-broken to the
    crossing nearest the previous frame's position."""
    sgn = np.signbit(theta_full)
    idx = np.nonzero(sgn[:-1] != sgn[1:])[0]
    if len(idx) == 0:
        raise ModulationError("phase has no zero crossing")
    xs = grid.x[idx] - theta_full[idx] * grid.dx / (theta_full[idx + 1] - theta_full[idx])
    return float(xs[np.argmin(np.abs(xs - previous))])


class _Translates:
    """Half spectra of the translates psi(. - sigma) of the reference, all
    from one rfft of its stored samples: spectrum(sigma) equals
    rfft(shift(reference.theta, -sigma).values)."""

    def __init__(self, reference: Profile):
        self.grid = reference.grid
        self.wall = reference.theta.background == BACKGROUND_WALL
        self.reference_hat = np.fft.rfft(reference.theta.values)
        half = _half_grid(self.grid)
        # the background slopes enter psi_s' and psi_s'' only over a wall
        self.d1_hat = half.d1_hat if self.wall else 0.0
        self.d2_hat = half.d2_hat if self.wall else 0.0
        # the last translate: a warm-started comoving frame starts where
        # the previous frame's fit ended
        self._last = (None, None)

    def spectrum(self, sigma: float) -> np.ndarray:
        g = self.grid
        if abs(sigma) >= g.L / 2:
            raise ModulationError(
                f"translate psi(. - {sigma:.6g}) leaves the window "
                f"|shift| < L/2 = {g.L / 2:g}: the wall drifted too far "
                "to modulate")
        if sigma == self._last[0]:
            return self._last[1]
        sh = np.exp(-1j * sigma * _half_grid(g).k) * self.reference_hat
        sh[-1] = sh[-1].real        # as rfft(irfft(.)) leaves it
        if self.wall:
            # shifted in physical space: a spectral shift of the background
            # aliases at ~exp(-pi k_max / 2)
            sh += np.fft.rfft(wall_background(g.x - sigma) - g.background)
        sh.setflags(write=False)
        self._last = (sigma, sh)
        return sh

    def orthogonality(self, bh: np.ndarray, sigma: float):
        """(s_hat, g, g') at the translate by sigma, for the spectrum bh of
        theta minus its background: s_hat = spectrum(sigma), the condition
        g = <theta - psi_s, psi_s'> and its slope g' = dg/ds =
        ||psi_s'||^2 - <theta - psi_s, psi_s''>, as Parseval sums."""
        half = _half_grid(self.grid)
        sh = self.spectrum(sigma)
        rh = bh - sh
        d1h = half.kd * sh + self.d1_hat
        gval = _inner(half.l2, rh, d1h)
        gprime = _sq_norm(half.l2, d1h) - _inner(half.l2, rh,
                                                 half.kd2 * sh + self.d2_hat)
        return sh, gval, gprime


def _fit_shift(translates: _Translates, bh: np.ndarray, drift: float,
               s0: float | None):
    """(s, s_hat): the shift s minimizing ||theta - psi(. - drift - s)||_L2
    for the spectrum bh of theta minus its background, with the spectrum
    s_hat of the fitted translate's stored samples.  See modulate."""
    def newton(s):
        for _ in range(50):
            sh, gval, gprime = translates.orthogonality(bh, drift + s)
            if abs(gval) <= 1e-10:
                return float(s), sh
            if gprime <= 0:
                return None
            step = gval / gprime
            if abs(step) > 1.0:
                return None
            s -= step
        return None

    if s0 is not None:
        fit = newton(float(s0))
        if fit is not None:
            return fit

    smax = translates.grid.L / 4.0
    coarse = np.linspace(-smax, smax, 65)
    l2 = _half_grid(translates.grid).l2
    i = int(np.argmin([_sq_norm(l2, bh - translates.spectrum(drift + s))
                       for s in coarse]))
    if i == 0 or i == len(coarse) - 1:
        raise ModulationError("no modulation bracket within |s| <= L/4; "
                              "perturbation too large to modulate")
    fit = newton(coarse[i])
    if fit is None:
        raise ModulationError("modulation Newton failed to converge")
    return fit


def modulate(theta: Field, reference: Profile, t: float = 0.0,
             frame: str = "lab", s0: float | None = None) -> float:
    """Fit the modulation shift s: argmin_s ||theta - psi(. - ct - s)||_L2.

    Newton on the orthogonality condition <theta - psi_s, psi_s'> = 0 to
    1e-10, started from the least misfit of a 65-point scan over
    |s| <= L/4 (ModulationError if it lies on the scan's edge or Newton
    fails from it).  A warm start s0 (e.g. the previous frame's shift)
    skips the scan and falls back to it if Newton wanders.  Both work on
    rfft half spectra: the reference and theta minus its background are
    transformed once per call, and a misfit or a Newton step takes one
    rfft, of the shifted wall background; the inner products are Parseval
    sums.
    """
    translates = _Translates(reference)
    th = theta.reconstruct()
    if translates.wall:
        th = th - theta.grid.background
    drift = reference.c * t if frame == "lab" else 0.0
    return _fit_shift(translates, np.fft.rfft(th), drift, s0)[0]


def integrate(grid: Grid, config: SimConfig, reference: Profile,
              initial: tuple | None = None) -> SimTrace:
    """Run the damped wave evolution and record the modulated trace.

    initial: (theta0: Field with wall background, v0: array); defaults to the
    reference profile plus the configured perturbation, at rest.

    The state between steps is w, the rfft half spectra (w_hat, phi_hat)
    of length n/2 + 1 and _cos_parts(w).  The exponential step works on
    these half spectra: each of its two remainder evaluations takes
    three real transforms (the first one's rfft(cos theta) comes with the
    state), and the intermediate stage and the new w one irfft each, eight
    per step; phi never returns to physical space.  The background forcing
    and the reference spectrum are formed once per call, and ||phi||^2 comes
    from Parseval on phi_hat.  A frame fits the modulation from w_hat with
    one rfft per Newton step at a new translate, and takes its H1 residual
    and exchange energy from Parseval sums over spectra it holds; its stray
    energy uses the state's rfft(cos theta).
    """
    c = reference.c if config.frame == "comoving" else 0.0
    nu, H, dt = config.nu, config.H, config.dt
    if initial is None:
        p = build_perturbation(grid, config.perturbation)
        theta0 = reference.theta.with_values(reference.theta.values + p)
        v0 = np.zeros(grid.n)
    else:
        theta0, v0 = initial

    n = grid.n
    n_steps = int(round(config.t_end / dt))
    stride = max(1, int(np.ceil((n_steps + 1) / config.max_frames)))
    half = _half_grid(grid)
    forcing = _background_forcing(grid, nu, c)

    weights = step_weights(grid, nu, c, dt)
    E11, E12, E21, E22, P1_12, P1_22, P2_12, P2_22 = (
        getattr(weights, f)[: n // 2 + 1]
        for f in ("E11", "E12", "E21", "E22",
                  "P1_12", "P1_22", "P2_12", "P2_22"))

    def advance(w, wh, ph, parts):
        Gh = np.fft.rfft(_remainder_term(grid, parts, H, forcing))
        ah = E11 * wh + E12 * ph + P1_12 * Gh
        bh = E21 * wh + E22 * ph + P1_22 * Gh
        wa = np.fft.irfft(ah, n)
        dGh = np.fft.rfft(_remainder_term(grid, _cos_parts(grid, wa), H,
                                          forcing)) - Gh
        wh = ah + P2_12 * dGh
        w = np.fft.irfft(wh, n)
        return w, wh, bh + P2_22 * dGh, _cos_parts(grid, w)

    w = theta0.values.copy()
    wh = np.fft.rfft(w)
    ph = np.fft.rfft(np.asarray(v0, dtype=float))
    parts = _cos_parts(grid, w)
    translates = _Translates(reference)
    frames = []     # (t, residual, position, s, energy, |v|, defect)
    e0 = None
    diss = 0.0          # nu * integral of ||v||^2 (trapezoid)
    v_sq_prev = _sq_norm(half.l2, ph)
    pos_prev = 0.0

    s_prev = None

    def record(step_index):
        nonlocal e0, pos_prev, s_prev
        t = step_index * dt
        try:                                # rejects non-finite or unsaturated w
            Field(grid, w, BACKGROUND_WALL)
        except ValueError as exc:
            raise BlowUpError(f"wall lost at t = {t:.3f}: {exc}",
                              _as_trace(frames, config)) from exc
        theta, cos_t, cos_h = parts
        # theta minus its background is w: the fit starts from w_hat, with
        # the Nyquist bin real as rfft(w) has it
        bh = wh.copy()
        bh[-1] = bh[-1].real
        drift = reference.c * t if config.frame == "lab" else 0.0
        s, sh = _fit_shift(translates, bh, drift, s_prev)
        s_prev = s
        r = np.sqrt(_sq_norm(half.h1, bh - sh))
        pos_prev = wall_position_of(grid, theta, pos_prev)
        # energy(Field(grid, w, "wall")).total, from the state's spectra
        e = 0.5 * (_sq_norm(half.l2, half.kd * wh + half.d1_hat)
                   + _sq_norm(half.hhalf, cos_h)
                   + grid.dx * float(cos_t @ cos_t))
        vn = np.sqrt(v_sq_prev)         # ||phi||^2 of this state, from the loop
        etot = 0.5 * vn**2 + e
        if e0 is None:
            e0 = etot
        frames.append((t, r, pos_prev, s, e, vn, etot - e0 + diss))

    record(0)
    for step in range(1, n_steps + 1):
        w, wh, ph, parts = advance(w, wh, ph, parts)
        v_sq = _sq_norm(half.l2, ph)
        diss += nu * dt * 0.5 * (v_sq + v_sq_prev)
        v_sq_prev = v_sq
        if not np.isfinite(v_sq) or v_sq > 1e6 or np.max(np.abs(w)) > 1e3:
            raise BlowUpError(f"blow-up detected at t = {step * dt:.3f}",
                              _as_trace(frames, config))
        if step % stride == 0 or step == n_steps:
            record(step)
    return _as_trace(frames, config)


def _as_trace(frames, config) -> SimTrace:
    """SimTrace of the recorded frames, one column per field."""
    columns = np.array(frames, dtype=float).reshape(-1, 7).T.copy()
    return SimTrace(*columns,
                    meta={"dt": config.dt, "t_end": config.t_end,
                          "nu": config.nu, "H": config.H,
                          "frame": config.frame})


@dataclass(frozen=True)
class DecayFit:
    omega: float
    C: float
    r2: float
    n_points: int
    r_inf: float = 0.0


def decay_fit(trace: SimTrace) -> DecayFit:
    """Least-squares fit of the modulated residual to C e^{-omega t} + r_inf.

    The residual relaxes to a nonzero offset r_inf rather than to zero: the
    modulation family translates the whole periodized profile, including the
    seam layer at x = +-L, while the dynamics keeps that layer pinned, so a
    shifted wall never matches a shifted reference exactly.  r_inf is
    estimated from the late-time tail and subtracted before the log-linear
    fit.  Drops the initial transient t < 2/nu and samples inside the tail
    scatter of the offset (or below 1e-12).
    """
    mask = trace.times >= 2.0 / trace.meta.get("nu", 1.0)
    r = trace.residual_H1[mask]
    t = trace.times[mask]
    if len(t) < 8:
        raise ValueError("not enough samples after the transient to fit a decay")
    n_tail = max(5, len(t) // 10)
    tail = r[-n_tail:]
    r_inf = float(np.median(tail))
    scatter = float(np.std(tail))
    y_lin = r - r_inf
    keep = y_lin > max(3.0 * scatter, 3.0 * r_inf, 1e-12)
    t, y_lin = t[keep], y_lin[keep]
    if len(t) < 3:
        raise ValueError("not enough samples above the floor to fit a decay")
    y = np.log(y_lin)
    A = np.column_stack([np.ones_like(t), -t])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(coef[1]), float(np.exp(coef[0])), r2, len(t), r_inf)


# ---------------------------------------------------------------------------
# orbital-stability experiment


def taylor_translation_check(reference: Profile):
    """Taylor remainder of the translated-wave family:
    max over s in {0.01, 0.02, 0.04} of ||phi(s) - phi(0) - phi'(0) s|| / s^2,
    against the curvature bound ||d2_z psi||_{H1} / sqrt(3)."""
    g = reference.grid
    c = reference.c
    psi0 = reference.reconstruct()
    dpsi = derivative(reference.theta, 1).values
    d2psi = derivative(reference.theta, 2).values
    v0 = -c * dpsi
    ratios = []
    for s in (0.01, 0.02, 0.04):
        shifted = shift(reference.theta, -s)
        u_rem = shifted.reconstruct() - psi0 + s * dpsi
        v_rem = -c * derivative(shifted, 1).values - v0 - s * c * d2psi
        ratios.append(state_norm(g, u_rem, v_rem) / s**2)
    bound = h1_norm(g, d2psi) / np.sqrt(3.0)
    return max(ratios), bound


def quadratic_remainder_check(reference: Profile, nu: float):
    """Size of F(psi + W) - F(psi) - DF(psi) W against ||W||^2, for one
    band-limited random direction W = (w_u, w_v) (seed 0) at amplitudes
    1e-2, 5e-3 and 2.5e-3, for the comoving system
    F(w, phi) = (phi, -R(theta) + 2c phi' - nu phi) with R the traveling
    residual (profiles.traveling_residual) and DR = L_c
    (Linearization.matvec).  F is affine in phi, so the remainder is
    (0, -(R(psi + w_u) - R(psi) - L_c w_u)); R's background parts cancel.

    Returns (constants, exponent): per-amplitude remainder/||W||^2 and the
    log-log slope of remainder vs ||W|| (2 for a quadratic nonlinearity).
    """
    g = reference.grid
    c, H = reference.c, reference.H
    rng = np.random.default_rng(0)
    keep = np.abs(g.k) <= 0.25 * np.max(np.abs(g.k))
    shape_u, shape_v = apply_multiplier(g, rng.standard_normal((2, g.n)), keep)
    shape_u /= h1_norm(g, shape_u)
    shape_v /= l2_norm(g, shape_v)

    theta = reference.theta
    R0 = traveling_residual(g, theta, c, nu, H)
    Lc = Linearization(g, reference.reconstruct(), c, nu, H)
    sizes, rems = [], []
    for amp in (1e-2, 5e-3, 2.5e-3):
        wu, wv = amp * shape_u, amp * shape_v
        R = traveling_residual(g, theta.with_values(theta.values + wu),
                               c, nu, H)
        rems.append(l2_norm(g, R - R0 - Lc.matvec(wu)))
        sizes.append(state_norm(g, wu, wv))
    sizes, rems = np.array(sizes), np.array(rems)
    constants = rems / sizes**2
    exponent = float(np.polyfit(np.log(sizes), np.log(rems), 1)[0])
    return constants, exponent


@dataclass
class OrbitalVerdict:
    stable: bool
    fit: DecayFit | None
    wall_speed: float
    c_reference: float
    a2_ratio: float
    a2_bound: float
    a3_constants: np.ndarray
    a3_exponent: float
    trace: SimTrace | None
    meta: dict = dc_field(default_factory=dict)


def orbital_experiment(grid: Grid, H: float, perturbation: Perturbation,
                       nu: float, reference: Profile, dt: float,
                       t_end: float) -> OrbitalVerdict:
    """Perturb the wave, integrate, modulate, fit the decay, and measure the
    translation-family and quadratic-remainder constants.

    The translation component of the perturbation is projected out
    (otherwise the wall simply ends up at a shifted position, which is the
    same orbit; projecting makes the decay-rate fit clean).  dt, t_end and
    nu are checked by SimConfig, before any step.
    """
    if not abs(H) <= _ORBITAL_H_MAX:
        raise ValueError(f"orbital experiment needs |H| <= {_ORBITAL_H_MAX}")
    # Decay is measured in the comoving frame, where the traveling profile is
    # an exact discrete equilibrium ((psi, 0) at rest: at L = 40, n = 256
    # the right-hand side there is -R(psi) to 3e-15 in L2, since it takes
    # psi'' from derivative(psi, 2) as R does); in the lab frame the
    # modulated residual has a floor that changes with the accumulated drift,
    # because the spectrally shifted reference moves the seam layer at
    # x = +-L while the dynamics keeps it pinned.
    config = SimConfig(dt=dt, t_end=t_end, nu=nu, H=H, frame="comoving",
                       perturbation=perturbation)
    p = build_perturbation(grid, perturbation)
    dpsi = derivative(reference.theta, 1).values
    p = p - float(np.real(l2_inner(grid, p, dpsi))
                  / np.real(l2_inner(grid, dpsi, dpsi))) * dpsi
    theta0 = reference.theta.with_values(reference.theta.values + p)
    try:
        trace = integrate(grid, config, reference, initial=(theta0, np.zeros(grid.n)))
    except (BlowUpError, ModulationError) as exc:
        trace = getattr(exc, "trace", None)
        return OrbitalVerdict(False, None, np.nan, reference.c, np.nan, np.nan,
                              np.array([]), np.nan, trace,
                              meta={"failure": str(exc)})
    fit = decay_fit(trace)
    if reference.c != 0.0:
        # wall speed from an independent lab-frame run, where the drift is
        # measured directly on the zero crossing
        v0_lab = -reference.c * derivative(theta0, 1).values
        trace_lab = integrate(grid, replace(config, frame="lab"), reference,
                              initial=(theta0, v0_lab))
    else:
        trace_lab = trace
    half = trace_lab.times >= trace_lab.times[-1] / 2
    speed = float(np.polyfit(trace_lab.times[half],
                             trace_lab.wall_position[half], 1)[0])
    a2_ratio, a2_bound = taylor_translation_check(reference)
    a3_constants, a3_exponent = quadratic_remainder_check(reference, nu)
    stable = fit.omega > 0 and fit.r2 >= 0.98
    return OrbitalVerdict(stable, fit, speed, reference.c, a2_ratio, a2_bound,
                          a3_constants, a3_exponent, trace,
                          meta={"perturbation": perturbation.shape,
                                "amplitude": perturbation.amplitude,
                                "H": H, "nu": nu})
