"""Closed-form functions and admissible regions used by the spectral-gap
estimates, with seeded sampling checks of the supporting inequalities.

Symbols: nu is the damping, delta the contour half-side, Lambda0 the scalar
spectral bound, beta a fixed constant in (0,1) with 2 delta < beta nu.

Memory: the samplers filter whole batches with one elementwise mask. The
envelope check, the largest (10x samples), keeps only its three float64
draws (24 bytes per sample) and evaluates and reduces M in fixed chunks of
_CHUNK points, with results bit-identical to a full-array evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectra import in_region_G

_CHUNK = 1 << 16


@dataclass(frozen=True)
class RegionParams:
    nu: float
    delta: float
    Lambda0: float
    beta: float

    def __post_init__(self):
        if not 0 < self.nu < np.inf:
            raise ValueError("nu must be positive and finite")
        if not 0 < self.delta < self.nu / 2:
            raise ValueError("delta must lie in (0, nu/2)")
        if not 0 < self.Lambda0 < np.inf:
            raise ValueError("Lambda0 must be positive and finite")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 2 * self.delta < self.beta * self.nu:
            raise ValueError("2 delta < beta nu is required")


def S_func(phi, lam, nu):
    """S(phi, lam) = |conj(lam) cos^2(phi) + (lam + nu) sin^2(phi)|."""
    c2 = np.cos(phi) ** 2
    s2 = np.sin(phi) ** 2
    return np.abs(np.conj(lam) * c2 + (np.asarray(lam) + nu) * s2)


def S_func_substituted(phi, lam, nu):
    """Equivalent form sqrt((Re lam + nu/2 (1+u))^2 + (Im lam)^2 u^2) with
    u = -cos(2 phi); agrees with S_func to roundoff."""
    u = -np.cos(2.0 * np.asarray(phi))
    lam = np.asarray(lam)
    return np.sqrt((lam.real + nu / 2.0 * (1.0 + u)) ** 2 + (lam.imag * u) ** 2)


def S_lower_bound(params: RegionParams) -> float:
    """delta (nu/2 - delta) / sqrt(delta^2 + nu^2/4)."""
    d, nu = params.delta, params.nu
    return d * (nu / 2.0 - d) / np.sqrt(d**2 + nu**2 / 4.0)


def S_imag_lower_bound(lam, nu):
    """|Im lam| |Re lam + nu/2| / (nu/2 + |Im lam|).

    This is the form the M(phi, lam) envelope estimate actually consumes.
    A sqrt(2)-strengthened variant fails at phi = pi/4 (where S reduces to
    |Re lam + nu/2|) once |Im lam| >> nu; minimizing S^2 over the angle
    exactly gives |Im lam||Re lam + nu/2| / sqrt(nu^2/4 + (Im lam)^2), which
    dominates the bound returned here.
    """
    lam = np.asarray(lam)
    return (np.abs(lam.imag) * np.abs(lam.real + nu / 2.0)
            / (nu / 2.0 + np.abs(lam.imag)))


def a_of(lam, nu, Lambda0):
    """a(lam) = |nu + lam| / sqrt(Lambda0)."""
    return np.abs(nu + np.asarray(lam)) / np.sqrt(Lambda0)


def f_a_func(phi, lam, Lambda0, nu):
    """f_a(phi) = (1 - a(lam)) cos(phi) - (1 + a(lam)) sin(phi)."""
    a = a_of(lam, nu, Lambda0)
    return (1.0 - a) * np.cos(phi) - (1.0 + a) * np.sin(phi)


def epsilon_of(beta, nu, Lambda0):
    """Opening angle eps = 2(2-beta) L^{-1/2} nu / (4 pi + (2+pi)(2-beta) L^{-1/2} nu)."""
    r = (2.0 - beta) * nu / np.sqrt(Lambda0)
    return 2.0 * r / (4.0 * np.pi + (2.0 + np.pi) * r)


def aux1_hypothesis(lam, params: RegionParams):
    """Re lam > -beta nu / 2 and (Im lam)^2 > Lambda0 + sqrt(Lambda0)(2-beta) nu."""
    lam = np.asarray(lam)
    return ((lam.real > -params.beta * params.nu / 2.0)
            & (lam.imag**2 > params.Lambda0
               + np.sqrt(params.Lambda0) * (2.0 - params.beta) * params.nu))


def M_func(phi, lam, params: RegionParams):
    """M(phi, lam) = min of the two resolvent-estimate envelopes; +inf is
    returned (not raised) where a denominator vanishes."""
    lam = np.asarray(lam, dtype=complex)
    phi = np.asarray(phi, dtype=float)
    a = a_of(lam, params.nu, params.Lambda0)
    den1 = np.abs(np.cos(phi) - a * np.sin(phi))
    num2 = np.abs(lam) + np.abs(lam + params.nu)
    den2 = S_func(phi, lam, params.nu)
    with np.errstate(divide="ignore"):
        m1 = np.where(den1 > 0, 1.0 / np.where(den1 > 0, den1, 1.0), np.inf)
        m2 = np.where(den2 > 0, num2 / np.where(den2 > 0, den2, 1.0), np.inf)
    return np.minimum(m1, m2)


# ---------------------------------------------------------------------------
# sampling


def _sample_G(rng, delta: float, nu: float, n: int) -> np.ndarray:
    """Log-radial samples of G with dense rings near the contour."""
    r = np.empty(n)
    third = n // 3
    r[:third] = delta * (1.0 + 10.0 ** rng.uniform(-3, 0.5, third))   # near Gamma
    r[third:] = 10.0 ** rng.uniform(np.log10(delta / 2.0),
                                    np.log10(1e3 * nu), n - third)
    phi = rng.uniform(-np.pi / 2, np.pi / 2, n)
    lam = -delta + r * np.exp(1j * phi)
    lam = lam[in_region_G(lam, delta)]
    while len(lam) < n:
        extra = _sample_G(rng, delta, nu, n - len(lam))
        lam = np.concatenate([lam, extra])
    return lam[:n]


def _sample_admissible(rng, params: RegionParams, n: int, draw_abs_im) -> np.ndarray:
    """n samples satisfying aux1_hypothesis, in draw order: each batch draws
    n real parts, then |Im| = draw_abs_im(im_min, n), then n random signs."""
    nu, beta, L0 = params.nu, params.beta, params.Lambda0
    im_min = np.sqrt(L0 + np.sqrt(L0) * (2.0 - beta) * nu)
    lam, n_ok = [], 0
    while n_ok < n:
        re = rng.uniform(-beta * nu / 2.0, 10.0 * nu, n)
        cand = re + 1j * (draw_abs_im(im_min, n) * rng.choice([-1.0, 1.0], n))
        lam.append(cand[aux1_hypothesis(cand, params)])
        n_ok += len(lam[-1])
    return np.concatenate(lam)[:n]


@dataclass
class SampledCheck:
    name: str
    n_samples: int
    seed: int
    passed: bool
    observed: float      # extremal sampled value
    bound: float
    extra: dict = dc_field(default_factory=dict)


def check_substitution_identity(params: RegionParams, n_samples: int = 100_000,
                                seed: int = 0) -> SampledCheck:
    """S_func vs its u-substituted form, agreement to 1e-14 (relative)."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, np.pi / 2, n_samples)
    lam = _sample_G(rng, params.delta, params.nu, n_samples)
    s1 = S_func(phi, lam, params.nu)
    s2 = S_func_substituted(phi, lam, params.nu)
    err = float(np.max(np.abs(s1 - s2) / np.maximum(np.abs(s1), 1.0)))
    return SampledCheck("substitution-identity", n_samples, seed,
                        err <= 1e-13, err, 1e-13)


def check_S_lower(params: RegionParams, n_samples: int = 100_000,
                  seed: int = 1) -> SampledCheck:
    """min S over [0, pi/2] x G >= delta(nu/2 - delta)/sqrt(delta^2+nu^2/4)."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, np.pi / 2, n_samples)
    lam = _sample_G(rng, params.delta, params.nu, n_samples)
    smin = float(np.min(S_func(phi, lam, params.nu)))
    bound = S_lower_bound(params)
    return SampledCheck("S-lower-bound", n_samples, seed, smin >= bound,
                        smin, bound)


def check_S_imag_lower(params: RegionParams, n_samples: int = 100_000,
                       seed: int = 2) -> SampledCheck:
    """S >= |Im lam||Re lam + nu/2|/(nu/2 + |Im lam|) off the real axis."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, np.pi / 2, n_samples)
    lam = _sample_G(rng, params.delta, params.nu, n_samples)
    mask = np.abs(lam.imag) > 1e-12
    margin = S_func(phi[mask], lam[mask], params.nu) - S_imag_lower_bound(lam[mask], params.nu)
    worst = float(np.min(margin))
    return SampledCheck("S-imag-lower-bound", int(mask.sum()), seed,
                        worst >= -1e-12, worst, 0.0)


def check_aux1(params: RegionParams, n_samples: int = 100_000,
               seed: int = 3) -> SampledCheck:
    """|1 - |nu+lam|/sqrt(Lambda0)| > (1 - beta/2) nu / sqrt(Lambda0) on
    admissible lam."""
    rng = np.random.default_rng(seed)
    L0, nu, beta = params.Lambda0, params.nu, params.beta
    lam = _sample_admissible(rng, params, n_samples, lambda im_min, n: rng.uniform(
        im_min, im_min + 10.0 ** rng.uniform(-2, 2, n)))
    lhs = np.abs(1.0 - np.abs(nu + lam) / np.sqrt(L0))
    rhs = (1.0 - beta / 2.0) * nu / np.sqrt(L0)
    worst = float(np.min(lhs - rhs))
    return SampledCheck("aux1-separation", n_samples, seed, worst > 0,
                        worst, 0.0)


def check_aux2(params: RegionParams, n_samples: int = 100_000,
               seed: int = 4) -> SampledCheck:
    """|f_a(phi)| >= (1/2)(1 - beta/2) nu / sqrt(Lambda0) on admissible lam,
    for |phi| <= (1/2) arcsin(eps) — the angular half-width actually used by
    the partition argument (the bound genuinely fails between arcsin(eps)/2
    and eps at the smallest admissible |nu + lam|)."""
    rng = np.random.default_rng(seed)
    L0, nu, beta = params.Lambda0, params.nu, params.beta
    eps = 0.5 * np.arcsin(epsilon_of(beta, nu, L0))
    lam = _sample_admissible(rng, params, n_samples,
                             lambda im_min, n: im_min * 10.0 ** rng.uniform(0, 2, n))
    phi = rng.uniform(-eps, eps, n_samples)
    lhs = np.abs(f_a_func(phi, lam, L0, nu))
    rhs = 0.5 * (1.0 - beta / 2.0) * nu / np.sqrt(L0)
    worst = float(np.min(lhs - rhs))
    return SampledCheck("aux2-fa-bound", n_samples, seed, worst >= 0,
                        worst, 0.0, extra={"epsilon": eps})


def check_M_bounded(params: RegionParams, n_samples: int = 1_000_000,
                    seed: int = 5) -> SampledCheck:
    """Empirical sup of M over [0, pi/2] x G2 is finite; the achieving point
    (the first maximizer among the finite values, else sample 0) is
    reported."""
    rng = np.random.default_rng(seed)
    nu, delta = params.nu, params.delta
    phi = rng.uniform(0, np.pi / 2, n_samples)
    re = rng.uniform(np.log10(delta / 10.0), np.log10(1e3 * nu), n_samples)
    np.add(np.power(10.0, re, out=re), -delta, out=re)
    im = rng.uniform(0, np.log10(1e3 * nu / delta), n_samples)
    np.multiply(np.power(10.0, im, out=im), delta, out=im)
    im *= rng.choice([-1.0, 1.0], n_samples)
    best, n_inf = -np.inf, 0
    for s in range(0, n_samples, _CHUNK):
        lam = re[s:s + _CHUNK] + 1j * im[s:s + _CHUNK]
        vals = M_func(phi[s:s + _CHUNK], lam, params)
        finite = np.isfinite(vals)
        n_inf += len(vals) - int(np.count_nonzero(finite))
        masked = np.where(finite, vals, -np.inf)
        j = int(np.argmax(masked))
        if s == 0 or masked[j] > best:
            best, i, sup, arg_lam = masked[j], s + j, float(vals[j]), complex(lam[j])
    return SampledCheck("M-uniform-bound", n_samples, seed,
                        n_inf == 0 and np.isfinite(sup), sup, np.inf,
                        extra={"arg_phi": float(phi[i]), "arg_lam": arg_lam,
                               "n_infinite": n_inf})


def run_all_checks(params: RegionParams, n_samples: int = 100_000,
                   seed: int = 0):
    """The full seeded suite; per-check seeds derive from the master seed."""
    return [
        check_substitution_identity(params, n_samples, seed),
        check_S_lower(params, n_samples, seed + 1),
        check_S_imag_lower(params, n_samples, seed + 2),
        check_aux1(params, n_samples, seed + 3),
        check_aux2(params, n_samples, seed + 4),
        check_M_bounded(params, max(n_samples, 10 * n_samples), seed + 5),
    ]
