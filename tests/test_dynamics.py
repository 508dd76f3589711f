"""Time integration, modulation tracking, decay fits, orbital experiment.

Oracles:
  * Closed-form damped mode (oracles.py): the exponential stepper reproduces
    the exact solution of u'' + nu u' + Lam u = 0 to machine precision.
  * Complex-FFT step: integrate's half-spectrum step and frame recorder
    agree with the same step on full complex spectra and a frame built from
    shift, derivative, energy and h1_norm.
  * Classical RK4 in physical space (oracles.py), through the same frame
    recorder: the same trajectory up to the time-stepping error.
  * The RK4 oracle's right-hand side with the dense L_c: the same
    quadratic-remainder constants and exponent as quadratic_remainder_check.
  * Dense matrix exponential: per-mode step weights equal expm of the
    companion block.
  * Physical-space modulation: the half-spectrum orthogonality condition,
    its slope and the misfit equal the dx-weighted dot products of the
    translate's samples and derivatives.
  * Synthetic decay trace: the fitter recovers a planted (omega, C, r_inf).
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from neelwall import dynamics
from neelwall.dynamics import (
    BlowUpError, DecayFit, ModulationError, Perturbation, SimConfig, SimTrace,
    build_perturbation, decay_fit, integrate, modulate, orbital_experiment,
    quadratic_remainder_check, step_weights, taylor_translation_check,
    wall_position_of,
)
from neelwall.energy import energy
from neelwall.grid import (
    Field, apply_multiplier, derivative, h1_norm, l2_inner, l2_norm, shift,
    state_norm, wall_background, wall_background_d1,
)
from neelwall.profiles import (Linearization, solve_traveling,
                               traveling_residual)
from oracles import (closed_form_damped_mode, damped_wave_remainder,
                     damped_wave_rhs, integrate_linear_mode, rk4_step)


# ---------------------------------------------------------------------------
# exponential stepper oracles


@pytest.mark.parametrize("Lam", [0.16, 5.0])       # over- and under-damped
def test_linear_mode_matches_closed_form(Lam):
    nu, dt, n_steps = 1.0, 0.05, 200
    u, v = integrate_linear_mode(nu, Lam, 1.0, -0.3, dt, n_steps)
    t = dt * np.arange(n_steps + 1)
    u_exact, v_exact = closed_form_damped_mode(nu, Lam, 1.0, -0.3, t)
    assert np.max(np.abs(u - u_exact)) <= 1e-10
    assert np.max(np.abs(v - v_exact)) <= 1e-10


def test_step_weights_match_dense_expm(grid256):
    # per mode, the top block row of expm([[M dt, I, 0], [0, 0, I], [0, 0, 0]])
    # is [e^{M dt}, phi1(M dt), phi2(M dt)]; P1 and P2 are dt times the
    # second columns of the last two.  Small |M dt| (the low modes, small
    # dt) is where the closed forms of phi1 and phi2 cancel
    k = np.imag(grid256.k_deriv)
    aug = np.zeros((6, 6), dtype=complex)
    aug[:2, 2:4] = aug[2:4, 4:] = np.eye(2)
    for nu, c, dt in ((1.0, 0.0, 0.05), (1.0, 0.01, 0.05), (2.0, 0.003, 0.01),
                      (0.5, 0.02, 0.2), (1.0, 0.001, 1e-3), (3.0, 0.01, 5e-3)):
        w = step_weights(grid256, nu, c, dt)
        for j in range(grid256.n):
            q = (1.0 - c**2) * k[j] ** 2 - 1j * c * nu * k[j]
            aug[:2, :2] = dt * np.array([[0.0, 1.0], [-q, -nu + 2j * c * k[j]]])
            top = sla.expm(aug)[:2]
            for got, ref in (
                    ([[w.E11[j], w.E12[j]], [w.E21[j], w.E22[j]]], top[:, :2]),
                    ([w.P1_12[j], w.P1_22[j]], dt * top[:, 3]),
                    ([w.P2_12[j], w.P2_22[j]], dt * top[:, 5])):
                err = np.max(np.abs(np.subtract(got, ref)))
                assert err <= 1e-12 * np.max(np.abs(ref)), (nu, c, dt, j)


# ---------------------------------------------------------------------------
# perturbations and configuration


def test_build_perturbation_shapes(grid256):
    sech = build_perturbation(grid256, Perturbation("sech", 0.1))
    assert sech[np.argmin(np.abs(grid256.x))] == pytest.approx(0.1)
    odd = build_perturbation(grid256, Perturbation("odd_sech", 0.1))
    assert np.allclose(odd[1:], -odd[1:][::-1], atol=1e-14)
    noise = build_perturbation(grid256, Perturbation("noise", 0.1, seed=5))
    assert h1_norm(grid256, noise) == pytest.approx(0.1, rel=1e-10)
    again = build_perturbation(grid256, Perturbation("noise", 0.1, seed=5))
    assert np.array_equal(noise, again)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation("gauss", 0.1)
    with pytest.raises(ValueError):
        Perturbation("sech", 0.9)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=-0.1, t_end=20.0, nu=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_end=1.0, nu=1.0)       # too short to fit decay
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_end=20.0, nu=1.0, frame="rotating")
    # damping is checked before the 10/nu decay window is formed
    for nu in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            SimConfig(dt=0.01, t_end=20.0, nu=nu)
    for H in (np.nan, np.inf):
        with pytest.raises(ValueError, match="H must be finite"):
            SimConfig(dt=0.01, t_end=20.0, nu=1.0, H=H)
    # a frame stride needs at least one frame, counted in whole frames
    for frames in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_frames must be a positive "
                                             "integer"):
            SimConfig(dt=0.01, t_end=20.0, nu=1.0, max_frames=frames)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            SimConfig(dt=bad, t_end=20.0, nu=1.0)
        with pytest.raises(ValueError, match="t_end must be finite and at "
                                             "least 10/nu"):
            SimConfig(dt=0.01, t_end=bad, nu=1.0)


# ---------------------------------------------------------------------------
# modulation and wall position


@pytest.mark.parametrize("wall", ["static256", "traveling256"])
@pytest.mark.parametrize("planted", [-9.5, -5.0, -2.3, 0.37, 4.4, 9.7])
def test_modulate_recovers_translation(wall, planted, request):
    # cold starts across the scan |s| <= L/4 = 10: Newton from the scan's
    # least misfit, with no refinement in between
    reference = request.getfixturevalue(wall)
    moved = shift(reference.theta, planted)
    s = modulate(moved, reference)
    assert s == pytest.approx(-planted, abs=1e-10)
    recon = shift(reference.theta, -s)
    assert np.max(np.abs(recon.values - moved.values)) <= 1e-8


def test_modulate_warm_start_agrees(static256):
    moved = shift(static256.theta, -0.2)
    s_cold = modulate(moved, static256)
    s_warm = modulate(moved, static256, s0=s_cold + 1e-3)
    assert s_warm == pytest.approx(s_cold, abs=1e-8)


def test_modulate_moving_frame_recovers_planted_shift(traveling256):
    # lab frame at t = 5: the reference has drifted by c t, and a known
    # modulation shift sits on top of the drift
    t, planted = 5.0, 0.23
    moved = shift(traveling256.theta, -(traveling256.c * t + planted))
    s = modulate(moved, traveling256, t=t, frame="lab")
    assert s == pytest.approx(planted, abs=1e-8)
    s_warm = modulate(moved, traveling256, t=t, frame="lab", s0=planted + 1e-3)
    assert s_warm == pytest.approx(s, abs=1e-8)


def _physical_modulation_terms(reference, theta_full, sigma):
    """Oracle for the half-spectrum modulation: the orthogonality condition
    g, its slope g' and the misfit at the translate by sigma, as dx-weighted
    dot products of samples: the stored translate from one irfft, psi_s' and
    psi_s'' from irffts of its rfft, the background slope sech x analytic
    and its derivative D(sech x) spectral, as derivative(theta, 2) takes
    it.  Also returns the Cauchy-Schwarz scales of g and g'."""
    g = reference.grid
    h = g.n // 2 + 1
    stored = (np.fft.irfft(np.exp(-1j * sigma * g.k[:h])
                           * np.fft.rfft(reference.theta.values), g.n)
              + wall_background(g.x - sigma) - g.background)
    r = theta_full - (stored + g.background)
    sh = np.fft.rfft(stored)
    dpsi_s = np.fft.irfft(g.k_deriv[:h] * sh, g.n) + wall_background_d1(g.x)
    d2psi_s = (np.fft.irfft(np.real(g.k_deriv[:h] ** 2) * sh, g.n)
               + apply_multiplier(g, wall_background_d1(g.x), g.k_deriv))
    gval = g.dx * float(r @ dpsi_s)
    gprime = g.dx * float(dpsi_s @ dpsi_s - r @ d2psi_s)
    misfit = g.dx * float(r @ r)
    norm = lambda f: np.sqrt(g.dx * float(f @ f))
    scales = (norm(r) * norm(dpsi_s),
              norm(dpsi_s) ** 2 + norm(r) * norm(d2psi_s))
    return gval, gprime, misfit, scales


@pytest.mark.parametrize("wall, t", [("static256", 0.0), ("traveling256", 5.0),
                                     ("static512", 0.0), ("traveling512", 5.0)])
def test_spectral_modulation_matches_physical_oracle(wall, t, request):
    reference = request.getfixturevalue(wall)
    g = reference.grid
    drift = reference.c * t            # lab frame
    planted = 0.23
    moved = shift(reference.theta, -(drift + planted))
    theta = moved.with_values(moved.values + 0.02 / np.cosh(g.x - 1.0))
    theta_full = theta.reconstruct()
    translates = dynamics._Translates(reference)
    bh = np.fft.rfft(theta_full - g.background)
    half = dynamics._half_grid(g)
    # the per-grid background spectra are shared by every caller
    assert not (half.d1_hat.flags.writeable or half.d2_hat.flags.writeable)
    l2 = half.l2
    for s in (-g.L / 4, -0.3, 0.0, planted, g.L / 4):
        sigma = drift + s
        sh, gval, gprime = translates.orthogonality(bh, sigma)
        misfit = dynamics._sq_norm(l2, bh - sh)
        g_ref, gp_ref, m_ref, (g_scale, gp_scale) = _physical_modulation_terms(
            reference, theta_full, sigma)
        assert abs(gval - g_ref) <= 1e-12 * g_scale
        assert abs(gprime - gp_ref) <= 1e-12 * gp_scale
        assert abs(misfit - m_ref) <= 1e-12 * m_ref

    s_ref = planted
    for _ in range(30):
        g_ref, gp_ref, _, _ = _physical_modulation_terms(
            reference, theta_full, drift + s_ref)
        step = g_ref / gp_ref
        s_ref -= step
        if abs(step) <= 1e-14:
            break
    cold = modulate(theta, reference, t=t, frame="lab")
    warm = modulate(theta, reference, t=t, frame="lab", s0=planted + 1e-3)
    assert abs(cold - s_ref) <= 1e-10
    assert abs(warm - s_ref) <= 1e-10


def test_modulate_refuses_a_drift_past_half_the_window(traveling256):
    # in the lab frame the reference drifts by c t; once that passes L/2
    # the translate cannot be formed, which is a modulation failure
    t = traveling256.grid.L / traveling256.c
    with pytest.raises(ModulationError, match="drifted too far"):
        modulate(traveling256.theta, traveling256, t=t, frame="lab")


def test_wall_position_of(grid256, static256):
    # linear interpolation of the crossing carries an O(dx^3) bias from the
    # profile's curvature (~1e-3 at dx = 0.31)
    theta0 = static256.reconstruct()
    assert abs(wall_position_of(grid256, theta0)) <= 2e-3
    moved = shift(static256.theta, 0.37).reconstruct()
    pos = wall_position_of(grid256, moved, previous=0.0)
    assert abs(abs(pos) - 0.37) <= 2e-3


# ---------------------------------------------------------------------------
# decay fitting (synthetic oracle)


def _synthetic_trace(omega=0.7, C=0.5, r_inf=1e-9, t_end=20.0, n=400):
    t = np.linspace(0.0, t_end, n)
    r = C * np.exp(-omega * t) + r_inf
    z = np.zeros_like(t)
    return SimTrace(t, r, z, z, z, z, z, meta={"nu": 1.0})


def test_decay_fit_recovers_planted_rate():
    fit = decay_fit(_synthetic_trace())
    assert fit.omega == pytest.approx(0.7, rel=0.02)
    assert fit.r2 >= 0.999
    # tail median still rides the decaying exponential at t_end = 20
    assert fit.r_inf <= 1e-6


def test_decay_fit_handles_offset():
    fit = decay_fit(_synthetic_trace(r_inf=1e-4))
    assert fit.omega == pytest.approx(0.7, rel=0.05)
    assert fit.r_inf == pytest.approx(1e-4, rel=0.1)


def test_decay_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        decay_fit(_synthetic_trace(n=8))     # 7 samples after t = 2/nu


# ---------------------------------------------------------------------------
# full integration


def _config(dt):
    return SimConfig(dt=dt, t_end=10.0, nu=1.0, H=0.0,
                     perturbation=Perturbation("sech", 0.05), max_frames=256)


def _run(grid, reference, dt):
    return integrate(grid, _config(dt), reference)


def test_perturbed_wall_relaxes(grid256, static256):
    trace = _run(grid256, static256, dt=0.02)
    assert trace.residual_H1[-1] < 0.05 * trace.residual_H1[0]
    fit = decay_fit(trace)
    assert fit.omega > 0.3 and fit.r2 >= 0.98
    # the sech perturbation overlaps the translation mode, so the wall
    # settles at a nearby shifted position rather than returning to 0
    assert np.max(np.abs(trace.wall_position)) <= 0.1
    tail = trace.wall_position[-len(trace.wall_position) // 4:]
    assert np.max(tail) - np.min(tail) <= 1e-5


@pytest.mark.parametrize("H", [1e-3, 5e-3])
def test_traveling_wave_is_a_comoving_equilibrium(grid256, static256, H):
    # phi_t = -R(theta) + 2c phi_z - nu phi: at (psi, 0) the integrator's
    # right-hand side (the linear symbol on w plus the remainder with the
    # background forcing) is -R(psi) to rounding, because both take theta''
    # from one definition
    g, nu, h = grid256, 1.0, grid256.n // 2 + 1
    psi = solve_traveling(g, H, nu, tol=5e-8, init=static256)
    c, w = psi.c, psi.theta.values
    symbol = (1.0 - c**2) * g.k2[:h] - c * nu * g.k_deriv[:h]
    rhs = (np.fft.irfft(-symbol * np.fft.rfft(w), g.n)
           + dynamics._remainder_term(
               g, dynamics._cos_parts(g, w), H,
               dynamics._background_forcing(g, nu, c)))
    R = traveling_residual(g, psi.theta, c, nu, H)
    assert l2_norm(g, rhs + R) <= 1e-13


def test_energy_balance_defect_second_order(grid256, static256):
    d1 = np.max(np.abs(_run(grid256, static256, dt=0.04).defect))
    d2 = np.max(np.abs(_run(grid256, static256, dt=0.02).defect))
    assert d1 / d2 >= 3.5


def test_rk4_cross_check(grid256, static256):
    config = _config(dt=0.05)
    a = integrate(grid256, config, static256)
    b = _oracle_trace(grid256, static256, config,
                      rk4_step(grid256, config.nu, 0.0, config.H, config.dt))
    # same trajectory up to the time-stepping error of the coarser scheme
    assert len(a.times) == len(b["residual_H1"]) == 201
    assert np.max(np.abs(a.residual_H1 - b["residual_H1"])) <= 1e-4


def _complex_fft_step(grid, nu, c, H, dt):
    """integrate's exponential step on full complex spectra, with w and phi
    back in physical space after every step."""
    wts = step_weights(grid, nu, c, dt)
    remainder = damped_wave_remainder(grid, nu, c, H)

    def step(w, phi):
        G = remainder(w)
        wh, ph, Gh = np.fft.fft(w), np.fft.fft(phi), np.fft.fft(G)
        ah = wts.E11 * wh + wts.E12 * ph + wts.P1_12 * Gh
        bh = wts.E21 * wh + wts.E22 * ph + wts.P1_22 * Gh
        dGh = np.fft.fft(remainder(np.real(np.fft.ifft(ah)))) - Gh
        return (np.real(np.fft.ifft(ah + wts.P2_12 * dGh)),
                np.real(np.fft.ifft(bh + wts.P2_22 * dGh)))
    return step


def _oracle_trace(grid, reference, config, step):
    """Oracle for integrate's frame recorder: the run from the configured
    perturbation at rest under step(w, phi) -> (w, phi), with a frame every
    step built from shift, derivative, energy and h1_norm, the modulation
    shift from its own Newton iteration."""
    nu, dt = config.nu, config.dt

    def fit_shift(theta_full, drift, s):
        for _ in range(30):
            psi = shift(reference.theta, -(drift + s))
            r = theta_full - psi.reconstruct()
            d1 = derivative(psi, 1).values
            d2 = derivative(psi, 2).values
            ds = l2_inner(grid, r, d1) / (l2_inner(grid, d1, d1)
                                          - l2_inner(grid, r, d2))
            s -= ds
            if abs(ds) <= 1e-14:
                break
        return s

    w = reference.theta.values + build_perturbation(grid, config.perturbation)
    phi = np.zeros(grid.n)
    n_steps = int(round(config.t_end / dt))
    out = {key: [] for key in ("residual_H1", "s", "energy", "v_norm", "defect")}
    s, e0, diss = 0.0, None, 0.0
    for i in range(n_steps + 1):
        if i > 0:
            v_sq_prev = l2_norm(grid, phi) ** 2
            w, phi = step(w, phi)
            diss += nu * dt * 0.5 * (l2_norm(grid, phi) ** 2 + v_sq_prev)
        t = i * dt
        drift = reference.c * t if config.frame == "lab" else 0.0
        theta_f = Field(grid, w, "wall")
        s = fit_shift(theta_f.reconstruct(), drift, s)
        psi = shift(reference.theta, -(drift + s)).reconstruct()
        e = energy(theta_f).total
        vn = l2_norm(grid, phi)
        e0 = 0.5 * vn**2 + e if e0 is None else e0
        out["residual_H1"].append(h1_norm(grid, theta_f.reconstruct() - psi))
        out["s"].append(s)
        out["energy"].append(e)
        out["v_norm"].append(vn)
        out["defect"].append(0.5 * vn**2 + e - e0 + diss)
    return {key: np.array(val) for key, val in out.items()}


@pytest.mark.parametrize("wall, frame", [("static256", "lab"),
                                         ("traveling256", "lab"),
                                         ("traveling256", "comoving")])
def test_integrate_matches_complex_fft_oracle(grid256, wall, frame, request):
    reference = request.getfixturevalue(wall)
    # 60 steps, a frame after every step
    config = SimConfig(dt=0.2, t_end=12.0, nu=1.0, H=reference.H, frame=frame,
                       perturbation=Perturbation("sech", 0.05))
    trace = integrate(grid256, config, reference)
    c = reference.c if frame == "comoving" else 0.0
    oracle = _oracle_trace(grid256, reference, config, _complex_fft_step(
        grid256, config.nu, c, config.H, config.dt))
    assert len(trace.times) == 61
    for key, expected in oracle.items():
        got = getattr(trace, key)
        assert np.max(np.abs(got - expected)) <= 1e-9, key


def test_frame_transform_budget(grid256, static256, monkeypatch):
    # every rfft/irfft of one integrate run with a frame after every step
    calls = {"n": 0}
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    config = SimConfig(dt=0.2, t_end=12.0, nu=1.0,
                       perturbation=Perturbation("sech", 0.05))
    trace = integrate(grid256, config, static256)
    steps, frames = 60, len(trace.times)
    assert frames == steps + 1
    # eight per step, at most four per frame, and the set-up: the initial
    # spectra and one cold start of the first frame (65 misfits of the scan
    # and its Newton steps, one transform each)
    assert calls["n"] <= 8 * steps + 4 * frames + 128


def test_blow_up_raises_with_trace(grid256, static256):
    config = SimConfig(dt=0.02, t_end=20.0, nu=1.0)
    big_v = 2e2 * np.ones(grid256.n)
    with pytest.raises(BlowUpError) as err:
        integrate(grid256, config, static256,
                  initial=(static256.theta, big_v))
    assert err.value.trace is not None


def test_lost_wall_raises_blow_up_with_trace(grid256, static256):
    # dt = 1 is too large for the integrator: the wall stops saturating at
    # the ends, and the frame that sees it ends the run as a blow-up
    config = SimConfig(dt=1.0, t_end=20.0, nu=1.0)
    with pytest.raises(BlowUpError, match=r"wall lost at t = \d+\.\d{3}: "
                                          "wall-background field") as err:
        integrate(grid256, config, static256)
    trace = err.value.trace
    t_lost = float(str(err.value).split("t = ")[1].split(":")[0])
    assert 0 < len(trace.times) and trace.times[-1] < t_lost < config.t_end
    assert np.array_equal(trace.times, np.arange(len(trace.times)) * 1.0)
    assert len(trace.residual_H1) == len(trace.times)


# ---------------------------------------------------------------------------
# structural checks used by the orbital experiment


def test_taylor_translation_within_curvature_bound(static256):
    ratio, bound = taylor_translation_check(static256)
    assert 0 < ratio <= 1.1 * bound


def test_quadratic_remainder_scaling(traveling256):
    constants, exponent = quadratic_remainder_check(traveling256, nu=1.0)
    assert abs(exponent - 2.0) <= 0.1
    # prefactor is amplitude-independent for a genuinely quadratic remainder
    assert np.max(constants) <= 2.0 * np.min(constants)


def test_quadratic_remainder_matches_oracle_rhs(traveling256):
    # the same remainder F(psi + W) - F(psi) - DF(psi) W with F the RK4
    # oracle's right-hand side and L_c from the dense matrix
    g, c, H, nu = traveling256.grid, traveling256.c, traveling256.H, 1.0
    assert H == 1e-3
    rng = np.random.default_rng(0)
    keep = np.abs(g.k) <= 0.25 * np.max(np.abs(g.k))
    shape_u, shape_v = (np.real(np.fft.ifft(keep * np.fft.fft(raw)))
                        for raw in rng.standard_normal((2, g.n)))
    shape_u /= h1_norm(g, shape_u)
    shape_v /= l2_norm(g, shape_v)
    rhs = damped_wave_rhs(g, nu, c, H)
    Lc = Linearization(g, traveling256.reconstruct(), c, nu, H).dense()
    w0, phi0 = traveling256.theta.values, np.zeros(g.n)
    F0u, F0v = rhs(w0, phi0)
    sizes, rems = [], []
    for amp in (1e-2, 5e-3, 2.5e-3):
        wu, wv = amp * shape_u, amp * shape_v
        Fu, Fv = rhs(w0 + wu, phi0 + wv)
        wv_z = np.real(np.fft.ifft(g.k_deriv * np.fft.fft(wv)))
        lin_v = -Lc @ wu + 2.0 * c * wv_z - nu * wv
        rems.append(state_norm(g, Fu - F0u - wv, Fv - F0v - lin_v))
        sizes.append(state_norm(g, wu, wv))
    sizes, rems = np.array(sizes), np.array(rems)
    constants, exponent = quadratic_remainder_check(traveling256, nu)
    assert np.allclose(constants, rems / sizes**2, rtol=1e-8, atol=0.0)
    assert exponent == pytest.approx(
        np.polyfit(np.log(sizes), np.log(rems), 1)[0], rel=1e-8)


def test_orbital_experiment_static(grid256, static256):
    verdict = orbital_experiment(grid256, H=0.0,
                                 perturbation=Perturbation("sech", 1e-3),
                                 nu=1.0, reference=static256,
                                 dt=0.01, t_end=10.0)
    assert verdict.stable
    assert verdict.fit.omega > 0.3
    assert abs(verdict.wall_speed) <= 1e-3
    assert verdict.a2_ratio <= 1.1 * verdict.a2_bound
    assert abs(verdict.a3_exponent - 2.0) <= 0.15


def test_orbital_experiment_catches_only_modulation_failures(
        grid256, static256, monkeypatch):
    def run(error):
        def failing(*args, **kwargs):
            raise error
        monkeypatch.setattr(dynamics, "integrate", failing)
        return orbital_experiment(grid256, H=0.0,
                                  perturbation=Perturbation("sech", 1e-3),
                                  nu=1.0, reference=static256,
                                  dt=0.01, t_end=10.0)

    verdict = run(ModulationError("no modulation bracket"))
    assert not verdict.stable
    assert verdict.meta["failure"] == "no modulation bracket"
    with pytest.raises(ValueError, match="a plain bug") as err:
        run(ValueError("a plain bug"))
    assert type(err.value) is ValueError


def test_orbital_experiment_rejects_large_field(grid256, static256):
    for H in (0.1, np.nan):
        with pytest.raises(ValueError, match="needs"):
            orbital_experiment(grid256, H=H, perturbation=Perturbation(),
                               nu=1.0, reference=static256,
                               dt=0.01, t_end=20.0)


def test_orbital_experiment_rejects_nonpositive_nu(grid256, static256):
    # checked by its SimConfig, before 10/nu is formed
    for nu in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="nu must be positive"):
            orbital_experiment(grid256, H=0.0, perturbation=Perturbation(),
                               nu=nu, reference=static256,
                               dt=0.01, t_end=20.0)
