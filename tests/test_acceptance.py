"""Acceptance gate: twelve end-to-end criteria at the desk scale
(L = 40, n = 2048 scalar, 4096 block).  Every test prints a single
machine-readable PASS/FAIL line.

Shared heavyweight artifacts (static/traveling profiles, dense eigensolves,
the modal factorization behind the resolvent sweeps) are computed
once as module-scope fixtures; the whole file is budgeted to run on a laptop
in well under half an hour.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from neelwall.dynamics import (
    Perturbation, SimConfig, integrate, orbital_experiment,
)
from neelwall.energy import energy, grad_energy
from neelwall.grid import Grid, derivative, l2_inner, l2_norm
from neelwall.linops import (
    build_Bc, build_L, build_Lc, build_block, null_pair, translation_mode,
    weighted_state_norm,
)
from neelwall.profiles import mobility, solve_static, solve_traveling, wall_mass
from neelwall.regions import RegionParams, check_M_bounded, run_all_checks
from neelwall.spectra import (
    ResolventCalculator, eig_report, match_eigenvalues, pencil_crosscheck,
    relative_bound_fit, res_inequality_trials, resolvent_sweep,
)

NU = 1.0
H_SET = (5e-4, 1e-3, 2e-3)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          f"{'  (' + detail + ')' if detail else ''}", flush=True)
    assert ok, f"criterion {num:02d} {name} failed: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale artifacts


@pytest.fixture(scope="module")
def gridD():
    return Grid(L=40.0, n=2048)


@pytest.fixture(scope="module")
def staticD(gridD):
    return solve_static(gridD, tol=1e-9)


@pytest.fixture(scope="module")
def L_D(staticD):
    return build_L(staticD)


@pytest.fixture(scope="module")
def repL(L_D):
    return eig_report(L_D)


@pytest.fixture(scope="module")
def A_D(staticD):
    return build_block(staticD, with_c=False, nu=NU)


@pytest.fixture(scope="module")
def repA(A_D):
    return eig_report(A_D)


@pytest.fixture(scope="module")
def delta(repA):
    return 0.4 * min(repA.gap, NU / 2.0)


@pytest.fixture(scope="module")
def travelers(gridD, staticD):
    return {H: solve_traveling(gridD, H, NU, tol=1e-10, init=staticD)
            for H in H_SET}


@pytest.fixture(scope="module")
def moving_blocks(travelers):
    return {H: build_block(prof, with_c=True) for H, prof in travelers.items()}


@pytest.fixture(scope="module")
def moving_reports(moving_blocks):
    return {H: eig_report(op) for H, op in moving_blocks.items()}


@pytest.fixture(scope="module")
def calcA(A_D):
    return ResolventCalculator(A_D)


# ---------------------------------------------------------------------------
# 1. discrete gradient consistency


def test_criterion_01_gradient_consistency(gridD, staticD):
    g = gridD
    rng = np.random.default_rng(3)
    keep = np.abs(g.k) <= 0.25 * np.max(np.abs(g.k))
    window = np.exp(-((g.x / (g.L / 3)) ** 2))

    def direction(seed_row):
        d = np.real(np.fft.ifft(keep * np.fft.fft(rng.standard_normal(g.n))))
        d *= window
        return d / l2_norm(g, d)

    theta = staticD.theta.with_values(staticD.theta.values + 0.1 * direction(0))
    u = direction(1)
    analytic = l2_inner(g, grad_energy(theta).values, u)
    errs = []
    for eps in (1e-4, 1e-5, 1e-6):
        ep = energy(theta.with_values(theta.values + eps * u)).total
        em = energy(theta.with_values(theta.values - eps * u)).total
        errs.append(abs((ep - em) / (2 * eps) - analytic) / abs(analytic))
    small = all(e <= 1e-6 for e in errs)
    # quadratic decay until the central-difference roundoff floor
    floor = 1e-9
    decay = all(errs[i + 1] <= max(0.05 * errs[i], floor) for i in range(2))
    _verdict(1, "gradient-consistency", small and decay,
             "rel errs " + ", ".join(f"{e:.2e}" for e in errs))


# ---------------------------------------------------------------------------
# 2. local-model closed-form oracle


def test_criterion_02_local_oracle(gridD):
    prof = solve_static(gridD, tol=1e-8, mode="local")
    sup = float(np.max(np.abs(prof.reconstruct() - np.arcsin(np.tanh(gridD.x)))))
    e_err = abs(prof.meta["energy"] - 2.0)
    _verdict(2, "local-model-oracle", sup <= 1e-6 and e_err <= 1e-8,
             f"sup dev {sup:.2e}, energy dev {e_err:.2e}")


# ---------------------------------------------------------------------------
# 3. static nonlocal wall


def test_criterion_03_static_wall(gridD, staticD):
    theta = staticD.reconstruct()
    interior = np.abs(gridD.x[1:]) <= gridD.L / 2
    oddness = float(np.max(np.abs((theta[1:] + theta[1:][::-1])[interior])))
    slope_min = float(np.min(derivative(staticD.theta, 1).values))
    fine = solve_static(Grid(L=80.0, n=4096), tol=1e-9)
    e_drift = abs(staticD.meta["energy"] - fine.meta["energy"]) \
        / fine.meta["energy"]
    ok = (staticD.residual <= 1e-8 and oddness <= 1e-6
          and slope_min >= -1e-8 and e_drift <= 5e-3)
    _verdict(3, "static-nonlocal-wall", ok,
             f"residual {staticD.residual:.2e}, oddness {oddness:.2e}, "
             f"min slope {slope_min:.2e}, energy drift {e_drift:.2e}")


# ---------------------------------------------------------------------------
# 4. zero modes


def test_criterion_04_zero_modes(gridD, staticD, L_D, travelers,
                                 moving_blocks):
    # The sampled profile derivative carries an O(1) defect concentrated at
    # the periodization seam; the discrete translation eigenvectors are the
    # zero modes of the discretized operators.
    g = gridD
    v = translation_mode(L_D)
    r_static = l2_norm(g, L_D.matrix @ v) / l2_norm(g, v)
    r_moving = 0.0
    for H, prof in travelers.items():
        Lc = build_Lc(prof)
        vc = translation_mode(Lc)
        r_moving = max(r_moving, l2_norm(g, Lc.matrix @ vc) / l2_norm(g, vc))
    # block zero mode: eigen-residual of the computed pair (the eigenvalue
    # itself sits at the domain-truncation scale ~1.5e-8, so the meaningful
    # 1e-8 statement is the backward error of the eigenpair)
    r_block = 0.0
    for H, op in moving_blocks.items():
        pair = null_pair(op)
        resid = weighted_state_norm(g, op.matrix @ pair.right
                                    - pair.lambda0 * pair.right)
        r_block = max(r_block, resid / weighted_state_norm(g, pair.right))
    ok = r_static <= 1e-7 and r_moving <= 1e-7 and r_block <= 1e-8
    _verdict(4, "zero-modes", ok,
             f"static {r_static:.2e}, traveling {r_moving:.2e}, "
             f"block eigenpair {r_block:.2e}")


# ---------------------------------------------------------------------------
# 5. spectral gap and eigenvalue drift


def test_criterion_05_spectral_gap(repL, repA, delta, travelers,
                                   moving_reports):
    lam0_ok = abs(repL.lambda0) <= 1e-6 and abs(repA.lambda0) <= 1e-6
    gap_pos = repL.Lambda0_num > 0 and repA.gap > 0
    fine = eig_report(build_L(solve_static(Grid(L=40.0, n=4096), tol=1e-9)))
    gap_drift = abs(repL.Lambda0_num - fine.Lambda0_num) / fine.Lambda0_num
    pencil = pencil_crosscheck(repL, repA, NU)
    counts, consts = {}, {}
    for H, rep in moving_reports.items():
        counts[H] = rep.count_inside_square(delta)
        _, drifts, _ = match_eigenvalues(repA.eigenvalues, rep.eigenvalues)
        consts[H] = float(np.max(drifts)) / abs(travelers[H].c)
    # one drift constant must cover all fields (order-unity consistency);
    # the worst drift sits in the dense essential cluster, so the per-field
    # constants agree only up to a small factor
    spread = max(consts.values()) / min(consts.values())
    ok = (lam0_ok and gap_pos and gap_drift <= 0.02 and pencil <= 1e-7
          and all(c == 1 for c in counts.values()) and spread <= 3.0)
    _verdict(5, "spectral-gap", ok,
             f"Lambda0 {repL.Lambda0_num:.4f} (drift {gap_drift:.1e}), "
             f"pencil {pencil:.1e}, inside-contour {sorted(counts.values())}, "
             f"drift/|c| {min(consts.values()):.2f}..{max(consts.values()):.2f}")


# ---------------------------------------------------------------------------
# 6. mobility


def test_criterion_06_mobility(gridD, staticD):
    M = wall_mass(staticD)
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        fit = mobility(gridD, nu, [-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3],
                       static=staticD)
        worst = max(worst, abs(fit.beta_measured - 1.0 / (M * nu))
                    * (M * nu))
        assert not fit.failures
    _verdict(6, "mobility", worst <= 0.05,
             f"worst slope deviation {worst:.2%} of 1/(M nu), M = {M:.4f}")


# ---------------------------------------------------------------------------
# 7. relative bound of the drift perturbation


def test_criterion_07_relative_bound(A_D, staticD, travelers):
    rest = relative_bound_fit(A_D, build_Bc(staticD, staticD), seed=0)
    points = {H: relative_bound_fit(A_D, build_Bc(prof, staticD),
                                    n_samples=500, seed=0)
              for H, prof in travelers.items()}
    bs = [points[H].b for H in sorted(points, reverse=True)]   # c decreasing
    as_ = [points[H].a for H in sorted(points, reverse=True)]
    # 10% slack, and values below 1e-4 count as numerically zero (b =
    # |c| sqrt(4 + c^2) is exact and a = O(|c|); at these fields both sit
    # above the floor)
    def decreasing(seq):
        return all(seq[i + 1] <= 1.10 * seq[i] or seq[i + 1] <= 1e-4
                   for i in range(len(seq) - 1))

    mono = decreasing(bs) and decreasing(as_)
    ok = (rest.a == 0.0 and rest.b == 0.0
          and all(p.b < 1 for p in points.values()) and mono)
    _verdict(7, "relative-bound", ok,
             "b: " + ", ".join(f"{b:.2e}" for b in bs)
             + "; a: " + ", ".join(f"{a:.2e}" for a in as_))


# ---------------------------------------------------------------------------
# 8. resolvent uniformity over the gap region


def test_criterion_08_resolvent_uniformity(A_D, delta, calcA):
    base = resolvent_sweep(A_D, delta, calc=calcA)
    fine = resolvent_sweep(A_D, delta, n_radial=48, n_angular=48, calc=calcA)
    n_gamma = sum(1 for s in base.samples if s.region == "Gamma")
    coverage = len(base.samples) - n_gamma >= 1600 and n_gamma >= 64

    def sups(sweep):
        return (max(s.norm_inv for s in sweep.samples),
                max(s.norm_composed for s in sweep.samples))

    si_b, sc_b = sups(base)
    si_f, sc_f = sups(fine)
    finite = all(np.isfinite([si_b, sc_b, si_f, sc_f])) and not base.flagged
    stable = (abs(si_b - si_f) / si_f <= 0.10
              and abs(sc_b - sc_f) / sc_f <= 0.10)
    envelope = 0 < base.envelope_margin <= 1.0
    _verdict(8, "resolvent-uniformity", coverage and finite and stable
             and envelope,
             f"sup inv {si_b:.2f}->{si_f:.2f}, comp {sc_b:.1f}->{sc_f:.1f}, "
             f"envelope margin {base.envelope_margin:.2f}, "
             f"{len(base.samples)} samples")


# ---------------------------------------------------------------------------
# 9. resolvent inequalities on random perpendicular data


def test_criterion_09_resolvent_inequalities(A_D, delta):
    base = res_inequality_trials(A_D, delta, trials=100, seed=0)
    fine = res_inequality_trials(A_D, delta, trials=400, seed=1)
    all_pass = base.n_pass_a == base.n_trials \
        and fine.n_pass_a == fine.n_trials
    finite = all(np.isfinite([base.C1, base.C2, fine.C1, fine.C2]))
    stable = (abs(base.C1 - fine.C1) / fine.C1 <= 0.25
              and abs(base.C2 - fine.C2) / fine.C2 <= 0.25)
    _verdict(9, "resolvent-inequalities", all_pass and finite and stable,
             f"pass {base.n_pass_a}/{base.n_trials}, "
             f"C1 {base.C1:.3f}->{fine.C1:.3f}, "
             f"C2 {base.C2:.3f}->{fine.C2:.3f}")


# ---------------------------------------------------------------------------
# 10. closed-form inequality suite


def test_criterion_10_appendix_suite(repL, delta):
    params = RegionParams(nu=NU, delta=delta, Lambda0=repL.Lambda0_num,
                          beta=0.9)
    checks = run_all_checks(params, n_samples=100_000, seed=0)
    all_ok = all(c.passed for c in checks)
    m_small = check_M_bounded(params, n_samples=250_000, seed=11)
    m_large = check_M_bounded(params, n_samples=1_000_000, seed=12)
    m_stable = (np.isfinite(m_large.observed)
                and abs(m_small.observed - m_large.observed)
                / m_large.observed <= 0.05)
    _verdict(10, "appendix-suite", all_ok and m_stable,
             "checks " + "/".join("ok" if c.passed else c.name for c in checks)
             + f", M sup {m_small.observed:.2f}->{m_large.observed:.2f}")


# ---------------------------------------------------------------------------
# 11. orbital stability


def test_criterion_11_orbital_stability(gridD, staticD, travelers, repA,
                                        moving_reports):
    ok = True
    lines = []
    for H in (0.0, 1e-3):
        ref = staticD if H == 0.0 else travelers[H]
        rep = repA if H == 0.0 else moving_reports[H]
        nonzero = rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-6]
        rate_ref = float(-np.max(nonzero.real))
        for amp in (1e-4, 0.05):
            v = orbital_experiment(gridD, H, Perturbation("sech", amp, seed=2),
                                   NU, ref, dt=0.005, t_end=20.0)
            good = v.stable and v.fit.r2 >= 0.98
            if amp == 1e-4:
                good = good and abs(v.fit.omega - rate_ref) <= 0.10 * rate_ref
            if H != 0.0:
                good = good and abs(v.wall_speed - ref.c) <= 0.02 * abs(ref.c)
            else:
                good = good and abs(v.wall_speed) <= 1e-4
            good = good and v.a2_ratio <= 1.10 * v.a2_bound
            good = good and abs(v.a3_exponent - 2.0) <= 0.1
            ok = ok and good
            lines.append(f"H={H:g} amp={amp:g}: omega {v.fit.omega:.3f} "
                         f"(ref {rate_ref:.3f}), r2 {v.fit.r2:.3f}, "
                         f"speed {v.wall_speed:.2e}")
    _verdict(11, "orbital-stability", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 12. energy dissipation identity


def test_criterion_12_dissipation_identity(gridD, staticD):
    defects = []
    for dt in (0.02, 0.01):
        config = SimConfig(dt=dt, t_end=10.0, nu=NU, H=0.0,
                           perturbation=Perturbation("sech", 0.05),
                           max_frames=128)
        trace = integrate(gridD, config, staticD)
        defects.append(float(np.max(np.abs(trace.defect))))
    ratio = defects[0] / defects[1]
    _verdict(12, "dissipation-identity", ratio >= 3.5,
             f"defect {defects[0]:.2e} -> {defects[1]:.2e}, ratio {ratio:.2f}")
