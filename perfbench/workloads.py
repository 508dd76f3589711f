"""The four workloads of the benchmark and their independent checks.

Each workload calls the public functions of ``neelwall`` the way the CLI
subcommands and the acceptance criteria call them, always through the
module attribute (``spectra.resolvent_sweep``), so that the span recorder
of a traced run sees every call.  A workload has

    inputs(seed) -> dict     the generated inputs; the same seed, the same dict
    setup(inputs) -> state   profile solves, assembly and factorizations
    round(state) -> Round    one pass of the measured work
    check(state, rounds)     checks computed apart from the code they check

The checks never compare with a stored copy of earlier output: they use
closed forms, properties the method must have, or the benchmark's own
dense linear algebra.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from neelwall import dynamics, linops, profiles, regions, spectra
from neelwall.grid import Grid

NU = 1.0
H_SET = (5e-4, 1e-3, 2e-3)                          # criteria 05, 07, 11
MOBILITY_FIELDS = (-2e-3, -1e-3, -5e-4, 5e-4, 1e-3, 2e-3)   # criterion 06
MOBILITY_NUS = (0.5, 1.0, 2.0)
RELATIVE_BOUND_SEED = 0                             # criterion 07's seed


@dataclass
class Round:
    work: float          # units of work done (samples, operators, ...)
    attempted: int
    failed: int
    busy_s: float | None = None   # time of the rated part; None = whole round
    seconds: float = 0.0          # CPU time, filled in by the worker
    wall_s: float = 0.0           # wall time, filled in by the worker
    data: dict = field(default_factory=dict)


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**63)


def static_tol(grid: Grid) -> float:
    """The static-solve tolerance rule of the command line."""
    return max(1e-8, 1e-6 * grid.dx**2)


def wavenumbers(grid: Grid) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=2.0 * grid.L / grid.n)


def multiplier(mult: np.ndarray) -> np.ndarray:
    """Dense matrix of a real Fourier multiplier."""
    n = len(mult)
    return np.real(np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n), axis=0),
                               axis=0))


def weighted_norm(grid: Grid, U: np.ndarray) -> float:
    """H1 x L2 norm of a stacked state (u, v) with the Fourier weight
    1 + k^2 on u."""
    n = grid.n
    w = 1.0 + wavenumbers(grid) ** 2
    h1 = grid.dx / n * np.sum(w * np.abs(np.fft.fft(U[:n])) ** 2)
    return float(np.sqrt(h1 + grid.dx * np.sum(np.abs(U[n:]) ** 2)))


def pencil_image(mu: np.ndarray, nu: float) -> np.ndarray:
    """Roots of lam^2 + nu lam + mu for every mu."""
    disc = np.sqrt((nu**2 - 4.0 * mu).astype(complex))
    return np.concatenate([(-nu + disc) / 2.0, (-nu - disc) / 2.0])


def nearest_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each point of a, the distance to the nearest point of b."""
    return np.min(np.abs(a[:, None] - b[None, :]), axis=1)


def wall_slope(prof) -> np.ndarray:
    """theta' from the stored remainder (spectral, Nyquist zeroed) plus the
    analytic slope sech x of the background arcsin(tanh x)."""
    g = prof.grid
    kd = 1j * wavenumbers(g)
    kd[g.n // 2] = 0.0
    rem = np.real(np.fft.ifft(kd * np.fft.fft(prof.theta.values)))
    return rem + 1.0 / np.cosh(g.x)


def verdict(name: str, ok, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------


class Sweep:
    """Criterion 08 and ``neelwall resolvent-sweep``: static wall, block A,
    weighted Schur form, then resolvent_sweep over the log-polar grid, the
    near-real G1 line and the Gamma contour."""

    name = "sweep"
    grid = Grid(40.0, 256)
    n_radial = n_angular = 20
    n_gamma = 64
    svd_tol = 1e-2            # ten times the sweep's Lanczos tolerance
    bound_tol = 1e-2

    def inputs(self, seed):
        rng = seeded(seed)
        return {"delta_factor": 0.99 + 0.02 * rng.random(),
                "check_seed": int(rng.integers(2**31))}

    def setup(self, inp):
        g = self.grid
        static = profiles.solve_static(g, tol=static_tol(g))
        L_report = spectra.eig_report(linops.build_L(static))
        delta = 0.4 * min(L_report.gap, NU / 2.0) * inp["delta_factor"]
        A = linops.build_block(static, with_c=False, nu=NU)
        calc = spectra.ResolventCalculator(A)
        w = spectra.numerical_abscissa(A)
        return {"A": A, "calc": calc, "w": w, "delta": delta, "inp": inp}

    def round(self, st):
        sweep = spectra.resolvent_sweep(
            st["A"], st["delta"], n_radial=self.n_radial,
            n_angular=self.n_angular, n_gamma=self.n_gamma, w=st["w"],
            calc=st["calc"])
        bad = sum(1 for s in sweep.samples
                  if not (np.isfinite(s.norm_inv)
                          and np.isfinite(s.norm_composed)))
        n = len(sweep.samples)
        return Round(work=n, attempted=n, failed=bad, data={"sweep": sweep})

    def check(self, st, rounds):
        g = self.grid
        n = g.n
        A = np.asarray(st["A"].matrix)
        w_k = 1.0 + wavenumbers(g) ** 2
        M = A.copy()
        M[:n, :] = multiplier(np.sqrt(w_k)) @ M[:n, :]
        M[:, :n] = M[:, :n] @ multiplier(1.0 / np.sqrt(w_k))
        eigs = np.linalg.eigvals(A)
        w_own = float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])
        out = []

        lower_worst, upper_worst = np.inf, 0.0
        for r in rounds:
            samples = r.data["sweep"].samples
            lam = np.array([s.lam for s in samples])
            ninv = np.array([s.norm_inv for s in samples])
            dist = nearest_distance(lam, eigs)
            lower_worst = min(lower_worst, float(np.min(ninv * dist)))
            right = lam.real > w_own
            if np.any(right):
                upper_worst = max(upper_worst, float(np.max(
                    ninv[right] * (lam.real[right] - w_own))))
        out.append(verdict(
            "sweep.lower_bound", lower_worst >= 1.0 - self.bound_tol,
            f"min norm_inv * dist(lam, sigma(A)) = {lower_worst:.6f}"))
        out.append(verdict(
            "sweep.upper_bound", upper_worst <= 1.0 + 1e-9,
            f"max norm_inv * (Re lam - w) = {upper_worst:.6f}, "
            f"w = {w_own:.6f}"))

        samples = rounds[-1].data["sweep"].samples
        rng = np.random.default_rng(st["inp"]["check_seed"])
        worst = 0.0
        picked = []
        for region in ("G1", "G2", "G3", "Gamma"):
            idx = [i for i, s in enumerate(samples) if s.region == region]
            if not idx:
                out.append(verdict(f"sweep.svd.{region}", False, "no samples"))
                continue
            for i in rng.choice(idx, size=min(2, len(idx)), replace=False):
                s = samples[int(i)]
                smin = np.linalg.svd(M - s.lam * np.eye(2 * n),
                                     compute_uv=False)[-1]
                worst = max(worst, abs(s.norm_inv * smin - 1.0))
                picked.append(region)
        out.append(verdict(
            "sweep.dense_svd", worst <= self.svd_tol,
            f"worst |norm_inv * sigma_min - 1| = {worst:.2e} over "
            f"{len(picked)} samples ({','.join(picked)})"))
        return out


class Gap:
    """Criteria 04, 05, 07, 10 and ``neelwall spectrum`` /
    ``relative-bound`` / ``appendix-check``: eigen-reports of L, A and A_c,
    null pairs, relative-bound fits, and the closed-form region checks."""

    name = "gap"
    grid = Grid(40.0, 512)
    region_samples = 100_000

    def inputs(self, seed):
        return {"checks_seed": int(seed % 2**31)}

    def setup(self, inp):
        g = self.grid
        static = profiles.solve_static(g, tol=static_tol(g))
        travelers = {H: profiles.solve_traveling(g, H, NU, tol=1e-10,
                                                 init=static)
                     for H in H_SET}
        return {
            "static": static,
            "L": linops.build_L(static),
            "A": linops.build_block(static, with_c=False, nu=NU),
            "Ac": {H: linops.build_block(p, with_c=True)
                   for H, p in travelers.items()},
            "Bc": {H: linops.build_Bc(p, static)
                   for H, p in travelers.items()},
            "inp": inp,
        }

    @staticmethod
    def monotone(fits) -> bool:
        """Criterion 07's rule: a and b non-increasing as c decreases,
        with 10% slack; values below 1e-4 count as zero."""
        order = sorted(fits, reverse=True)
        for key in ("a", "b"):
            seq = [getattr(fits[H], key) for H in order]
            if not all(seq[i + 1] <= 1.10 * seq[i] or seq[i + 1] <= 1e-4
                       for i in range(len(seq) - 1)):
                return False
        return True

    def round(self, st):
        rep_L = spectra.eig_report(st["L"])
        rep_A = spectra.eig_report(st["A"])
        reports, pairs, fits = {}, {}, {}
        for H in H_SET:
            reports[H] = spectra.eig_report(st["Ac"][H])
            pairs[H] = linops.null_pair(st["Ac"][H])
            fits[H] = spectra.relative_bound_fit(st["A"], st["Bc"][H],
                                                 n_samples=500,
                                                 seed=RELATIVE_BOUND_SEED)
        delta = 0.4 * min(rep_A.gap, NU / 2.0)
        params = regions.RegionParams(nu=NU, delta=delta,
                                      Lambda0=rep_L.Lambda0_num, beta=0.9)
        checks = regions.run_all_checks(params, n_samples=self.region_samples,
                                        seed=st["inp"]["checks_seed"])
        mono = self.monotone(fits)
        # eig L, eig A, 3 x (eig A_c, null pair, fit), region checks,
        # and the monotonicity rule of criterion 07
        return Round(work=2 + len(H_SET), attempted=2 + 3 * len(H_SET) + 2,
                     failed=0 if mono else 1,
                     data={"rep_L": rep_L, "rep_A": rep_A,
                           "reports": reports, "pairs": pairs, "fits": fits,
                           "checks": checks, "monotone": mono})

    def check(self, st, rounds):
        g = self.grid
        Lm = np.asarray(st["L"].matrix)
        mu = np.linalg.eigvalsh(0.5 * (Lm + Lm.T))
        pencil = pencil_image(mu, NU)
        i0 = int(np.argmin(np.abs(pencil)))
        gap_own = float(-np.max(np.delete(pencil, i0).real))
        delta = 0.4 * min(gap_own, NU / 2.0)
        out = []
        d = max(max(np.max(nearest_distance(pencil, sigma)),
                    np.max(nearest_distance(sigma, pencil)))
                for sigma in (rnd.data["rep_A"].eigenvalues for rnd in rounds))
        r = max(max(abs(rnd.data["rep_L"].lambda0),
                    abs(rnd.data["rep_A"].lambda0)) for rnd in rounds)
        out.append(verdict("gap.pencil_image", d <= 1e-7,
                           f"sigma(A) vs pencil image of eigh(L): {d:.2e}"))
        out.append(verdict(
            "gap.zero_eigenvalue",
            r <= 1e-6 and rounds[-1].data["rep_L"].Lambda0_num > 0
            and np.sort(mu)[1] > 0,
            f"|lambda0| = {r:.2e}, Lambda0 = "
            f"{rounds[-1].data['rep_L'].Lambda0_num:.6f} "
            f"(own {np.sort(mu)[1]:.6f})"))

        D = rounds[-1].data
        counts, resid = [], 0.0
        for H in H_SET:
            lam = D["reports"][H].eigenvalues
            counts.append(int(np.sum((np.abs(lam.real) < delta)
                                     & (np.abs(lam.imag) < delta))))
            pair = D["pairs"][H]
            M = np.asarray(st["Ac"][H].matrix)
            res = weighted_norm(g, M @ pair.right - pair.lambda0 * pair.right)
            resid = max(resid, res / weighted_norm(g, pair.right))
        out.append(verdict("gap.one_eigenvalue_in_contour",
                           all(c == 1 for c in counts),
                           f"counts {counts} inside |Re|,|Im| < {delta:.4f}"))
        out.append(verdict("gap.null_pair_residual", resid <= 1e-8,
                           f"max ||A_c r - lambda0 r||_W / ||r||_W = "
                           f"{resid:.2e}"))

        rest = spectra.relative_bound_fit(
            st["A"], linops.build_Bc(st["static"], st["static"]),
            seed=RELATIVE_BOUND_SEED)
        bs = [D["fits"][H].b for H in H_SET]
        out.append(verdict("gap.relative_bound_constants",
                           rest.a == 0.0 and rest.b == 0.0 and max(bs) < 1,
                           f"c = 0 gives ({rest.a}, {rest.b}); "
                           f"max b = {max(bs):.2e}"))
        failed = [c.name for rnd in rounds for c in rnd.data["checks"]
                  if not c.passed]
        out.append(verdict("gap.region_checks", not failed,
                           "all passed" if not failed
                           else "failed: " + ", ".join(failed)))
        fits = D["fits"]
        order = sorted(fits, reverse=True)
        out.append({"name": "gap.monotonicity", "ok": None,
                    "detail": f"counted in failed, not in correct: "
                    f"monotone {D['monotone']}; a: "
                    + ", ".join(f"{fits[H].a:.3e}" for H in order)
                    + "; b: " + ", ".join(f"{fits[H].b:.3e}" for H in order)})
        return out


class Mobility:
    """Criterion 06 and ``neelwall mobility``: the six fields at three
    dampings, reusing one static wall."""

    name = "mobility"
    grid = Grid(40.0, 256)

    def inputs(self, seed):
        rng = seeded(seed)
        # scale the criterion-06 fields by a factor in [0.97, 1): the
        # continuation still takes one step per 1e-3 of field
        return {"field_scale": 0.97 + 0.03 * rng.random()}

    def setup(self, inp):
        g = self.grid
        static = profiles.solve_static(g, tol=static_tol(g))
        fields = [inp["field_scale"] * H for H in MOBILITY_FIELDS]
        return {"static": static, "fields": fields}

    def round(self, st):
        fits = {nu: profiles.mobility(self.grid, nu, st["fields"],
                                      static=st["static"])
                for nu in MOBILITY_NUS}
        solved = sum(len(f.speeds) for f in fits.values())
        failed = sum(len(f.failures) for f in fits.values())
        return Round(work=solved, attempted=solved + failed, failed=failed,
                     data={"fits": fits})

    def check(self, st, rounds):
        g = self.grid
        out = []
        local = profiles.solve_static(g, tol=1e-8, mode="local")
        theta = local.reconstruct()
        sup = float(np.max(np.abs(theta - np.arcsin(np.tanh(g.x)))))
        slope = wall_slope(local)
        e_own = 0.5 * g.dx * (np.sum(slope**2) + np.sum(np.cos(theta) ** 2))
        out.append(verdict("mobility.local_oracle",
                           sup <= 1e-6 and abs(e_own - 2.0) <= 1e-8,
                           f"sup |theta - arcsin tanh x| = {sup:.2e}, "
                           f"|E - 2| = {abs(e_own - 2.0):.2e}"))

        M = 0.5 * g.dx * float(np.sum(wall_slope(st["static"]) ** 2))
        sym, slope_dev, failures = 0.0, 0.0, 0
        for rnd in rounds:
            for nu, fit in rnd.data["fits"].items():
                failures += len(fit.failures)
                sp = fit.speeds
                for H in (H for H in sp if H > 0 and -H in sp):
                    sym = max(sym, abs(sp[H] + sp[-H]) / abs(sp[H]))
                Hs = np.array(sorted(sp))
                cs = np.array([sp[H] for H in Hs])
                beta = float(np.sum(cs * Hs) / np.sum(Hs**2))
                slope_dev = max(slope_dev, abs(beta * M * nu - 1.0))
        out.append(verdict("mobility.reflection", sym <= 1e-3,
                           f"max |c(H) + c(-H)| / |c(H)| = {sym:.2e}"))
        out.append(verdict("mobility.slope", slope_dev <= 0.05,
                           f"max |beta M nu - 1| = {slope_dev:.2e}, "
                           f"M = {M:.6f}"))
        out.append(verdict("mobility.no_failures", failures == 0,
                           f"{failures} failed traveling solves"))
        return out


class _Stopwatch:
    """Total CPU time spent in one function while installed; rebinding the
    module attribute catches the calls made from inside the module."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.seconds = 0.0

    def __enter__(self):
        inner = getattr(self.module, self.attr)

        def timed(*args, **kwargs):
            t = time.process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.process_time() - t

        self._inner = inner
        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._inner)


class Orbital:
    """Criteria 11 and 12 and ``neelwall orbital``: orbital experiments at
    H in {0, 1e-3} x amplitude in {1e-4, 0.05}, then the dissipation pair
    of integrate runs at dt and dt/2.  Frames are recorded every step."""

    name = "orbital"
    grid = Grid(40.0, 512)
    dt = 0.04
    t_end = 20.0
    pair_dt = (0.02, 0.01)
    pair_t_end = 10.0

    def inputs(self, seed):
        rng = seeded(seed)
        return {"amplitude_scale": 0.98 + 0.04 * rng.random()}

    def setup(self, inp):
        g = self.grid
        static = profiles.solve_static(g, tol=static_tol(g))
        moving = profiles.solve_traveling(g, 1e-3, NU, tol=1e-10, init=static)
        amps = tuple(inp["amplitude_scale"] * a for a in (1e-4, 0.05))
        return {"static": static, "moving": moving, "amps": amps}

    def round(self, st):
        g = self.grid
        verdicts = []
        steps = 0
        with _Stopwatch(dynamics, "integrate") as watch:
            for H, ref in ((0.0, st["static"]), (1e-3, st["moving"])):
                for amp in st["amps"]:
                    v = dynamics.orbital_experiment(
                        g, H, dynamics.Perturbation("sech", amp), NU, ref,
                        dt=self.dt, t_end=self.t_end)
                    verdicts.append((H, amp, v))
                    runs = 1 if H == 0.0 else 2   # plus the lab-frame run
                    steps += runs * int(round(self.t_end / self.dt))
            defects = []
            for dt in self.pair_dt:
                config = dynamics.SimConfig(
                    dt=dt, t_end=self.pair_t_end, nu=NU, H=0.0,
                    perturbation=dynamics.Perturbation("sech", st["amps"][1]),
                    max_frames=128)
                trace = dynamics.integrate(g, config, st["static"])
                defects.append(float(np.max(np.abs(trace.defect))))
                steps += int(round(self.pair_t_end / dt))
        failed = sum(1 for _, _, v in verdicts if not v.stable)
        return Round(work=steps, attempted=len(verdicts) + len(self.pair_dt),
                     failed=failed, busy_s=watch.seconds,
                     data={"verdicts": verdicts, "defects": defects})

    def check(self, st, rounds):
        out = []
        Lm = np.asarray(linops.build_L(st["static"]).matrix)
        Lambda0 = float(np.sort(np.linalg.eigvalsh(0.5 * (Lm + Lm.T)))[1])
        out.append(verdict("orbital.pencil_rate_applies",
                           Lambda0 > NU**2 / 4.0,
                           f"Lambda0 = {Lambda0:.6f} > nu^2/4"))
        rate_dev, expo_dev, ratio = 0.0, 0.0, np.inf
        speed_rest, speed_dev = 0.0, 0.0
        for rnd in rounds:
            for H, amp, v in rnd.data["verdicts"]:
                omega = v.fit.omega if v.fit is not None else np.nan
                rate_dev = max(rate_dev, abs(omega / (NU / 2.0) - 1.0))
                if H == 0.0:
                    speed_rest = max(speed_rest, abs(v.wall_speed))
                else:
                    speed_dev = max(speed_dev,
                                    abs(v.wall_speed / v.c_reference - 1.0))
                expo_dev = max(expo_dev, abs(v.a3_exponent - 2.0))
            d = rnd.data["defects"]
            ratio = min(ratio, d[0] / d[1])
        out.append(verdict("orbital.decay_rate", rate_dev <= 0.10,
                           f"max |omega / (nu/2) - 1| = {rate_dev:.3e}"))
        out.append(verdict("orbital.wall_speed",
                           speed_dev <= 0.02 and speed_rest < 1e-4,
                           f"max |speed / c - 1| = {speed_dev:.3e}, "
                           f"max |speed| at H = 0: {speed_rest:.2e}"))
        out.append(verdict("orbital.remainder_exponent", expo_dev <= 0.1,
                           f"max |exponent - 2| = {expo_dev:.3e}"))
        out.append(verdict("orbital.dissipation", ratio >= 3.5,
                           f"min defect ratio dt -> dt/2 = {ratio:.2f}"))
        return out


WORKLOADS = {w.name: w for w in (Sweep(), Gap(), Mobility(), Orbital())}
