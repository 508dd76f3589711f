"""Spectra, resolvent norms and sweeps, relative-bound constants, inequality trials.

Oracles:
  * Quadratic pencil: for c = 0 the block spectrum is the image of the
    scalar spectrum under lam^2 + nu lam + Lam = 0 (exact map).
  * Dense eigvals (dgeev): the Hamiltonian eigen-report of A_c.
  * Dense SVD: resolvent norms agree with svdvals of
    W^{1/2}(A - lam)W^{-1/2}.
  * Asymptotics: |lam| ||(A - lam)^{-1}|| -> 1 as lam -> +infinity.
  * Dense eigh: the relative-bound constant a^2 is the top eigenvalue of
    the plainly formed B~^T B~ - b^2 A~^T A~, attained by its eigenvector;
    the numerical abscissa is the top eigenvalue of the symmetric part of
    the dense weighted A~.
  * scipy's k-d tree: the brute-force nearest-point queries on spectra.
  * Lanczos on S*S with an eigvalsh at every step: the estimates of
    _gk_batch bit for bit; the same with full reorthogonalization, which
    the three-term recurrence of _gk_batch replaces, to GK_TOL.
  * Dense SVD on every distinct lam of a sweep: no estimate exceeds the
    exact norm by more than float32 rounding (Paige's bound).
  * Dense L: the trials' products with L through Linearization.matvec.
  * The sweep's sample points built one by one: its array-built grid.
  * scipy's solve_triangular in double: the float32 products with C^{-1}.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from neelwall import spectra
from neelwall.grid import Grid, multiplier_matrix
from neelwall.linops import (DiscretizedOperator, ModalStructureError,
                             weighted_state_norm)
from neelwall.profiles import solve_static
from neelwall.spectra import (
    GK_MAX_ITER, GK_MIN_ITER, GK_TOL, ResolventCalculator,
    SpectrumDistanceError, _gk_batch, _triangular_product, eig_report,
    gamma_square, in_region_G,
    match_eigenvalues, numerical_abscissa, pencil_crosscheck,
    pencil_eigenvalues, pencil_gap, relative_bound_fit, res_inequality_trials,
    resolvent_sweep,
)
from neelwall.linops import build_Bc, build_block
from neelwall.profiles import solve_traveling
from oracles import (gk_batch_reference, gk_batch_reorth_reference,
                     nearest_kdtree, sweep_points_reference, weighted_matrix)


# ---------------------------------------------------------------------------
# eigen-reports and the pencil oracle


@pytest.mark.parametrize("name", ["L_op256", "Lc_op256"])
def test_eig_report_static_scalar(name, request):
    # both scalar kinds report the scalar gap above the translation mode;
    # L_c of the moving wall is not symmetric and stays on dgeev
    op = request.getfixturevalue(name)
    rep = eig_report(op)
    assert rep.meta["solver"] == ("eigh" if op.kind == "L" else "dgeev")
    assert abs(rep.lambda0) <= 1e-5           # translation mode
    assert rep.Lambda0_num > 0.3              # scalar gap
    assert rep.gap > 0.3
    assert rep.multiplicity0 == 1
    # sorted by descending real part
    assert np.all(np.diff(rep.eigenvalues.real) <= 1e-12)
    ref = np.sort(sla.eigvals(op.matrix).real)
    assert rep.Lambda0_num == pytest.approx(ref[1], abs=1e-10)
    assert rep.gap == pytest.approx(ref[1], abs=1e-10)


def test_eig_report_block_gap(A_op256):
    rep = eig_report(A_op256)
    assert abs(rep.lambda0) <= 1e-5
    assert rep.Lambda0_num is None
    # damped system: everything else strictly in the left half-plane,
    # gap = min(nu/2, ...) for nu = 1 and Lambda0 ~ 0.44
    assert 0.3 <= rep.gap <= 0.5 + 1e-9


def test_pencil_crosscheck_static(L_op256, A_op256):
    dist = pencil_crosscheck(eig_report(L_op256), eig_report(A_op256), nu=1.0)
    assert dist <= 1e-7


def _hausdorff(a, b):
    d = np.abs(a[:, None] - b[None, :])
    return max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0)))


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_hamiltonian_report_matches_dgeev(moving_blocks256, nu):
    for H in (5e-4, 1e-3, 2e-3):
        op = moving_blocks256[nu, H]
        rep = eig_report(op)
        assert rep.meta["solver"] == "hamiltonian"
        assert 1 <= rep.meta["newton_steps"] <= 4
        assert rep.meta["structure_residual"] <= 1e-12
        assert rep.meta["pair"] == pytest.approx(
            (rep.lambda0.real, -nu - rep.lambda0.real), abs=1e-12)
        ref = sla.eigvals(op.matrix)
        assert _hausdorff(rep.eigenvalues, ref) <= 1e-10
        pairs, _, unmatched = match_eigenvalues(ref, rep.eigenvalues)
        assert len(pairs) == len(ref) and not unmatched
        i0 = int(np.argmin(np.abs(ref)))
        assert abs(rep.lambda0 - ref[i0]) <= 1e-12
        assert rep.gap == pytest.approx(-np.max(np.delete(ref, i0).real),
                                        abs=1e-10)
        assert rep.multiplicity0 == np.sum(np.abs(ref - ref[i0]) < 1e-6)
        ref_rep = spectra.SpectrumReport(ref, ref[i0], 0.0, None, 1, "Ac")
        for delta in (0.2 * nu, 0.6 * nu, 1.2 * nu):
            assert (rep.count_inside_square(delta)
                    == ref_rep.count_inside_square(delta))


def test_eig_report_routing(grid256, static256, L_op256, A_op256, Ac_op256,
                            monkeypatch):
    # K~ = sym(L_c) - nu^2/4 has many negative eigenvalues once
    # nu^2/4 > Lambda0: that block goes to dgeev, unchanged
    op = build_block(solve_traveling(grid256, 1e-3, 2.5, tol=5e-8,
                                     init=static256))
    rep = eig_report(op)
    assert rep.meta["solver"] == "dgeev"
    assert "newton_steps" not in rep.meta
    assert np.array_equal(np.sort_complex(rep.eigenvalues),
                          np.sort_complex(sla.eigvals(op.matrix)))
    assert eig_report(L_op256).meta["solver"] == "eigh"
    # the static A keeps its independent dense eigvals (criterion 05's
    # pencil check compares it with eigh(L)); A_c does not call it
    calls = []
    inner = sla.eigvals

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sla, "eigvals", counted)
    assert eig_report(A_op256).meta["solver"] == "dgeev"
    assert calls == [A_op256.matrix.shape]
    assert eig_report(Ac_op256).meta["solver"] == "hamiltonian"
    assert len(calls) == 1


def test_hamiltonian_report_rejects_bad_structure(Ac_op256):
    n = Ac_op256.grid.n

    def variant(i, j, dv):
        M = np.array(Ac_op256.matrix)
        M[i, j] += dv
        return DiscretizedOperator("Ac", M[n:], Ac_op256.grid, Ac_op256.nu,
                                   Ac_op256.c, Ac_op256.H)

    with pytest.raises(ModalStructureError, match="E skew"):
        eig_report(variant(n, n + 1, 1e-3))      # drift block not skew
    with pytest.raises(ModalStructureError, match="E skew"):
        eig_report(variant(n + 1, 0, 1e-3))      # L_c - L_c^T != -nu E


def test_pencil_eigenvalues_closed_form():
    lam = pencil_eigenvalues(np.array([0.0]), nu=1.0)
    assert set(np.round(lam, 12)) == {0.0, -1.0}
    # underdamped mode: complex pair on Re = -nu/2
    lam = pencil_eigenvalues(np.array([5.0]), nu=2.0)
    assert np.allclose(lam.real, -1.0)
    assert np.allclose(sorted(lam.imag), [-2.0, 2.0])


def test_pencil_gap_formula():
    assert pencil_gap(1.0, 10.0) == pytest.approx(0.5)    # underdamped: nu/2
    assert pencil_gap(4.0, 1.0) == pytest.approx(2.0 - np.sqrt(3.0))


def test_match_eigenvalues_identity_and_drift():
    base = np.array([0.0 + 0j, -1.0 + 2j, -1.0 - 2j, -3.0 + 0j])
    pairs, drifts, unmatched = match_eigenvalues(base, base + 1e-3)
    assert len(pairs) == len(base)
    assert not unmatched
    assert np.allclose(drifts, 1e-3)


def _random_spectrum(rng, m):
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.concatenate([z, np.conj(z[:m // 4])])   # some conjugate pairs


def _assert_ulp(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= np.spacing(np.maximum(np.abs(got),
                                                             np.abs(ref))))


@pytest.mark.parametrize("source", ["random", "A256"])
def test_nearest_matches_kdtree(source, monkeypatch, L_op256, A_op256,
                                Ac_op256):
    rng = np.random.default_rng(11)
    if source == "random":
        base, pert = _random_spectrum(rng, 600), _random_spectrum(rng, 700)
        L_vals = rng.uniform(0.0, 50.0, 300).astype(complex)
    else:
        base = eig_report(A_op256).eigenvalues
        pert = eig_report(Ac_op256).eigenvalues
        L_vals = eig_report(L_op256).eigenvalues
    calc = ResolventCalculator(A_op256)
    lams = np.concatenate([base[::7] + 1e-3, rng.uniform(-1, 1, 50)
                           + 1j * rng.uniform(-5, 5, 50)])

    def results():
        return (calc.spectrum_distance(lams),
                pencil_crosscheck(spectra.SpectrumReport(L_vals, 0j, 0.0, None,
                                                         1, "L"),
                                  spectra.SpectrumReport(base, 0j, 0.0, None,
                                                         1, "A"), 1.0),
                match_eigenvalues(base, pert),
                match_eigenvalues(base, pert[::3]))

    got = results()
    monkeypatch.setattr(spectra, "_nearest", nearest_kdtree)
    ref = results()
    _assert_ulp(got[0], ref[0])
    _assert_ulp(got[1], ref[1])
    for (pairs, drifts, unmatched), (rpairs, rdrifts, runmatched) in zip(
            got[2:], ref[2:]):
        assert pairs == rpairs and unmatched == runmatched
        _assert_ulp(drifts, rdrifts)


def test_nearest_chunks_and_k(monkeypatch):
    # chunk boundaries and k > 1 give the k-d tree's neighbour sets
    rng = np.random.default_rng(5)
    pts, targets = _random_spectrum(rng, 257), _random_spectrum(rng, 301)
    monkeypatch.setattr(spectra, "_NEAREST_CHUNK", 1000)
    d, i = spectra._nearest(pts, targets, k=8)
    rd, ri = nearest_kdtree(pts, targets, k=8)
    order, rorder = np.argsort(d, axis=1), np.argsort(rd, axis=1)
    assert np.array_equal(np.take_along_axis(i, order, 1),
                          np.take_along_axis(ri, rorder, 1))
    _assert_ulp(np.take_along_axis(d, order, 1),
                np.take_along_axis(rd, rorder, 1))


def test_numerical_abscissa_bounds_spectrum(A_op256):
    w = numerical_abscissa(A_op256)
    rep = eig_report(A_op256)
    assert w >= np.max(rep.eigenvalues.real) - 1e-10


@pytest.fixture(scope="module")
def A_op1024():
    g = Grid(40.0, 1024)
    return build_block(solve_static(g, tol=max(1e-8, 1e-6 * g.dx**2)),
                       with_c=False)


@pytest.mark.parametrize("n", [256, 1024])
def test_numerical_abscissa_matches_dense(n, request):
    # closed form from the modal factor against eigvalsh of the symmetric
    # part of the dense weighted matrix
    op = request.getfixturevalue(f"A_op{n}")
    M = weighted_matrix(op)
    ref = sla.eigvalsh(0.5 * (M + M.T), subset_by_index=[2 * n - 1, 2 * n - 1])
    assert numerical_abscissa(op) == pytest.approx(ref[0], rel=1e-12)


def test_sweep_forms_one_modal_factor(A_op256, monkeypatch):
    # the sweep takes its numerical abscissa from the calculator's factor:
    # one Cholesky factor of K = Q^T (1 + k^2) Q
    calls = []
    cholesky = sla.cholesky

    def counted(*args, **kwargs):
        calls.append(args)
        return cholesky(*args, **kwargs)
    monkeypatch.setattr(sla, "cholesky", counted)
    sweep = resolvent_sweep(A_op256, 0.2, n_radial=2, n_angular=2, n_gamma=4)
    assert len(calls) == 1
    w = numerical_abscissa(A_op256)
    assert sweep.w == w
    assert ResolventCalculator(A_op256).w == w


# ---------------------------------------------------------------------------
# resolvent norms


def test_resolvent_far_field_asymptotics(A_op256):
    lam = 1e3 * A_op256.nu
    norm_inv = ResolventCalculator(A_op256).norm_inv(lam)
    assert norm_inv * lam == pytest.approx(1.0, rel=0.05)


def test_resolvent_rejects_spectrum_points(A_op256):
    calc = ResolventCalculator(A_op256)
    lam0 = calc.spectrum[int(np.argmin(np.abs(calc.spectrum)))]
    with pytest.raises(ValueError):
        calc.norm_inv(complex(lam0))


# ---------------------------------------------------------------------------
# the modal factorization of the static A

DELTA = 0.2
# one point per sweep region: G1 (near-real beyond M1), G2 (|Im| > delta),
# G3 (the rest), and the Gamma contour
REGION_POINTS = (12.0 + 0.05j, -0.1 + 1.5j, 0.4 + 0.05j, DELTA * (1 + 0.3j))


@pytest.fixture(scope="module", params=[128, 256])
def static_wall(request, static256):
    if request.param == 256:
        return static256
    # the seam layer keeps the residual above 4.7e-6 at n = 128
    return solve_static(Grid(40.0, 128), tol=1e-5)


def _dense_norms(op, lam):
    """(||(A - lam)^{-1}||_W, ||A (A - lam)^{-1}||_W) by dense SVD."""
    M = weighted_matrix(op)
    shifted = M - lam * np.eye(M.shape[0])
    inv = np.linalg.inv(shifted)
    return (1.0 / sla.svdvals(shifted)[-1],
            sla.svdvals(np.eye(M.shape[0]) + lam * inv)[0])


def test_modal_norms_match_dense_svd(static_wall):
    op = build_block(static_wall, with_c=False)
    calc = ResolventCalculator(op)
    # the region points and one next to an eigenvalue of modulus ~1
    sigma = calc.spectrum[np.argmin(np.abs(np.abs(calc.spectrum) - 1.0))]
    lams = np.array([*REGION_POINTS, sigma + 2e-3])
    ninv = calc.norm_inv(lams)
    ncomp = calc.norm_composed(lams)
    for lam, got_inv, got_comp in zip(lams, ninv, ncomp):
        exact_inv, exact_comp = _dense_norms(op, lam)
        assert got_inv == pytest.approx(exact_inv, rel=1e-2)
        assert got_comp == pytest.approx(exact_comp, rel=1e-2)
    # one-lam calls run the same routine on a block of one
    assert calc.norm_inv(complex(lams[0])) == pytest.approx(ninv[0], rel=1e-2)


def test_sweep_composed_norm_at_low_damping(static256):
    # at nu = 0.2 the spectrum lies 0.06 left of the sweep, so |lam| ninv
    # reaches ~140; there too the sweep reports the Lanczos estimate of
    # ||A (A - lam)^{-1}||_W, within the Paige band of dense SVD (at nu = 1
    # no sample of this sweep has |lam| ninv >= 50)
    op = build_block(static256, with_c=False, nu=0.2)
    calc = ResolventCalculator(op)
    sweep = resolvent_sweep(op, 0.04, n_radial=6, n_angular=6, n_gamma=8,
                            calc=calc)
    # the sweep's composed norms are the calculator's on its distinct lam's
    distinct = _distinct_samples(sweep)
    assert np.array_equal([s.norm_composed for s in distinct],
                          calc.norm_composed(np.array([s.lam for s in distinct])))
    near = [s for s in distinct if abs(s.lam) * s.norm_inv >= 50.0]
    assert near
    for s in near:
        ratio = s.norm_composed / _dense_norms(op, s.lam)[1]
        assert 1.0 - 1e-2 <= ratio <= 1.0 + 5e-5


@pytest.fixture(scope="module")
def calc512(static512):
    return ResolventCalculator(build_block(static512, with_c=False))


def test_lanczos_norms_match_dense_svd_n512(calc512):
    # one lam next to an eigenvalue of modulus ~1 and one far on the
    # near-real G1 line (M1 = 1, |lam| <= 10^3 at nu = 1)
    op = calc512.op
    sigma = calc512.spectrum[
        np.argmin(np.abs(np.abs(calc512.spectrum) - 1.0))]
    lams = np.array([sigma + 2e-3, 300.0 + 0.05j])
    ninv = calc512.norm_inv(lams)
    ncomp = calc512.norm_composed(lams)
    for lam, got_inv, got_comp in zip(lams, ninv, ncomp):
        exact_inv, exact_comp = _dense_norms(op, lam)
        assert got_inv == pytest.approx(exact_inv, rel=1e-2)
        assert got_comp == pytest.approx(exact_comp, rel=1e-2)


def test_inverse_factor_product_matches_solve(calc512):
    # C^{-1} X by one float32 strmm with the stored inverse against a
    # double-precision triangular solve with C formed here from scratch
    g = calc512.op.grid
    _, Q = calc512.op.modes
    K = Q.T @ multiplier_matrix(g, g.h1_weight) @ Q
    C = sla.cholesky(0.5 * (K + K.T))
    rng = np.random.default_rng(5)
    X = (rng.standard_normal((36, g.n))
         + 1j * rng.standard_normal((36, g.n))).astype(np.complex64)
    for trans in (False, True):
        got = _triangular_product(calc512._Cinv, X, trans=trans)
        exact = sla.solve_triangular(C, X.T.astype(np.complex128),
                                     trans="T" if trans else "N").T
        assert (np.linalg.norm(got - exact)
                <= 1e-5 * np.linalg.norm(exact))


def _gk_both(mv, rmv, m, size, seed, dtype=np.complex128):
    """Both loops' estimates; they must also run the same Krylov steps and
    report the same step counts."""
    steps = ([], [])

    def recorded(log):
        def matvec(X, act):
            log.append(act.tolist())
            return mv(X, act)
        return matvec

    args = (m, size, 1e-3, 80, seed)
    got, got_steps = _gk_batch(recorded(steps[0]), rmv, *args, dtype=dtype)
    ref, ref_steps = gk_batch_reference(recorded(steps[1]), rmv, *args,
                                        dtype=dtype)
    assert steps[0] == steps[1]
    assert got_steps.tolist() == ref_steps.tolist()
    return got, ref


def _region_and_near_points(calc):
    """REGION_POINTS and a point 1e-5 off an eigenvalue (norm ~1.6e5)."""
    near = calc.spectrum[np.argmin(np.abs(calc.spectrum + 0.5))] + 1e-5
    return np.array([*REGION_POINTS, near])


def test_gk_batch_matches_reference_loop(A_op256):
    # the svd skipped at steps whose estimate is never read changes no bit;
    # the near point outlasts the region points in the norm_inv run, so
    # that block also shrinks mid-run
    modal = ResolventCalculator(A_op256)
    lams = _region_and_near_points(modal)
    size = modal.spectrum.shape[0]
    for composed, seed in ((False, 12345), (True, 54321)):
        mv, rmv = modal._modal_ops(lams, composed)
        got, ref = _gk_both(mv, rmv, len(lams), size, seed, np.complex64)
        assert got.tobytes() == ref.tobytes()


def test_gk_batch_matches_reorthogonalized_loop(A_op256):
    # the three-term recurrence against the full reorthogonalization it
    # replaces: the top Ritz value needs none (Paige; Parlett, ch. 13)
    modal = ResolventCalculator(A_op256)
    lams = _region_and_near_points(modal)
    args = (len(lams), modal.spectrum.shape[0], GK_TOL, GK_MAX_ITER)
    for composed, seed in ((False, 12345), (True, 54321)):
        mv, rmv = modal._modal_ops(lams, composed)
        got, _ = _gk_batch(mv, rmv, *args, seed, dtype=np.complex64)
        ref, _ = gk_batch_reorth_reference(mv, rmv, *args, seed,
                                           dtype=np.complex64)
        np.testing.assert_allclose(got, ref, rtol=GK_TOL)


def test_gk_batch_breakdown_matches_reference():
    # Diagonal operators of size 6 break down (b ~ 0) by step 6, before
    # GK_MIN_ITER, so only the breakdown test stops them; operator 0 is
    # zero (alpha = 0 at the first step), a dead row that keeps estimate 0.
    size = 6
    diags = np.random.default_rng(2).uniform(0.5, 3.0, (5, size))
    diags[0] = 0.0

    def mv(X, act):
        return X * diags[act]

    assert size < GK_MIN_ITER
    got, ref = _gk_both(mv, mv, len(diags), size, 7)
    assert got.tobytes() == ref.tobytes()
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], diags[1:].max(axis=1), rtol=1e-12)


def test_gk_batch_invariant_krylov_space_stops_exactly(monkeypatch):
    # S = 2 I leaves span{v_0} invariant and S = diag(1, 3, 1, 3, ...)
    # leaves span{v_0, S*S v_0} invariant, so Lanczos breaks down after one
    # and after two steps, long before GK_MIN_ITER, and sqrt(lambda_max(T))
    # is ||S||_2 exactly.  Only rows that may meet the breakdown test reach
    # the eigensolve: row 0 at step 0, row 1 at step 1 (its b_0 is not
    # small).
    size = 8
    diags = np.array([np.full(size, 2.0), np.tile([1.0, 3.0], size // 2)])

    def mv(X, act):
        return X * diags[act]

    solved = []
    top = spectra._top_eigenvalue

    def recorded(alphas, betas):
        solved.append(alphas.shape)
        return top(alphas, betas)
    monkeypatch.setattr(spectra, "_top_eigenvalue", recorded)
    est, steps = _gk_batch(mv, mv, 2, size, 1e-3, 80, 7)
    ref, ref_steps = gk_batch_reference(mv, mv, 2, size, 1e-3, 80, 7)
    assert est.tobytes() == ref.tobytes()
    assert steps.tolist() == ref_steps.tolist() == [1, 2]
    assert solved == [(1, 1), (1, 2)]
    np.testing.assert_allclose(est, [2.0, 3.0], rtol=1e-14)


def _distinct_samples(sweep):
    """One sample per (Re lam, |Im lam|) key, exact as the sweep keys it."""
    first = {}
    for s in sweep.samples:
        first.setdefault((s.lam.real, abs(s.lam.imag)), s)
    return list(first.values())


def test_sweep_norms_within_paige_bound(A_op256):
    # without reorthogonalization the Ritz values of Lanczos still lie in
    # the spectrum up to rounding (Paige), so on every distinct lam of a
    # 20 x 20 sweep both estimates exceed dense SVD by float32 rounding at
    # most.  The dense norms come from the complex Schur form T of the
    # weighted matrix (a unitary similarity): (T - lam)^{-1} and
    # I + lam (T - lam)^{-1}.
    sweep = resolvent_sweep(A_op256, DELTA, n_radial=20, n_angular=20)
    T = sla.schur(weighted_matrix(A_op256), output="complex")[0]
    eye = np.eye(T.shape[0])
    ratios = {"inv": [], "composed": []}
    for s in _distinct_samples(sweep):
        R, info = sla.lapack.ztrtri(T - s.lam * eye)
        assert info == 0
        ratios["inv"].append(s.norm_inv / sla.svdvals(R)[0])
        R *= s.lam
        R += eye
        ratios["composed"].append(s.norm_composed / sla.svdvals(R)[0])
    assert len(ratios["composed"]) >= 273
    for kind, r in ratios.items():
        assert np.max(r) <= 1.0 + 5e-5, kind
        assert np.min(r) >= 1.0 - 1e-2, kind


@pytest.mark.parametrize("delta", [0.198, 0.2, 0.202])
def test_sweep_computes_each_mirror_pair_once(A_op256, delta, monkeypatch):
    # 20 x 20 polar points, 20 x 3 on the G1 line and 64 on Gamma fall in
    # 200 + 40 + 33 conjugate classes: mirror points are built as exact
    # conjugates, so no rounding of the keys decides the count
    sizes = []

    def counted(matvec, rmatvec, m, *args, **kwargs):
        sizes.append(m)
        return np.ones(m), np.ones(m, dtype=int)
    monkeypatch.setattr(spectra, "_gk_batch", counted)
    sweep = resolvent_sweep(A_op256, delta, n_radial=20, n_angular=20)
    lams = np.array([s.lam for s in sweep.samples])
    assert sizes[0] == 273
    assert set(lams.tolist()) == set(np.conj(lams).tolist())


def test_sweep_stores_no_krylov_basis(A_op256, A_op1024, monkeypatch):
    # one _gk_batch call per norm kind covers the n = 256 sweep
    calls = []
    gk = spectra._gk_batch

    def counted(*args, **kwargs):
        calls.append(args[2])
        return gk(*args, **kwargs)
    monkeypatch.setattr(spectra, "_gk_batch", counted)
    resolvent_sweep(A_op256, DELTA, n_radial=20, n_angular=20)
    assert len(calls) == 2 and calls[0] >= calls[1] >= 250
    # the working set of 200 lams at n = 1024, one block, stays within the
    # budget _block_size states; a loop that stores its Krylov basis does not
    calc = ResolventCalculator(A_op1024)
    lams = -0.1 + np.linspace(0.0, 3.0, 200) + 1j * np.linspace(-3.0, 3.0, 200)
    assert calc._block_size() >= len(lams)
    budget = len(lams) * spectra._BLOCK_VECTORS * calc.spectrum.shape[0] * 8
    peaks = []
    for loop in (gk, gk_batch_reorth_reference):
        monkeypatch.setattr(spectra, "_gk_batch", loop)
        tracemalloc.start()
        try:
            calc.norm_inv(lams)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= budget < peaks[1]


def test_modal_conjugate_points_agree(A_op256):
    calc = ResolventCalculator(A_op256)
    lams = np.array(REGION_POINTS)
    np.testing.assert_allclose(calc.norm_inv(lams),
                               calc.norm_inv(np.conj(lams)), rtol=1e-2)
    np.testing.assert_allclose(calc.norm_composed(lams),
                               calc.norm_composed(np.conj(lams)), rtol=1e-2)


@pytest.fixture
def no_lanczos(monkeypatch):
    """Every Lanczos run of the resolvent calculator fails the test."""
    def refused(*args, **kwargs):
        raise AssertionError("Lanczos step taken")
    monkeypatch.setattr(spectra, "_gk_batch", refused)


def test_sweep_refuses_eigenvalue_in_G(no_lanczos):
    # A diagonal L with one negative eigenvalue puts an eigenvalue of A
    # exactly on the first point of the sweep's near-real G1 line, and none
    # inside the contour square: delta separates nothing, and the sweep
    # refuses before it samples
    grid, nu, M1 = Grid(40.0, 64), 1.0, 2.0
    n = grid.n
    r0 = M1 + DELTA
    mu = 1.0 + grid.k**2
    mu[0] = -(r0**2 + nu * r0)
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = -np.diag(mu)
    M[n:, n:] = -nu * np.eye(n)
    op = DiscretizedOperator("A", M[n:], grid, nu, 0.0, 0.0)
    calc = ResolventCalculator(op)
    with pytest.raises(SpectrumDistanceError):
        calc.norm_inv(r0)
    with pytest.raises(ValueError, match="0 eigenvalues inside .* 1 in the "
                                         "closed region G"):
        resolvent_sweep(op, DELTA, n_radial=4, n_angular=4, n_gamma=8,
                        w=1.0, calc=calc)


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
def test_sweep_refuses_nonpositive_or_nonfinite_delta(A_op256, delta,
                                                      no_lanczos):
    with pytest.raises(ValueError, match="finite and positive"):
        resolvent_sweep(A_op256, delta, n_radial=2, n_angular=2, n_gamma=4)


def test_sweep_refuses_delta_past_the_gap(A_op256, no_lanczos):
    # at nu = 1 the complex eigenvalues of A lie on Re lam = -1/2, inside
    # the closed G once delta >= 1/2
    calc = ResolventCalculator(A_op256)
    with pytest.raises(ValueError, match="does not separate lambda0"):
        resolvent_sweep(A_op256, 0.6, n_radial=2, n_angular=2, n_gamma=4,
                        calc=calc)
    on_line = np.sum(np.abs(calc.spectrum.real + 0.5) < 1e-9)
    assert on_line > 0


def test_modal_path_rejects_bad_structure(A_op256, Ac_op256, monkeypatch):
    n = A_op256.grid.n

    def variant(i, j, dv):
        M = np.array(A_op256.matrix)
        M[i, j] += dv
        return DiscretizedOperator("A", M[n:], A_op256.grid, A_op256.nu,
                                   0.0, 0.0)

    with pytest.raises(ModalStructureError, match="not symmetric"):
        ResolventCalculator(variant(n + 1, 0, 1e-3))         # L[1, 0] only
    with pytest.raises(ModalStructureError, match="is not"):
        ResolventCalculator(variant(n, n, 1e-3))             # -nu I
    # a moving A_c (drift 2c d_z in the damping block) has no resolvent here,
    # and the sweep refuses it before its numerical-abscissa eigensolve
    assert Ac_op256.c != 0.0
    with pytest.raises(ModalStructureError, match="is not"):
        ResolventCalculator(Ac_op256)
    abscissae = []
    monkeypatch.setattr(spectra, "numerical_abscissa", abscissae.append)
    with pytest.raises(ModalStructureError, match="is not"):
        resolvent_sweep(Ac_op256, 0.2, n_radial=2, n_angular=2, n_gamma=4)
    assert abscissae == []


# ---------------------------------------------------------------------------
# contour and region helpers


def test_gamma_square_geometry():
    delta, m = 0.2, 64
    pts = gamma_square(delta, m)
    assert len(pts) == m
    assert len(gamma_square(delta, 4)) == 4
    assert np.max(np.abs(pts.real)) == pytest.approx(delta)
    assert np.max(np.abs(pts.imag)) == pytest.approx(delta)
    assert np.all(np.maximum(np.abs(pts.real), np.abs(pts.imag))
                  >= delta - 1e-12)
    # the contour is its own conjugate, point for point
    for m in (4, 8, 12, 24, 64, 100):
        pts = gamma_square(0.3, m)
        assert set(pts.tolist()) == set(np.conj(pts).tolist()), m


@pytest.mark.parametrize("m", [66, 2, 0, -4])
def test_gamma_square_rejects_bad_counts(m):
    # 66 would give 64 points and 2 a fragment of the top side
    with pytest.raises(ValueError, match="multiple of 4"):
        gamma_square(0.2, m)


def test_in_region_G():
    delta = 0.2
    assert in_region_G(1.0 + 0j, delta)
    assert in_region_G(-0.1 + 0.5j, delta)
    assert not in_region_G(0.0 + 0j, delta)          # inside the square
    assert not in_region_G(-0.5 + 0j, delta)         # left of the strip


def test_sweep_points_match_pointwise_reference(A_op256):
    # the array-built grid, line and contour give the point-by-point
    # reference's points bit for bit, in its order, with its regions
    sweep = resolvent_sweep(A_op256, DELTA, n_radial=9, n_angular=7,
                            n_gamma=8)
    lams, regions = sweep_points_reference(DELTA, sweep.M1, 1e3, 9, 7, 8)
    assert [s.lam for s in sweep.samples] == lams
    assert [s.region for s in sweep.samples] == regions


def test_resolvent_sweep_small(A_op256):
    sweep = resolvent_sweep(A_op256, 0.2, n_radial=6, n_angular=6, n_gamma=8)
    assert not sweep.flagged
    assert sweep.sup_G > 0
    assert set(sweep.sup_by_region) <= {"G1", "G2", "G3", "Gamma"}
    assert "Gamma" in sweep.sup_by_region
    assert sweep.envelope_margin <= 1.0
    regions = {s.region for s in sweep.samples}
    assert "G1" in regions                           # near-real far-field line
    for s in sweep.samples:
        assert np.isfinite(s.norm_inv) and np.isfinite(s.norm_composed)


# ---------------------------------------------------------------------------
# relative bound and inequality trials


def test_relative_bound_zero_at_rest(A_op256, static256):
    Bc = build_Bc(static256, static256)
    point = relative_bound_fit(A_op256, Bc, n_samples=50, seed=1)
    assert point.a == 0.0 and point.b == 0.0


def test_relative_bound_small_for_slow_wall(A_op256, traveling256, static256):
    Bc = build_Bc(traveling256, static256)
    point = relative_bound_fit(A_op256, Bc, n_samples=100, seed=1)
    assert 0 <= point.b < 1
    assert 0 <= point.a < 0.1


def test_relative_bound_exact_against_dense(A_op256, traveling256, static256,
                                           static512, traveling512):
    g = A_op256.grid
    n = g.n
    Bc = build_Bc(traveling256, static256)
    point = relative_bound_fit(A_op256, Bc)
    c = traveling256.c
    assert point.b == pytest.approx(abs(c) * np.sqrt(4.0 + c * c), rel=1e-14)

    # dense reference: full eigh of the Gram difference formed with plain @
    Bt, At = weighted_matrix(Bc), weighted_matrix(A_op256)
    vals, vecs = np.linalg.eigh(Bt.T @ Bt - point.b**2 * (At.T @ At))
    assert point.a**2 == pytest.approx(vals[-1], rel=1e-8)
    # the maximizing eigenvector attains the bound; raw state U = W^{-1/2} V
    V = vecs[:, -1]
    U = V.copy()
    U[:n] = np.real(np.fft.ifft(np.fft.fft(V[:n]) / np.sqrt(1.0 + g.k**2)))
    BU = weighted_state_norm(g, Bc.matrix @ U)
    AU = weighted_state_norm(g, A_op256.matrix @ U)
    NU = weighted_state_norm(g, U)
    assert BU**2 == pytest.approx(point.a**2 * NU**2 + point.b**2 * AU**2,
                                  rel=1e-8)

    # the bound holds on random states with the top 25% of modes zeroed
    rng = np.random.default_rng(0)
    cut = np.abs(g.k) <= 0.75 * np.max(np.abs(g.k))
    for _ in range(500):
        W = np.real(np.fft.ifft(cut * np.fft.fft(rng.standard_normal((2, n)))))
        U = W.reshape(-1)
        BU = weighted_state_norm(g, Bc.matrix @ U)
        bound = (point.a * weighted_state_norm(g, U)
                 + point.b * weighted_state_norm(g, A_op256.matrix @ U))
        assert BU <= bound * (1.0 + 1e-10)

    # a / |c| does not depend on the grid
    A512 = build_block(static512, with_c=False)
    fine = relative_bound_fit(A512, build_Bc(traveling512, static512))
    assert fine.a / abs(fine.c) == pytest.approx(point.a / abs(c), rel=0.01)

    # seed-free
    p0 = relative_bound_fit(A_op256, Bc, seed=0)
    p4 = relative_bound_fit(A_op256, Bc, seed=4)
    assert (p0.a, p0.b) == (p4.a, p4.b)


def test_res_inequality_trials(A_op256):
    stats = res_inequality_trials(A_op256, delta=0.2, trials=25, seed=3)
    assert stats.n_pass_a == stats.n_trials
    assert np.isfinite(stats.C1) and stats.C1 > 0
    assert np.isfinite(stats.C2) and stats.C2 > 0


def test_res_inequality_trials_match_dense_L(A_op256, monkeypatch):
    # L applied by Linearization.matvec against the assembled dense L
    n = A_op256.grid.n
    Lm = -A_op256.matrix[n:, :n]
    got = res_inequality_trials(A_op256, delta=0.2, trials=100, seed=0)

    class DenseL(spectra.Linearization):
        def matvec(self, u):
            return Lm @ u
    monkeypatch.setattr(spectra, "Linearization", DenseL)
    ref = res_inequality_trials(A_op256, delta=0.2, trials=100, seed=0)
    assert got.n_pass_a == ref.n_pass_a == 100
    for name in ("C1", "C2", "min_defect_a"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name),
                                                   rel=1e-10), name


def test_one_eigh_per_static_operator(static256, monkeypatch):
    # the resolvent calculator and every trial run read the operator's
    # cached modes, so its L is diagonalized once
    calls = []
    eigh = sla.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(sla, "eigh", counted)
    A = build_block(static256, with_c=False)
    ResolventCalculator(A)
    for seed in (0, 1):
        res_inequality_trials(A, delta=0.2, trials=5, seed=seed)
    assert len(calls) == 1
