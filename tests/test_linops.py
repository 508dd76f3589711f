"""Linearized operators: assembly, weighted geometry, zero modes, projectors.

Oracles:
  * L equals the Jacobian of the discrete energy gradient (central
    finite differences of grad_energy).
  * B_c = A_c - A equals the directly assembled difference operator S
    (oracles.s_matrix_direct).
  * Linearization.matvec (FFT) equals its dense() matrix, and its batched
    transform equals the two separate ones bit for bit.
  * Dense eigvals: the moving block's pencil is gyroscopic, so all of
    sigma(A_c) but one real pair lies on Re lam = -nu/2.
  * Shift-invert ARPACK (oracles.null_pair_arpack): the null pair by
    inverse iteration through one LU.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from neelwall.energy import grad_energy
from neelwall.grid import Grid, apply_multiplier, derivative, h1_norm, l2_norm
from neelwall.linops import (
    DiscretizedOperator, ModalStructureError, a_perp_inverse, build_Bc,
    build_L, build_Lc, build_block, null_pair, projector_matrix,
    translation_mode, weighted_state_norm,
)
from neelwall.profiles import Linearization, solve_traveling
from neelwall.spectra import eig_report
from conftest import smooth_random
from oracles import (
    bc_difference, dense_block, null_pair_arpack, s_matrix_direct,
    static_projector_matrix, weighted_matrix,
)


def test_L_is_gradient_jacobian(static256, L_op256):
    g = static256.grid
    u = smooth_random(g, seed=1)
    eps = 1e-6
    gp = grad_energy(static256.theta.with_values(static256.theta.values + eps * u)).values
    gm = grad_energy(static256.theta.with_values(static256.theta.values - eps * u)).values
    fd = (gp - gm) / (2 * eps)
    lin = L_op256.matrix @ u
    assert l2_norm(g, fd - lin) / l2_norm(g, lin) <= 1e-6


def test_linearization_matvec_matches_dense(static256, traveling256):
    # static nonlocal, static local mode, traveling (c != 0, H = 1e-3)
    for prof, mode in ((static256, "nonlocal"), (static256, "local"),
                       (traveling256, "nonlocal")):
        lin = Linearization(prof.grid, prof.reconstruct(), prof.c, prof.nu,
                            prof.H, mode=mode)
        u = smooth_random(prof.grid, seed=11, kmax_frac=1.0, decay=False)
        ref = lin.dense() @ u
        assert np.linalg.norm(lin.matvec(u) - ref) <= 1e-12 * np.linalg.norm(ref)
    # at c = H = 0 the comoving operator is the static one, bit for bit
    assert np.array_equal(build_Lc(static256).matrix, build_L(static256).matrix)


def test_linearization_matvec_batched_is_bitwise(static256, traveling256):
    # u and s u go through one batched transform; the result must be bit for
    # bit the two separate transforms, so the static Newton-CG polish and
    # every wall solved from it are unchanged
    for prof, mode in ((static256, "nonlocal"), (static256, "local"),
                       (traveling256, "nonlocal")):
        g = prof.grid
        lin = Linearization(g, prof.reconstruct(), prof.c, prof.nu, prof.H,
                            mode=mode)
        u = smooth_random(g, seed=12, kmax_frac=1.0, decay=False)
        separate = (apply_multiplier(g, u, lin.symbol)
                    + lin.s * apply_multiplier(g, lin.s * u, lin.T)
                    - lin.potential * u)
        assert np.array_equal(lin.matvec(u), separate)


def test_L_symmetric(L_op256):
    M = L_op256.matrix
    assert np.max(np.abs(M - M.T)) <= 1e-10


def test_Lc_reduces_to_L(static256, L_op256):
    Lc = build_Lc(static256)       # c = 0, H = 0
    assert np.allclose(Lc.matrix, L_op256.matrix, atol=1e-12)


def test_build_L_requires_static(traveling256):
    with pytest.raises(ValueError):
        build_L(traveling256)


def test_operator_shapes_and_validation(static256, A_op256):
    g = static256.grid
    assert A_op256.matrix.shape == (2 * g.n, 2 * g.n)
    with pytest.raises(ValueError):
        DiscretizedOperator("bogus", np.eye(4), g, 1.0, 0.0, 0.0)
    # a block takes its n x 2n bottom rows, never the full matrix
    for M in (np.eye(g.n), np.eye(2 * g.n)):
        with pytest.raises(ValueError, match="expected rows"):
            DiscretizedOperator("A", M, g, 1.0, 0.0, 0.0)
    for nu in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nu must be positive"):
            build_block(static256, nu=nu)


@pytest.mark.parametrize("kind, nu", [("A", 1.0), ("Ac", 0.5), ("Ac", 1.0),
                                      ("Ac", 2.0), ("Bc", 1.0)])
def test_block_structure(static256, traveling256, A_op256, moving_blocks256,
                         kind, nu):
    # the stored bottom rows and the assembled matrix, which equals the full
    # assembly of the oracle byte for byte; no 2n x 2n array is kept, also
    # after the modal and Hamiltonian paths have run
    n = static256.grid.n
    if kind == "A":
        op, ref = A_op256, dense_block(static256, 0.0, 0.0, nu)
        op.modes
    elif kind == "Ac":
        op = moving_blocks256[nu, 1e-3]
        ref = dense_block(op.profile, op.c, op.H, nu)
        assert op.hamiltonian_spectrum() is not None
    else:
        op = build_Bc(traveling256, static256)
        ref = bc_difference(traveling256, static256)
    M = op.matrix
    assert M.tobytes() == ref.tobytes()
    assert op.rows.shape == (n, 2 * n)
    assert not op.rows.flags.writeable and not M.flags.writeable
    top, damp = (np.eye(n), -nu) if kind != "Bc" else (np.zeros((n, n)), 0.0)
    assert not np.any(M[:n, :n])
    assert np.array_equal(M[:n, n:], top)
    assert np.array_equal(np.diagonal(M[n:, n:]), np.full(n, damp))
    if kind == "A":
        assert np.array_equal(M[n:, n:], -nu * np.eye(n))
    stored = [x for v in vars(op).values()
              for x in (v if isinstance(v, tuple) else (v,))]
    assert not any(isinstance(x, np.ndarray) and x.shape == (2 * n, 2 * n)
                   for x in stored)


def test_Bc_matches_direct_assembly(traveling256, static256):
    Bc = build_Bc(traveling256, static256)
    n = static256.grid.n
    S = s_matrix_direct(traveling256, static256)
    # bottom-left block of B_c is -S; top row vanishes except 2c d_z
    assert np.max(np.abs(Bc.matrix[n:, :n] + S)) <= 1e-12
    assert np.max(np.abs(Bc.matrix[:n, :])) == 0.0
    assert sla.svdvals(weighted_matrix(Bc))[0] <= 100 * abs(traveling256.c)


@pytest.mark.parametrize("H", [1e-3, -1e-3, 0.0])
def test_Bc_bitwise_equals_block_difference(grid256, static256, traveling256,
                                            H):
    # H = 0 pairs the static wall with itself: B_c is all zeros
    if H == 0.0:
        moving = static256
    elif H == traveling256.H:
        moving = traveling256
    else:
        moving = solve_traveling(grid256, H=H, nu=1.0, tol=5e-8,
                                 init=static256)
    Bc = build_Bc(moving, static256).matrix
    assert Bc.tobytes() == bc_difference(moving, static256).tobytes()
    assert np.any(Bc) == (H != 0.0)


def test_weighted_norm_matches_state_norm(grid256):
    u = smooth_random(grid256, seed=2)
    v = smooth_random(grid256, seed=3)
    U = np.concatenate([u, v])
    assert weighted_state_norm(grid256, U) == pytest.approx(
        np.hypot(h1_norm(grid256, u), l2_norm(grid256, v)), rel=1e-12)


def test_translation_mode_near_null(static256, L_op256):
    v = translation_mode(L_op256)
    g = static256.grid
    # near-null: relative defect equals the near-zero eigenvalue, which is
    # set by the domain truncation (~2e-6 at n = 256, ~1e-8 at n = 2048)
    assert l2_norm(g, L_op256.matrix @ v) / l2_norm(g, v) <= 1e-5
    # aligned with the profile derivative
    dth = derivative(static256.theta, 1).values
    cosine = np.dot(v, dth) / (np.linalg.norm(v) * np.linalg.norm(dth))
    assert cosine >= 1 - 1e-4


def test_null_pair_and_projector(Ac_op256):
    pair = null_pair(Ac_op256)
    g = pair.grid
    assert abs(pair.lambda0) <= 1e-5
    assert pair.overlap != 0.0
    # weighted defect of the right eigenvector equals |lambda0|
    defect = weighted_state_norm(g, Ac_op256.matrix @ pair.right)
    assert defect / weighted_state_norm(g, pair.right) <= 1e-5
    P = projector_matrix(pair)
    # complement projector: annihilates the zero mode, idempotent,
    # commutes with A_c
    assert np.max(np.abs(P @ pair.right)) <= 1e-10
    assert np.max(np.abs(P @ P - P)) <= 1e-10
    comm = P @ Ac_op256.matrix - Ac_op256.matrix @ P
    assert np.max(np.abs(comm)) <= 1e-8


def test_null_pair_deterministic(Ac_op256):
    a, b = null_pair(Ac_op256), null_pair(Ac_op256)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.left, b.left)
    assert a.lambda0 == b.lambda0


def test_lapack_callers_factor_a_private_block(A_op256, Ac_op256,
                                               monkeypatch):
    # null_pair's LU and eig_report's dgeev overwrite a private
    # Fortran-ordered block: their peak is one 2n x 2n block, not the
    # C-ordered matrix plus the copy LAPACK makes of it, and the results
    # are bit for bit those of the copying path
    block = A_op256.matrix.nbytes

    def traced():
        out, peaks = [], []
        for run in (lambda: null_pair(Ac_op256), lambda: eig_report(A_op256)):
            tracemalloc.start()
            try:
                out.append(run())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out, peaks

    (pair, rep), peaks = traced()
    full = DiscretizedOperator._full
    monkeypatch.setattr(DiscretizedOperator, "_full",
                        lambda op, order="F": full(op, "C"))
    (ref_pair, ref_rep), ref_peaks = traced()
    assert max(peaks) <= 1.25 * block < min(ref_peaks)
    for a, b in ((pair.right, ref_pair.right), (pair.left, ref_pair.left),
                 (rep.eigenvalues, ref_rep.eigenvalues)):
        assert a.tobytes() == b.tobytes()
    assert pair.lambda0 == ref_pair.lambda0


def _sine(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the angle between the lines through a and b."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return float(np.linalg.norm(a - np.dot(a, b) * b))


@pytest.mark.parametrize("n", [256, 512])
def test_null_pair_matches_arpack(n, traveling256, traveling512):
    # inverse iteration through one LU against the shift-invert ARPACK pair
    # it replaced
    op = build_block(traveling256 if n == 256 else traveling512)
    pair, ref = null_pair(op), null_pair_arpack(op)
    assert pair.lambda0 == pytest.approx(ref.lambda0.real, rel=1e-12)
    assert _sine(pair.right, ref.right) <= 1e-7
    assert _sine(pair.left, ref.left) <= 1e-7
    assert np.dot(pair.right, ref.right) > 0.0      # both follow theta'
    assert abs(pair.overlap) == pytest.approx(abs(ref.overlap), rel=1e-10)


def _shifted(op: DiscretizedOperator, s: float) -> DiscretizedOperator:
    """op with L replaced by L - s I (the same profile)."""
    n = op.grid.n
    M = np.array(op.matrix)
    if op.is_block:
        M[n:, :n] += s * np.eye(n)
    else:
        M -= s * np.eye(n)
    return DiscretizedOperator(op.kind, M[n:] if op.is_block else M, op.grid,
                               op.nu, op.c, op.H, op.profile)


def test_zero_mode_separation_certificate(L_op256, A_op256):
    # L - I/2 has eigenvalues near -1/2 and +1/2; the pencil of the block
    # puts 0.37 next to -0.5 +- 0.14i: the smallest two |lambda| lie within
    # 10x, so inverse iteration cannot settle and both entry points refuse
    for op in (_shifted(L_op256, 0.5), _shifted(A_op256, 0.5)):
        two = np.sort(np.abs(sla.eigvals(op.matrix)))[:2]
        assert two[1] < 10 * two[0]
        with pytest.raises(RuntimeError, match="not separated"):
            translation_mode(op)
    with pytest.raises(RuntimeError, match="not separated"):
        null_pair(_shifted(A_op256, 0.5))


def test_static_projector(static256):
    P = static_projector_matrix(static256, nu=1.0)
    g = static256.grid
    dth = derivative(static256.theta, 1).values
    theta0 = np.concatenate([dth, np.zeros(g.n)])
    assert np.max(np.abs(P @ theta0)) <= 1e-12
    assert np.max(np.abs(P @ P - P)) <= 1e-10


def test_lperp_inverse(static256, L_op256, A_op256):
    # the modes of A are those of L: the inverse they give on the
    # complement of the zero mode inverts build_L's matrix there
    evals, Q = A_op256.modes
    assert np.all(np.diff(evals) >= 0.0)
    i0 = int(np.argmin(np.abs(evals)))
    inv = 1.0 / evals
    inv[i0] = 0.0
    zero_vec = Q[:, i0]
    g = static256.grid
    f = smooth_random(g, seed=6)
    f = f - np.dot(f, zero_vec) * zero_vec
    u = Q @ (inv * (Q.T @ f))
    back = L_op256.matrix @ u
    back = back - np.dot(back, zero_vec) * zero_vec
    assert l2_norm(g, back - f) / l2_norm(g, f) <= 1e-6


def test_a_perp_inverse_right_inverse(static256, A_op256):
    # right inverse only on the range of the translation-mode projector;
    # accuracy is limited by the angle between the discrete zero mode and
    # the profile derivative (~1e-3 at n = 256)
    g = static256.grid
    apply_inv = a_perp_inverse(A_op256)
    P = static_projector_matrix(static256, nu=1.0)
    U = P @ np.concatenate([smooth_random(g, seed=7), smooth_random(g, seed=8)])
    back = A_op256.matrix @ apply_inv(U)
    assert weighted_state_norm(g, back - U) / weighted_state_norm(g, U) <= 5e-3


def test_modes_and_a_perp_inverse_reject_bad_operators(L_op256, A_op256):
    with pytest.raises(ModalStructureError, match="is not"):
        L_op256.modes
    with pytest.raises(ModalStructureError, match="is not"):
        L_op256.hamiltonian_spectrum()
    bare = DiscretizedOperator("A", A_op256.matrix[A_op256.grid.n:],
                               A_op256.grid, A_op256.nu, 0.0, 0.0)
    with pytest.raises(ValueError, match="profile"):
        a_perp_inverse(bare)


def test_null_pair_requires_block(L_op256):
    with pytest.raises(ValueError):
        null_pair(L_op256)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_moving_block_is_gyroscopic(moving_blocks256, nu):
    # with sigma = lam + nu/2 the pencil of A_c is sigma^2 - sigma E + K~,
    # E = A_22 + nu I skew and K~ symmetric; one negative eigenvalue of K~
    # leaves one real pair off the line Re lam = -nu/2 (dense oracle only)
    for H in (5e-4, 2e-3):
        M = moving_blocks256[nu, H].matrix
        n = M.shape[0] // 2
        E = M[n:, n:] + nu * np.eye(n)
        Lc = -M[n:, :n]
        assert np.max(np.abs(E + E.T)) <= 1e-12 * np.max(np.abs(E))
        assert (np.max(np.abs(Lc - Lc.T + nu * E))
                <= 1e-12 * np.max(np.abs(Lc)))
        lam = sla.eigvals(M)
        off = np.abs(lam.real + nu / 2.0) > 1e-10
        assert np.count_nonzero(off) == 2
        assert np.all(lam[off].imag == 0.0)
        assert abs(np.sum(lam[off].real) + nu) <= 1e-10
