"""Dense discretizations of the linearized operators and their projectors.

Scalar operators (n x n, geometry L2):
    L   u = -u'' + s T(s u) - c_th u                 (static wall)
    L_c u = -(1-c^2)u'' + s T(s u) - c nu u' - (c_psi + H s_psi) u

Block operators (2n x 2n, geometry H1 x L2):
    A   = [[0, I], [-L,   -nu I]]
    A_c = [[0, I], [-L_c, 2c d_z - nu I]]
    B_c = A_c - A   (bottom row [-S, 2c d_z], cross-checked by assembling S
                     directly)

The H1 x L2 inner product is realized exactly by the diagonal Fourier weight
blockdiag(1 + k^2, 1); every operator norm, adjoint, and singular value is
computed after conjugation by W^{1/2}, never in the raw Euclidean geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .grid import (
    Grid,
    apply_multiplier,
    derivative,
    derivative_matrix,
    multiplier_matrix,
    second_derivative_matrix,
    t_matrix,
)
from .profiles import Profile, _linearized_matrix

SCALAR_KINDS = ("L", "Lc")
BLOCK_KINDS = ("A", "Ac", "Bc")


def weighted_state_norm(grid: Grid, U: np.ndarray) -> float:
    """H1 x L2 norm of a stacked vector U = (u, v) of length 2n."""
    n = grid.n
    u, v = U[:n], U[n:]
    uh = np.fft.fft(u)
    h1_sq = grid.dx / grid.n * np.sum((1.0 + grid.k**2) * np.abs(uh) ** 2)
    return float(np.sqrt(h1_sq + grid.dx * np.sum(np.abs(v) ** 2)))


@dataclass
class DiscretizedOperator:
    """Dense realization of one of the model operators.

    The matrix is real; the weighted geometry enters through the cached
    W^{1/2}-conjugated matrix and its Schur factorization.
    """

    kind: str
    matrix: np.ndarray
    grid: Grid
    nu: float
    c: float
    H: float
    profile: Profile | None = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS + BLOCK_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        expected = self.grid.n if self.kind in SCALAR_KINDS else 2 * self.grid.n
        if self.matrix.shape != (expected, expected):
            raise ValueError(f"kind {self.kind}: expected shape "
                             f"({expected},{expected}), got {self.matrix.shape}")
        self.matrix.setflags(write=False)

    @property
    def is_block(self) -> bool:
        return self.kind in BLOCK_KINDS

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        """W^{1/2} M W^{-1/2} with the H1 Fourier weight W = 1 + k^2 on the
        first block; identity conjugation for scalar (L2) kinds."""
        if not self.is_block:
            return self.matrix
        g = self.grid
        w = 1.0 + g.k**2
        M = self.matrix.copy()
        M[:g.n, :] = multiplier_matrix(g, np.sqrt(w)) @ M[:g.n, :]
        M[:, :g.n] = M[:, :g.n] @ multiplier_matrix(g, 1.0 / np.sqrt(w))
        return M

    @cached_property
    def weighted_schur(self):
        """Complex upper-triangular Schur form (T, Q) of the weighted matrix,
        via the real Schur factorization (the matrix is real)."""
        T, Q = sla.schur(self.weighted_matrix, output="real")
        return sla.rsf2csf(T, Q)

    def apply(self, U: np.ndarray) -> np.ndarray:
        return self.matrix @ U


def matvec_norm(M: np.ndarray, n_iter: int = 60, seed: int = 0) -> float:
    """Spectral norm by power iteration on M^T M (avoids a full SVD)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(n_iter):
        w = M.T @ (M @ v)
        new = np.linalg.norm(w)
        if new == 0:
            return 0.0
        v = w / new
        sigma_new = np.sqrt(new)
        if abs(sigma_new - sigma) <= 1e-10 * max(sigma_new, 1.0):
            return float(sigma_new)
        sigma = sigma_new
    return float(sigma)


def operator_norm(op: DiscretizedOperator) -> float:
    """Operator norm in the appropriate (weighted) geometry."""
    return matvec_norm(op.weighted_matrix)


# ---------------------------------------------------------------------------
# assembly


def build_L(profile: Profile) -> DiscretizedOperator:
    """Static linearization L = -d_xx + s T(s .) - c_th."""
    if profile.H != 0.0 or profile.c != 0.0:
        raise ValueError("build_L requires a static profile (H = 0, c = 0)")
    g = profile.grid
    M = _linearized_matrix(g, profile.reconstruct(), 0.0, profile.nu, 0.0,
                           t_matrix(g))
    return DiscretizedOperator("L", M, g, profile.nu, 0.0, 0.0, profile)


def build_Lc(profile: Profile) -> DiscretizedOperator:
    """Comoving linearization L_c (reduces to L at c = 0, H = 0)."""
    if abs(profile.c) >= 1:
        raise ValueError(f"|c| < 1 required, got {profile.c}")
    g = profile.grid
    M = _linearized_matrix(g, profile.reconstruct(), profile.c, profile.nu,
                           profile.H, t_matrix(g))
    return DiscretizedOperator("Lc", M, g, profile.nu, profile.c, profile.H,
                               profile)


def build_block(profile: Profile, with_c: bool = True,
                nu: float | None = None) -> DiscretizedOperator:
    """First-order block operator A (with_c False, c forced to 0) or A_c."""
    nu = profile.nu if nu is None else nu
    if nu <= 0:
        raise ValueError("nu must be positive")
    g = profile.grid
    n = g.n
    c = profile.c if with_c else 0.0
    H = profile.H if with_c else 0.0
    scal = _linearized_matrix(g, profile.reconstruct(), c, nu, H, t_matrix(g))
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = -scal
    M[n:, n:] = -nu * np.eye(n)
    if with_c and c != 0.0:
        M[n:, n:] += 2.0 * c * derivative_matrix(g)
    kind = "Ac" if with_c else "A"
    return DiscretizedOperator(kind, M, g, nu, c, H, profile)


def build_Bc(moving: Profile, static: Profile) -> DiscretizedOperator:
    """B_c = A_c(moving) - A(static), both on the same grid and damping."""
    if moving.grid != static.grid:
        raise ValueError("profiles must share a grid")
    Ac = build_block(moving, with_c=True)
    A = build_block(static, with_c=False, nu=moving.nu)
    return DiscretizedOperator("Bc", Ac.matrix - A.matrix, moving.grid,
                               moving.nu, moving.c, moving.H, moving)


def s_matrix_direct(moving: Profile, static: Profile) -> np.ndarray:
    """Direct assembly of
    S u = c^2 u'' - c nu u' + s_psi T(s_psi u) - s_th T(s_th u)
          + (c_th - c_psi - H s_psi) u,
    kept as an independent cross-check of B_c = A_c - A."""
    g = moving.grid
    c, nu, H = moving.c, moving.nu, moving.H
    Tm = t_matrix(g)
    psi = moving.reconstruct()
    th = static.reconstruct()
    mult = 1.0 + np.abs(g.k)
    s_psi, s_th = np.sin(psi), np.sin(th)
    c_psi = np.cos(psi) * apply_multiplier(g, np.cos(psi), mult)
    c_th = np.cos(th) * apply_multiplier(g, np.cos(th), mult)
    M = c**2 * second_derivative_matrix(g)
    M -= c * nu * derivative_matrix(g)
    M += s_psi[:, None] * Tm * s_psi[None, :] - s_th[:, None] * Tm * s_th[None, :]
    M += np.diag(c_th - c_psi - H * s_psi)
    return M


# ---------------------------------------------------------------------------
# null pair and projectors


@dataclass(frozen=True)
class NullPair:
    """Right/left translation-mode vectors of a block operator and their
    weighted overlap R_c (all as stacked length-2n arrays)."""

    right: np.ndarray
    left: np.ndarray
    overlap: float
    lambda0: complex
    lambda_next: complex
    grid: Grid


def _two_eigs_nearest_zero(M: np.ndarray, lu, trans: int):
    """Two eigenvalues of M (trans=0) or M^T (trans=1) nearest 0, by
    shift-invert Arnoldi through an existing LU factorization of M."""
    n = M.shape[0]
    op = spla.LinearOperator((n, n),
                             matvec=lambda b: sla.lu_solve(lu, b, trans=trans))
    # shift-invert at real sigma never applies the matrix itself, so M.T is
    # passed as a view; the fixed start vector makes the result reproducible
    vals, vecs = spla.eigs(M.T if trans else M, k=2, OPinv=op, sigma=0.0,
                           which="LM", v0=np.random.default_rng(0).standard_normal(n))
    order = np.argsort(np.abs(vals))
    return vals[order], vecs[:, order]


def _real_phase(v: np.ndarray) -> np.ndarray:
    """An eigenvector that is real up to a phase, made real: rotate its
    dominant component onto the positive real axis."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return np.real(v * np.conj(pivot) / np.abs(pivot))


def translation_mode(op: DiscretizedOperator) -> np.ndarray:
    """Discrete translation zero mode: the eigenvector of smallest |lambda|.

    The spectral derivative of the profile is a near-null direction in the
    interior but carries an O(1) defect concentrated within a few grid
    spacings of the seam x = +-L, where the periodization breaks translation
    equivariance (sin theta jumps sign there).  The eigenvector agrees with
    the profile derivative to ~1e-6 in overlap and satisfies the zero-mode
    bound; use it whenever "the translation mode" is meant discretely.
    """
    lu = sla.lu_factor(op.matrix)
    vals, vecs = _two_eigs_nearest_zero(op.matrix, lu, trans=0)
    v = _real_phase(vecs[:, 0])
    # orient along the profile derivative (increasing wall) when available
    if op.profile is not None:
        dpsi = derivative(op.profile.theta, 1).values
        ref = np.concatenate([dpsi, np.zeros(op.grid.n)]) if op.is_block else dpsi
        if np.dot(v, ref) < 0:
            v = -v
    return v / np.linalg.norm(v)


def null_pair(op: DiscretizedOperator) -> NullPair:
    """Translation zero mode of A_c: right and left eigenvectors nearest 0
    (left in the weighted-adjoint sense)."""
    if not op.is_block:
        raise ValueError("null_pair needs a block operator")
    if op.profile is None:
        raise ValueError("operator carries no profile")
    g = op.grid
    n = g.n
    lu = sla.lu_factor(op.matrix)
    _, vecs_r = _two_eigs_nearest_zero(op.matrix, lu, trans=0)
    right = _real_phase(vecs_r[:, 0])
    dpsi = derivative(op.profile.theta, 1).values
    if np.dot(right[:n], dpsi) < 0:
        right = -right
    right = right / weighted_state_norm(g, right)

    vals_t, vecs_t = _two_eigs_nearest_zero(op.matrix, lu, trans=1)
    lam0, lam1 = vals_t
    if abs(lam1) < 10 * abs(lam0):
        raise RuntimeError(
            f"zero mode not separated: |lambda0| = {abs(lam0):.2e}, "
            f"next |lambda| = {abs(lam1):.2e} (need 10x)")
    y = _real_phase(vecs_t[:, 0])
    # weighted adjoint eigenvector: left = W^{-1} y with A^T y ~ 0
    left = np.concatenate([
        np.real(np.fft.ifft(np.fft.fft(y[:n]) / (1.0 + g.k**2))), y[n:]])
    left = left / weighted_state_norm(g, left)
    # <right, left>_W = dx * right^T W left = dx * right^T y-direction
    w1 = 1.0 + g.k**2
    Wleft = np.concatenate([
        np.real(np.fft.ifft(w1 * np.fft.fft(left[:n]))), left[n:]])
    overlap = float(g.dx * np.dot(right, np.conj(Wleft)).real)
    return NullPair(right, left, overlap, complex(vals_t[0]), complex(vals_t[1]), g)


def projector_matrix(pair: NullPair) -> np.ndarray:
    """Spectral projector P_c U = U - <U, left>_W / R_c * right."""
    g = pair.grid
    n = g.n
    w1 = 1.0 + g.k**2
    Wleft = np.concatenate([
        np.real(np.fft.ifft(w1 * np.fft.fft(pair.left[:n]))), pair.left[n:]])
    return np.eye(2 * n) - np.outer(pair.right, g.dx * Wleft) / pair.overlap


def static_projector_matrix(static: Profile, nu: float | None = None) -> np.ndarray:
    """Static-wall projector P U = U - <U, Phi0>_{L2xL2} / <Theta0, Phi0> Theta0
    with Theta0 = (theta', 0), Phi0 = (nu theta', theta')."""
    nu = static.nu if nu is None else nu
    g = static.grid
    dth = derivative(static.theta, 1).values
    theta0 = np.concatenate([dth, np.zeros(g.n)])
    phi0 = np.concatenate([nu * dth, dth])
    denom = g.dx * float(np.dot(theta0, phi0))
    return np.eye(2 * g.n) - np.outer(theta0, g.dx * phi0) / denom


# ---------------------------------------------------------------------------
# restricted inverse on the orthogonal complement of the zero mode


def lperp_inverse_factory(L_op: DiscretizedOperator):
    """Inverse of L on the complement of its near-zero mode, from the
    symmetric eigendecomposition; returns (apply, zero_vector)."""
    Lsym = 0.5 * (L_op.matrix + L_op.matrix.T)
    evals, evecs = sla.eigh(Lsym)
    i0 = int(np.argmin(np.abs(evals)))
    inv = 1.0 / evals
    inv[i0] = 0.0

    def apply(f: np.ndarray) -> np.ndarray:
        return evecs @ (inv * (evecs.T @ f))

    return apply, evecs[:, i0]


def a_perp_inverse_factory(L_op: DiscretizedOperator, static: Profile,
                           nu: float | None = None):
    """Inverse of the block operator A restricted to ran(P).

    For U = (u, v) with u = u_perp + alpha theta' returns
        ( -Lperp^{-1}(nu u_perp + v) - (alpha/nu) theta',  u ),
    which A maps back to U (checked in tests to 1e-7).
    """
    nu = static.nu if nu is None else nu
    g = static.grid
    n = g.n
    lperp, _ = lperp_inverse_factory(L_op)
    dth = derivative(static.theta, 1).values
    dth_nsq = float(np.dot(dth, dth))

    def apply(U: np.ndarray) -> np.ndarray:
        u, v = U[:n], U[n:]
        alpha = float(np.dot(u, dth)) / dth_nsq
        u_perp = u - alpha * dth
        first = -lperp(nu * u_perp + v) - (alpha / nu) * dth
        return np.concatenate([first, u])

    return apply
