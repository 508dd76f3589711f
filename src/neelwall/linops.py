"""Dense discretizations of the linearized operators and their projectors.

Scalar operators (n x n, geometry L2):
    L   u = -u'' + s T(s u) - c_th u                 (static wall)
    L_c u = -(1-c^2)u'' + s T(s u) - c nu u' - (c_psi + H s_psi) u

Block operators (2n x 2n, geometry H1 x L2; the kind fixes the top row, so
only the n x 2n bottom rows are stored, and .matrix assembles the whole):
    A   = [[0, I], [-L,   -nu I]]
    A_c = [[0, I], [-L_c, 2c d_z - nu I]]
    B_c = A_c - A   (top row zero, bottom row [L - L_c, 2c d_z])

L and L_c are the dense matrices of profiles.Linearization, the one
definition of the linearization; the block rows are assembled around them.
Zero modes come from inverse iteration through one LU of the matrix,
started from the profile derivative, so none depends on a random start.

The H1 x L2 inner product is realized exactly by the diagonal Fourier weight
blockdiag(1 + k^2, 1); every operator norm, adjoint, and singular value is
computed in that geometry, never in the raw Euclidean one.

DiscretizedOperator.modes caches the one eigh of the static A's symmetric L;
it serves both spectra.ResolventCalculator and a_perp_inverse.
DiscretizedOperator.hamiltonian_spectrum gives sigma(A_c) from the
Hamiltonian form of its quadratic pencil: one eigh of size n, a few LU
steps of size n, and one eigvalsh of size 2n - 2 in place of dgeev on the
2n block.  Both read the stored bottom rows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas

from .grid import (
    Grid,
    apply_multiplier,
    derivative,
    multiplier_matrix,
    state_norm,
)
from .profiles import Linearization, Profile

SCALAR_KINDS = ("L", "Lc")
BLOCK_KINDS = ("A", "Ac", "Bc")
SYMMETRY_TOL = 1e-12      # max |L - L^T| / max |L| accepted by modes
PAIR_NEWTON_MAX = 8       # Newton steps for the real pair of A_c at most
PAIR_NEWTON_TOL = 1e-8    # relative step after which the pair is converged
                          # (the iteration converges cubically)
ZERO_MODE_TOL = 1e-13     # zero-mode inverse iteration ends when the unit
ZERO_MODE_MAX_STEPS = 14  # iterate moves by at most TOL, or fails after 14
                          # steps a side (10x separation: error 1 -> 1e-13)


class ModalStructureError(ValueError):
    """A block whose bottom rows are not [-L, -nu I] with a symmetric L, so
    DiscretizedOperator.modes (the modal factorization) does not apply, or
    not [-L_c, E - nu I] with E skew and L_c - L_c^T = -nu E, so
    DiscretizedOperator.hamiltonian_spectrum does not; or a scalar kind."""


@dataclass(frozen=True)
class HamiltonianSpectrum:
    """sigma(A_c) from DiscretizedOperator.hamiltonian_spectrum."""

    eigenvalues: np.ndarray        # the real pair, then -nu/2 +- i omega
    pair: tuple[float, float]      # the real pair -nu/2 + s, -nu/2 - s
    newton_steps: int              # LU steps that found s
    structure_residual: float      # the larger relative residual of the
                                   # two structure checks


def weighted_state_norm(grid: Grid, U: np.ndarray) -> float:
    """H1 x L2 norm of a stacked vector U = (u, v) of length 2n."""
    return state_norm(grid, U[:grid.n], U[grid.n:])


@dataclass
class DiscretizedOperator:
    """Dense realization of one of the model operators.

    rows holds the entries the kind leaves free: all of a scalar kind, the
    n x 2n bottom rows [-L_c, D] of a block (top row [0, I], or zero for
    B_c).  matrix is the whole matrix, read-only.  A static block operator
    caches the eigendecomposition of its L (modes).
    """

    kind: str
    rows: np.ndarray
    grid: Grid
    nu: float
    c: float
    H: float
    profile: Profile | None = None

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS + BLOCK_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        n = self.grid.n
        expected = (n, 2 * n) if self.is_block else (n, n)
        if self.rows.shape != expected:
            raise ValueError(f"kind {self.kind}: expected rows of shape "
                             f"{expected}, got {self.rows.shape}")
        self.rows.setflags(write=False)

    @property
    def is_block(self) -> bool:
        return self.kind in BLOCK_KINDS

    @property
    def matrix(self) -> np.ndarray:
        """rows for a scalar kind; for a block, a fresh 2n x 2n array of its
        top row over rows, assembled on each read and not cached."""
        if not self.is_block:
            return self.rows
        M = self._full("C")
        M.setflags(write=False)
        return M

    def _full(self, order: str = "F") -> np.ndarray:
        """A fresh writable copy of the whole matrix in memory order order.
        LAPACK overwrites a Fortran-ordered one in place (overwrite_a=True);
        any other input it copies first, whatever the flag."""
        if not self.is_block:
            return np.array(self.rows, order=order)
        n = self.grid.n
        M = np.zeros((2 * n, 2 * n), order=order)
        if self.kind != "Bc":
            np.fill_diagonal(M[:n, n:], 1.0)
        M[n:] = self.rows
        return M

    @cached_property
    def modes(self):
        """(mu, Q) = eigh(L) of a static block [[0, I], [-L, -nu I]]: the
        eigenvalues of L in ascending order and its orthonormal
        eigenvectors.  The damping block -nu I is checked exactly and the
        symmetry of L to SYMMETRY_TOL (relative), else ModalStructureError
        (also for a scalar kind)."""
        n = self.grid.n
        damp = self.rows[:, n:]
        if (not self.is_block or np.count_nonzero(damp) != n
                or np.any(np.diagonal(damp) != -self.nu)):
            raise ModalStructureError(
                f"kind {self.kind} matrix is not [[0, I], [-L, -nu I]]")
        L = -self.rows[:, :n]
        asym = _relative(L - L.T, L)
        if asym > SYMMETRY_TOL:
            raise ModalStructureError(
                f"L is not symmetric: max |L - L^T| / max |L| = {asym:.2e} "
                f"> {SYMMETRY_TOL:.0e}")
        return sla.eigh(L)

    def hamiltonian_spectrum(self) -> HamiltonianSpectrum | None:
        """sigma of a moving block [[0, I], [-L_c, E - nu I]] from the
        Hamiltonian form of its pencil; None unless K~ = sym(L_c) - nu^2/4
        has exactly one negative eigenvalue (it has more when
        Lambda0 < nu^2/4, and then more than one pair leaves the line).

        Checked first on the stored bottom rows, to SYMMETRY_TOL relative,
        else ModalStructureError (also for a scalar kind): E skew (relative
        to the damping block) and L_c - L_c^T = -nu E (relative to L_c).

        With sigma = lam + nu/2 the pencil is Q(sigma) = sigma^2 - sigma E
        + K~, gyroscopic.  Take K~ = V diag(kappa) V^T, C = sqrt|kappa| V^T,
        the skew N = [[0, C], [-C^T, E]] and Sigma = diag(sign kappa, 1):
        then Z = N Sigma has det(Z - sigma) = det Q(sigma).  Z is skew in
        the indefinite form of Sigma, which has one negative square, so all
        of sigma(Z) is imaginary but one real pair +-s (Pontryagin;
        Kapitula & Promislow 2013, ch. 7).  s comes from two-sided Newton on
        Q (_real_pair).  Two Householder reflectors split the pair's
        eigenvectors off Sigma Z; on the rest Sigma's Gram matrix is
        I - 2 b b^T, positive definite, and its inverse square root makes the
        rest a real skew S.  eigvalsh(S^T S) gives omega^2 twice over, and
        sigma(A_c) = {-nu/2 +- s} + {-nu/2 +- i omega}."""
        if not self.is_block:
            raise ModalStructureError(f"kind {self.kind} is not a block")
        n, nu = self.grid.n, self.nu
        lower, damp = self.rows[:, :n], self.rows[:, n:]
        E = damp + nu * np.eye(n)
        residual = max(_relative(E + E.T, damp),     # lower = -L_c
                       _relative(nu * E - (lower - lower.T), lower))
        if residual > SYMMETRY_TOL:
            raise ModalStructureError(
                f"kind {self.kind} matrix is not [[0, I], [-L_c, E - nu I]] "
                f"with E skew and L_c - L_c^T = -nu E: relative residual "
                f"{residual:.2e} > {SYMMETRY_TOL:.0e}")
        Kt = lower + lower.T
        Kt *= -0.5
        Kt.flat[::n + 1] -= 0.25 * nu * nu
        kappa, V = sla.eigh(Kt, driver="evd")
        if np.count_nonzero(kappa < 0) != 1:
            return None
        s, right, left, steps = _real_pair(Kt, E, kappa[0], V[:, 0])
        del Kt

        # Sigma Z = Sigma N Sigma = [[0, SC], [-SC^T, E]], SC = Sigma C
        SC = np.sqrt(np.abs(kappa))[:, None] * V.T
        SC[0] = -SC[0]
        del V
        K = np.empty((2 * n, 2 * n))
        K[:n, :n] = 0.0
        K[:n, n:] = SC
        K[n:, :n] = -SC.T
        K[n:, n:] = E
        # Sigma times the eigenvectors (C b / sigma, b) of Z at sigma = +-s
        p = np.concatenate([SC @ right / s, right])
        q = np.concatenate([-(SC @ left) / s, left])
        del SC, E
        v1 = _householder(p, 0)
        v2 = _householder(_reflect(q, v1), 1)
        _reflect_skew(K, v1)
        _reflect_skew(K, v2)
        # b = U^T e_0 for the complement U of the pair, Sigma = I - 2 e_0 e_0^T
        e0 = np.zeros(2 * n)
        e0[0] = 1.0
        b = _reflect(_reflect(e0, v1), v2)[2:]
        beta = float(b @ b)
        if not beta < 0.5:
            raise RuntimeError(
                f"the Sigma-Gram matrix I - 2 b b^T of the complement of the "
                f"real pair is not positive definite: |b|^2 = {beta:.3e}")
        S = np.array(K[2:, 2:])
        del K
        # S <- P S P for P = (I - 2 b b^T)^{-1/2} = I + g b b^T; S stays skew
        g = float(np.expm1(-0.5 * np.log1p(-2.0 * beta)) / beta if beta
                  else 0.0)
        w = S @ b
        blas.dger(g, b, w, a=S.T, overwrite_a=True)
        blas.dger(-g, w, b, a=S.T, overwrite_a=True)
        StS = blas.dsyrk(1.0, S.T)
        del S
        omega2 = sla.eigh(StS, lower=False, eigvals_only=True,
                          overwrite_a=True, check_finite=False)
        omega = np.sqrt(np.maximum(0.5 * (omega2[0::2] + omega2[1::2]), 0.0))
        pair = (-0.5 * nu + s, -0.5 * nu - s)
        vals = np.concatenate([np.array(pair, dtype=complex),
                               -0.5 * nu + 1j * omega, -0.5 * nu - 1j * omega])
        return HamiltonianSpectrum(vals, pair, steps, residual)


def _relative(R: np.ndarray, ref: np.ndarray) -> float:
    """max |R| / max |ref|, and 0 for R = 0."""
    top = np.max(np.abs(R))
    return float(top / np.max(np.abs(ref))) if top else 0.0


def _real_pair(Kt: np.ndarray, E: np.ndarray, kappa0: float, v0: np.ndarray):
    """(s, x, y, steps): the real root s > 0 of det Q(s) = 0, Q(sigma) =
    sigma^2 - sigma E + Kt, with Q(s) x = 0 and Q(s)^T y = 0, by two-sided
    Newton (Rayleigh functional) from sigma = sqrt(-kappa0), x = y = v0.

    Each step solves with one LU of Q(sigma) on both sides, x <- Q^{-1} Q' x
    and y <- Q^{-T} Q'^T y, and takes the root of the scalar quadratic
    y^T Q(sigma) x = 0 nearest sigma.  Q(sigma)^T = Q(-sigma), so y is also
    the eigenvector of the partner root -s."""
    sigma, x, y = float(np.sqrt(-kappa0)), v0, v0
    diag = np.s_[::Kt.shape[0] + 1]
    for step in range(1, PAIR_NEWTON_MAX + 1):
        Q = Kt - sigma * E
        Q.flat[diag] += sigma * sigma
        lu = sla.lu_factor(Q, overwrite_a=True, check_finite=False)
        x = sla.lu_solve(lu, 2.0 * sigma * x - E @ x, check_finite=False)
        y = sla.lu_solve(lu, 2.0 * sigma * y + E @ y, trans=1,
                         check_finite=False)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        a, b, c = y @ x, -(y @ (E @ x)), y @ (Kt @ x)
        disc = np.emath.sqrt(b * b - 4.0 * a * c)
        roots = (-b + np.array([disc, -disc])) / (2.0 * a)
        new = float(roots[np.argmin(np.abs(roots - sigma))].real)
        change, sigma = abs(new - sigma), new
        if change <= PAIR_NEWTON_TOL * sigma:
            return sigma, x, y, step
    raise RuntimeError(
        f"real pair of A_c not converged in {PAIR_NEWTON_MAX} Newton steps: "
        f"last step {change:.2e} at sigma = {sigma:.6e}")


def _householder(x: np.ndarray, k: int) -> np.ndarray:
    """v with v[:k] = 0 whose reflector I - 2 v v^T / v^T v maps x[k:] onto
    the k-th axis."""
    v = np.zeros_like(x)
    v[k:] = x[k:]
    v[k] += np.copysign(np.linalg.norm(x[k:]), x[k])
    return v


def _reflect(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - 2 v v^T / v^T v) x."""
    return x - (2.0 * (v @ x) / (v @ v)) * v


def _reflect_skew(K: np.ndarray, v: np.ndarray) -> None:
    """K <- H K H in place for a skew K and H = I - tau v v^T: with w = K v
    and v^T K v = 0 that is K - tau (w v^T - v w^T), two rank-one updates
    of the Fortran view K^T."""
    tau = 2.0 / (v @ v)
    w = K @ v
    blas.dger(-tau, v, w, a=K.T, overwrite_a=True)
    blas.dger(tau, w, v, a=K.T, overwrite_a=True)


# ---------------------------------------------------------------------------
# assembly


def build_L(profile: Profile) -> DiscretizedOperator:
    """Static linearization L = -d_xx + s T(s .) - c_th."""
    if profile.H != 0.0 or profile.c != 0.0:
        raise ValueError("build_L requires a static profile (H = 0, c = 0)")
    g = profile.grid
    M = Linearization(g, profile.reconstruct(), 0.0, profile.nu).dense()
    return DiscretizedOperator("L", M, g, profile.nu, 0.0, 0.0, profile)


def build_Lc(profile: Profile) -> DiscretizedOperator:
    """Comoving linearization L_c (reduces to L at c = 0, H = 0)."""
    if abs(profile.c) >= 1:
        raise ValueError(f"|c| < 1 required, got {profile.c}")
    g = profile.grid
    M = Linearization(g, profile.reconstruct(), profile.c, profile.nu,
                      profile.H).dense()
    return DiscretizedOperator("Lc", M, g, profile.nu, profile.c, profile.H,
                               profile)


def _block_rows(profile: Profile, c: float, H: float,
                nu: float) -> np.ndarray:
    """The bottom rows [-L_c, 2c d_z - nu I] of a block at speed c, field H
    and damping nu, with L_c linearized at the profile."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    g, n = profile.grid, profile.grid.n
    rows = np.empty((n, 2 * n))
    rows[:, :n] = -Linearization(g, profile.reconstruct(), c, nu, H).dense()
    rows[:, n:] = -nu * np.eye(n)
    if c != 0.0:
        rows[:, n:] += 2.0 * c * multiplier_matrix(g, g.k_deriv)
    return rows


def build_block(profile: Profile, with_c: bool = True,
                nu: float | None = None) -> DiscretizedOperator:
    """First-order block operator A (with_c False, c forced to 0) or A_c."""
    nu = profile.nu if nu is None else nu
    c, H = (profile.c, profile.H) if with_c else (0.0, 0.0)
    return DiscretizedOperator("Ac" if with_c else "A",
                               _block_rows(profile, c, H, nu), profile.grid,
                               nu, c, H, profile)


def build_Bc(moving: Profile, static: Profile) -> DiscretizedOperator:
    """B_c = A_c(moving) - A(static), both on the same grid and damping: the
    difference of the two blocks' bottom rows, [L - L_c, 2c d_z]."""
    if moving.grid != static.grid:
        raise ValueError("profiles must share a grid")
    rows = _block_rows(moving, moving.c, moving.H, moving.nu)
    rows -= _block_rows(static, 0.0, 0.0, moving.nu)
    return DiscretizedOperator("Bc", rows, moving.grid, moving.nu, moving.c,
                               moving.H, moving)


# ---------------------------------------------------------------------------
# null pair and projectors


@dataclass(frozen=True)
class NullPair:
    """Right/left translation-mode vectors of a block operator and their
    weighted overlap R_c (all as stacked length-2n arrays)."""

    right: np.ndarray
    left: np.ndarray
    overlap: float
    lambda0: float
    grid: Grid


def _zero_mode(op: DiscretizedOperator) -> list:
    """[(lam0, x)] for a scalar kind, [(lam0, x), (lam0, y)] for a block:
    the eigenvalue of smallest |lambda|, its unit right eigenvector x and
    unit Euclidean left eigenvector y, by inverse iteration through one LU
    of the matrix (Golub & Van Loan, Matrix Computations, 7.6.1) from
    theta' (scalar kinds), or (theta', 0) and (nu theta', theta') (blocks
    [[0, I], [-L, D]]; exact for D = -nu I, L theta' = 0).  Iterates keep
    the orientation of their start; lam0 is the Rayleigh quotient
    1 / x^T M^{-1} x of the last step.  A step shrinks the error by
    |lambda0 / lambda1|, so a tenfold separated mode settles within
    ZERO_MODE_MAX_STEPS from within 45 degrees; else RuntimeError."""
    if op.profile is None:
        raise ValueError("operator carries no profile")
    dth = derivative(op.profile.theta, 1).values
    lu = sla.lu_factor(op._full(), overwrite_a=True, check_finite=False)
    starts = ([np.concatenate([dth, np.zeros_like(dth)]),
               np.concatenate([op.nu * dth, dth])] if op.is_block else [dth])
    out = []
    for trans, start in enumerate(starts):
        x = start / np.linalg.norm(start)
        for step in range(1, ZERO_MODE_MAX_STEPS + 1):
            z = sla.lu_solve(lu, x, trans=trans, check_finite=False)
            lam = 1.0 / float(x @ z)
            z *= np.copysign(1.0 / np.linalg.norm(z), z @ start)
            change, x = float(np.linalg.norm(z - x)), z
            if change <= ZERO_MODE_TOL:
                break
        else:
            raise RuntimeError(
                f"zero mode not separated: inverse iteration still moved "
                f"the unit iterate by {change:.2e} at step {step} "
                f"(tolerance {ZERO_MODE_TOL:.0e})")
        out.append((lam, x))
    return out


def translation_mode(op: DiscretizedOperator) -> np.ndarray:
    """Discrete translation zero mode: the unit eigenvector of smallest
    |lambda|, by inverse iteration from the profile derivative (_zero_mode).

    The spectral derivative of the profile is a near-null direction in the
    interior but carries an O(1) defect concentrated within a few grid
    spacings of the seam x = +-L, where the periodization breaks translation
    equivariance (sin theta jumps sign there).  The eigenvector agrees with
    the profile derivative to ~1e-6 in overlap and satisfies the zero-mode
    bound; use it whenever "the translation mode" is meant discretely.
    """
    return _zero_mode(op)[0][1]


def null_pair(op: DiscretizedOperator) -> NullPair:
    """Translation zero mode of A_c: right and left eigenvectors nearest 0
    (left in the weighted-adjoint sense), from one LU (_zero_mode)."""
    if not op.is_block:
        raise ValueError("null_pair needs a block operator")
    g, n = op.grid, op.grid.n
    (lam0, x), (_, y) = _zero_mode(op)
    right = x / weighted_state_norm(g, x)
    # weighted adjoint eigenvector: left = W^{-1} y with A^T y ~ 0,
    # W = blockdiag(1 + k^2, 1)
    left = np.concatenate([apply_multiplier(g, y[:n], 1.0 / g.h1_weight),
                           y[n:]])
    left = left / weighted_state_norm(g, left)
    # <right, left>_W = dx * right^T W left
    Wleft = np.concatenate([apply_multiplier(g, left[:n], g.h1_weight),
                            left[n:]])
    return NullPair(right, left, float(g.dx * np.dot(right, Wleft)), lam0, g)


def projector_matrix(pair: NullPair) -> np.ndarray:
    """Spectral projector P_c U = U - <U, left>_W / R_c * right."""
    g, n = pair.grid, pair.grid.n
    Wleft = np.concatenate([apply_multiplier(g, pair.left[:n], g.h1_weight),
                            pair.left[n:]])
    return np.eye(2 * n) - np.outer(pair.right, g.dx * Wleft) / pair.overlap


# ---------------------------------------------------------------------------
# restricted inverse on the range of the zero-mode projector


def a_perp_inverse(A: DiscretizedOperator):
    """Inverse of the static block operator A restricted to ran(P), from its
    modes (mu, Q); returns the function U -> A^{-1} U.

    With Lperp^{-1} = Q diag(1/mu) Q^T, the near-zero mode dropped, and
    u = u_perp + alpha theta' it returns
        ( -Lperp^{-1}(nu u_perp + v) - (alpha/nu) theta',  u ),
    which A maps back to U (checked in tests to 5e-3 at n = 256).
    """
    if A.profile is None:
        raise ValueError("a_perp_inverse needs an operator with a profile")
    mu, Q = A.modes
    inv = 1.0 / mu
    inv[int(np.argmin(np.abs(mu)))] = 0.0
    nu, n = A.nu, A.grid.n
    dth = derivative(A.profile.theta, 1).values
    dth_nsq = float(np.dot(dth, dth))

    def apply(U: np.ndarray) -> np.ndarray:
        u, v = U[:n], U[n:]
        alpha = float(np.dot(u, dth)) / dth_nsq
        u_perp = u - alpha * dth
        first = -(Q @ (inv * (Q.T @ (nu * u_perp + v)))) - (alpha / nu) * dth
        return np.concatenate([first, u])

    return apply
