"""Dense discretizations of the linearized operators and their projectors.

Scalar operators (n x n, geometry L2):
    L   u = -u'' + s T(s u) - c_th u                 (static wall)
    L_c u = -(1-c^2)u'' + s T(s u) - c nu u' - (c_psi + H s_psi) u

Block operators (2n x 2n, geometry H1 x L2):
    A   = [[0, I], [-L,   -nu I]]
    A_c = [[0, I], [-L_c, 2c d_z - nu I]]
    B_c = A_c - A   (bottom row [-S, 2c d_z]; only those n rows are written)

L and L_c are the dense matrices of profiles.Linearization, the one
definition of the linearization; the blocks are assembled around them.
Zero modes use shift-invert ARPACK; scipy.sparse.linalg is imported there,
on first use, not with this module.

The H1 x L2 inner product is realized exactly by the diagonal Fourier weight
blockdiag(1 + k^2, 1); every operator norm, adjoint, and singular value is
computed after conjugation by W^{1/2}, never in the raw Euclidean geometry.

DiscretizedOperator.modes caches the one eigh of the static A's symmetric L;
it serves both spectra.ResolventCalculator and a_perp_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .grid import (
    Grid,
    derivative,
    multiplier_matrix,
    state_norm,
)
from .profiles import Linearization, Profile

SCALAR_KINDS = ("L", "Lc")
BLOCK_KINDS = ("A", "Ac", "Bc")
SYMMETRY_TOL = 1e-12      # max |L - L^T| / max |L| accepted by modes


class ModalStructureError(ValueError):
    """A matrix that is not [[0, I], [-L, -nu I]] with a symmetric L, so
    DiscretizedOperator.modes (the modal factorization) does not apply."""


def weighted_state_norm(grid: Grid, U: np.ndarray) -> float:
    """H1 x L2 norm of a stacked vector U = (u, v) of length 2n."""
    return state_norm(grid, U[:grid.n], U[grid.n:])


def _weight(grid: Grid, U: np.ndarray, inverse: bool = False) -> np.ndarray:
    """W U (or W^{-1} U) for a stacked U = (u, v), W = blockdiag(1 + k^2, 1)."""
    uh = np.fft.fft(U[:grid.n])
    uh = uh / grid.h1_weight if inverse else grid.h1_weight * uh
    return np.concatenate([np.real(np.fft.ifft(uh)), U[grid.n:]])


@dataclass
class DiscretizedOperator:
    """Dense realization of one of the model operators.

    The matrix is real; the weighted geometry enters through the cached
    W^{1/2}-conjugated matrix, and a static block operator caches the
    eigendecomposition of its L (modes).
    """

    kind: str
    matrix: np.ndarray
    grid: Grid
    nu: float
    c: float
    H: float
    profile: Profile | None = None

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
        w = g.h1_weight
        M = self.matrix.copy()
        M[:g.n, :] = multiplier_matrix(g, np.sqrt(w)) @ M[:g.n, :]
        M[:, :g.n] = M[:, :g.n] @ multiplier_matrix(g, 1.0 / np.sqrt(w))
        return M

    @cached_property
    def modes(self):
        """(mu, Q) = eigh(L) of a static block matrix [[0, I], [-L, -nu I]]:
        the eigenvalues of L in ascending order and its orthonormal
        eigenvectors.  The block structure is checked exactly and the
        symmetry of L to SYMMETRY_TOL (relative), else ModalStructureError."""
        n = self.grid.n
        M = self.matrix
        top, damp = M[:n, n:], M[n:, n:]
        if (np.any(M[:n, :n]) or np.count_nonzero(top) != n
                or np.any(np.diagonal(top) != 1.0)
                or np.count_nonzero(damp) != n
                or np.any(np.diagonal(damp) != -self.nu)):
            raise ModalStructureError(
                f"kind {self.kind} matrix is not [[0, I], [-L, -nu I]]")
        L = -M[n:, :n]
        asym = float(np.max(np.abs(L - L.T)) / np.max(np.abs(L)))
        if asym > SYMMETRY_TOL:
            raise ModalStructureError(
                f"L is not symmetric: max |L - L^T| / max |L| = {asym:.2e} "
                f"> {SYMMETRY_TOL:.0e}")
        return sla.eigh(L)


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
    scal = Linearization(g, profile.reconstruct(), c, nu, H).dense()
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, :n] = -scal
    M[n:, n:] = -nu * np.eye(n)
    if with_c and c != 0.0:
        M[n:, n:] += 2.0 * c * multiplier_matrix(g, g.k_deriv)
    kind = "Ac" if with_c else "A"
    return DiscretizedOperator(kind, M, g, nu, c, H, profile)


def build_Bc(moving: Profile, static: Profile) -> DiscretizedOperator:
    """B_c = A_c(moving) - A(static), both on the same grid and damping.

    Only the bottom row [L - L_c, 2c d_z] is nonzero, so it alone is
    written, into a zero 2n x 2n matrix whose top n rows stay unwritten and
    so never become resident.  Each entry takes the floating-point
    operations of the difference of the two assembled blocks, so the matrix
    is bitwise that difference."""
    if moving.grid != static.grid:
        raise ValueError("profiles must share a grid")
    nu = moving.nu
    if nu <= 0:
        raise ValueError("nu must be positive")
    g = moving.grid
    n = g.n
    c = moving.c
    Lc = Linearization(g, moving.reconstruct(), c, nu, moving.H).dense()
    L = Linearization(g, static.reconstruct(), 0.0, nu, 0.0).dense()
    M = np.zeros((2 * n, 2 * n))
    np.subtract(L, Lc, out=M[n:, :n])       # = (-L_c) - (-L) bit for bit
    del L, Lc
    damp = -nu * np.eye(n)
    drift = M[n:, n:]
    drift[...] = damp
    if c != 0.0:
        drift += 2.0 * c * multiplier_matrix(g, g.k_deriv)
    drift -= damp
    return DiscretizedOperator("Bc", M, g, nu, c, moving.H, moving)


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
    import scipy.sparse.linalg as spla   # ARPACK, loaded on first use
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


def _right_zero_mode(op: DiscretizedOperator):
    """(lu, v): the LU factors of the matrix and its real eigenvector of
    smallest |lambda|, oriented along the profile derivative (increasing
    wall) when the operator carries a profile."""
    lu = sla.lu_factor(op.matrix)
    _, vecs = _two_eigs_nearest_zero(op.matrix, lu, trans=0)
    v = _real_phase(vecs[:, 0])
    if op.profile is not None:
        dpsi = derivative(op.profile.theta, 1).values
        if np.dot(v[:op.grid.n], dpsi) < 0:
            v = -v
    return lu, v


def translation_mode(op: DiscretizedOperator) -> np.ndarray:
    """Discrete translation zero mode: the eigenvector of smallest |lambda|.

    The spectral derivative of the profile is a near-null direction in the
    interior but carries an O(1) defect concentrated within a few grid
    spacings of the seam x = +-L, where the periodization breaks translation
    equivariance (sin theta jumps sign there).  The eigenvector agrees with
    the profile derivative to ~1e-6 in overlap and satisfies the zero-mode
    bound; use it whenever "the translation mode" is meant discretely.
    """
    _, v = _right_zero_mode(op)
    return v / np.linalg.norm(v)


def null_pair(op: DiscretizedOperator) -> NullPair:
    """Translation zero mode of A_c: right and left eigenvectors nearest 0
    (left in the weighted-adjoint sense)."""
    if not op.is_block:
        raise ValueError("null_pair needs a block operator")
    if op.profile is None:
        raise ValueError("operator carries no profile")
    g = op.grid
    lu, right = _right_zero_mode(op)
    right = right / weighted_state_norm(g, right)

    vals_t, vecs_t = _two_eigs_nearest_zero(op.matrix, lu, trans=1)
    lam0, lam1 = vals_t
    if abs(lam1) < 10 * abs(lam0):
        raise RuntimeError(
            f"zero mode not separated: |lambda0| = {abs(lam0):.2e}, "
            f"next |lambda| = {abs(lam1):.2e} (need 10x)")
    # weighted adjoint eigenvector: left = W^{-1} y with A^T y ~ 0
    left = _weight(g, _real_phase(vecs_t[:, 0]), inverse=True)
    left = left / weighted_state_norm(g, left)
    # <right, left>_W = dx * right^T W left
    overlap = float(g.dx * np.dot(right, np.conj(_weight(g, left))).real)
    return NullPair(right, left, overlap, complex(vals_t[0]), complex(vals_t[1]), g)


def projector_matrix(pair: NullPair) -> np.ndarray:
    """Spectral projector P_c U = U - <U, left>_W / R_c * right."""
    g = pair.grid
    return (np.eye(2 * g.n)
            - np.outer(pair.right, g.dx * _weight(g, pair.left)) / pair.overlap)


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
