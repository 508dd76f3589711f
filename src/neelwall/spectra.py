"""Spectra, resolvent sweeps, relative-bound constants, resolvent inequalities.

Resolvent norms ||(A - lam)^{-1}||_W and ||A (A - lam)^{-1}||_W in the
H1 x L2 geometry W are computed for the static A = [[0, I], [-L, -nu]]
only, the operator the paper bounds on the gap region; the moving wall
enters as the relatively bounded perturbation B_c of A, through
A_c - lam = (I + B_c R(lam))(A - lam), not through a resolvent of its own.
L is symmetric, so eigh(L) diagonalizes the quadratic pencil and the
resolvent is explicit in the modes; the weight enters through one Cholesky
factor C and its inverse, both formed once and shared by every lam.  A
block of lam's then costs one real triangular product with C and one with
C^{-1} per application of the weighted resolvent or its adjoint (BLAS-3),
and the spectrum is the pencil image of sigma(L).  eigh(L) is the operator's
cached DiscretizedOperator.modes, which also gives res_inequality_trials
its Lambda0 and restricted inverse: one eigh(L) per operator.  Any other
matrix (A_c with c != 0 included) raises linops.ModalStructureError.

The norm ||S||_2 of the weighted resolvent S (see ResolventCalculator) is
the top Ritz value of three-term Lanczos on S*S (_gk_batch), which stores
no Krylov basis and needs no reorthogonalization (Paige 1976; Parlett,
ch. 13), run in lockstep over a block of lam's sized by its working set;
sweeps evaluate each conjugate pair once (the weighted matrix is real).
Eigenvalues are geometry-invariant, so eigen-reports work on the raw real
matrices.  eig_report has three eigen paths, named in meta["solver"]:
"eigh" for the symmetric L; "hamiltonian" for a moving A_c whose
K~ = sym(L_c) - nu^2/4 has one negative eigenvalue, where the gyroscopic
pencil puts all of sigma(A_c) but one real pair on Re lam = -nu/2
(linops.DiscretizedOperator.hamiltonian_spectrum: eigh of size n and
eigvalsh of size 2n - 2); and "dgeev" for the rest.  The static A stays on
dgeev: criterion 05's pencil check compares eigh(L) with an independent
dense eigvals(A), so its report is never derived from sigma(L).  An A_c
whose K~ has more negative eigenvalues (Lambda0 < nu^2/4) has more pairs
off the line and stays on dgeev too.

The numerical abscissa of A is closed form in the same modal factor C (one
eigh of size n, no random start).  Nearest-point queries on spectra
(distance to sigma(A), the pencil cross-check, eigenvalue matching) are
brute force in numpy over row chunks of a few MB (_nearest), so this module
loads neither scipy.spatial nor scipy's sparse package, in any use.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas

from .grid import apply_multiplier, derivative, l2_inner, multiplier_matrix
from .linops import DiscretizedOperator, a_perp_inverse
from .profiles import Linearization


@dataclass
class SpectrumReport:
    """Eigenvalues sorted by real part (descending) plus gap diagnostics."""

    eigenvalues: np.ndarray
    lambda0: complex
    gap: float               # zeta_num = -max{Re lam : lam != lambda0}
    Lambda0_num: float | None  # second-smallest eigenvalue (scalar kinds)
    multiplicity0: int       # eigenvalues within 1e-6 of lambda0
    kind: str
    meta: dict = dc_field(default_factory=dict)

    def count_inside_square(self, delta: float) -> int:
        lam = self.eigenvalues
        return int(np.sum((np.abs(lam.real) < delta) & (np.abs(lam.imag) < delta)))


def eig_report(op: DiscretizedOperator) -> SpectrumReport:
    """Full eigen-decomposition report of a discretized operator.

    meta["solver"] names the eigensolver: "eigh" for L, "hamiltonian" for
    an A_c whose K~ has one negative eigenvalue (then meta also carries the
    real pair, its Newton steps and the structure residual), and "dgeev"
    for everything else, the static A and the non-symmetric L_c included.
    gap is the scalar kinds' distance above lambda0, the blocks' left."""
    meta = {"L": op.grid.L, "n": op.grid.n, "nu": op.nu, "c": op.c,
            "H": op.H}
    ham = op.hamiltonian_spectrum() if op.kind == "Ac" else None
    if op.kind == "L":
        vals = sla.eigh(0.5 * (op.matrix + op.matrix.T), eigvals_only=True)
        vals = vals.astype(complex)
        meta["solver"] = "eigh"
    elif ham is not None:
        vals = ham.eigenvalues
        meta.update(solver="hamiltonian", pair=ham.pair,
                    newton_steps=ham.newton_steps,
                    structure_residual=ham.structure_residual)
    else:
        try:
            vals = sla.eigvals(op._full(), overwrite_a=True)
        except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
            cond = np.linalg.cond(op.matrix)
            raise RuntimeError(
                f"eigensolver failed for kind {op.kind} "
                f"(condition number {cond:.3e})") from exc
        meta["solver"] = "dgeev"
    order = np.argsort(-vals.real)
    vals = vals[order]
    i0 = int(np.argmin(np.abs(vals)))
    lam0 = complex(vals[i0])
    rest = np.delete(vals, i0)
    if not op.is_block:
        gap = float(np.min(rest.real))          # distance above 0 on the line
        Lambda0 = float(np.sort(vals.real)[1])
    else:
        gap = float(-np.max(rest.real))
        Lambda0 = None
    mult = int(np.sum(np.abs(vals - lam0) < 1e-6))
    return SpectrumReport(vals, lam0, gap, Lambda0, mult, op.kind, meta=meta)


def pencil_gap(nu: float, Lambda0: float) -> float:
    """Spectral gap implied by the quadratic pencil lam^2 + nu lam + Lam = 0
    on real spectrum [Lambda0, inf)."""
    return min(nu / 2.0, (nu - np.sqrt(max(nu**2 - 4.0 * Lambda0, 0.0))) / 2.0)


def pencil_eigenvalues(L_vals: np.ndarray, nu: float) -> np.ndarray:
    """Image of sigma(L) under the pencil map: roots of lam^2 + nu lam + Lam."""
    Lam = np.asarray(L_vals, dtype=complex)
    disc = np.sqrt(nu**2 - 4.0 * Lam)
    return np.concatenate([(-nu + disc) / 2.0, (-nu - disc) / 2.0])


_NEAREST_CHUNK = 1 << 18   # point-target distances per chunk (2 MB per array)


def _nearest(points, targets: np.ndarray, k: int = 1):
    """Distances and indices, each (len(points), k), of the k targets
    nearest to each point in the complex plane, in no particular order.

    Brute force over row chunks of about _NEAREST_CHUNK distances, so two
    spectra of 4096 points take a few MB of work space.  Distances are
    sqrt(dx^2 + dy^2), the Euclidean distance of the (Re, Im) plane."""
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    targets = np.asarray(targets, dtype=complex)
    tx, ty = targets.real, targets.imag
    k = min(k, len(targets))
    rows = max(1, _NEAREST_CHUNK // len(targets))
    dist = np.empty((len(pts), k))
    idx = np.empty((len(pts), k), dtype=np.intp)
    for s in range(0, len(pts), rows):
        p = pts[s:s + rows]
        d2 = p.real[:, None] - tx
        d2 *= d2
        dy = p.imag[:, None] - ty
        dy *= dy
        d2 += dy
        j = np.argpartition(d2, k - 1, axis=1)[:, :k]
        idx[s:s + rows] = j
        dist[s:s + rows] = np.take_along_axis(d2, j, axis=1)
    return np.sqrt(dist), idx


def pencil_crosscheck(L_report: SpectrumReport, A_report: SpectrumReport,
                      nu: float) -> float:
    """Max distance between the pencil image of sigma(L) and sigma(A)."""
    pred = pencil_eigenvalues(L_report.eigenvalues, nu)
    d, _ = _nearest(pred, A_report.eigenvalues)
    return float(np.max(d))


def match_eigenvalues(base: np.ndarray, perturbed: np.ndarray):
    """Greedy nearest-neighbor one-to-one matching between two spectra.

    Returns (pairs, drifts, unmatched): pairs of indices (i_base, i_pert),
    their distances, and indices of base eigenvalues left without a partner
    among their 8 nearest perturbed eigenvalues.
    """
    dists, idxs = _nearest(base, perturbed, k=8)
    kmax = dists.shape[1]
    candidates = sorted(
        (dists[i, j], i, idxs[i, j])
        for i in range(len(base)) for j in range(kmax))
    taken_b, taken_p = set(), set()
    pairs, drifts = [], []
    for d, i, j in candidates:
        if i in taken_b or j in taken_p:
            continue
        taken_b.add(i)
        taken_p.add(j)
        pairs.append((i, int(j)))
        drifts.append(float(d))
    unmatched = [i for i in range(len(base)) if i not in taken_b]
    return pairs, np.array(drifts), unmatched


def numerical_abscissa(op: DiscretizedOperator) -> float:
    """ResolventCalculator(op).w, the numerical abscissa of the static A."""
    return ResolventCalculator(op).w


@dataclass(slots=True)
class ResolventSample:
    """||(A - lam)^{-1}||_W, ||A (A - lam)^{-1}||_W and lam's sub-region."""

    lam: complex
    norm_inv: float
    norm_composed: float
    region: str


class SpectrumDistanceError(ValueError):
    """A resolvent norm was requested within SPECTRUM_MIN_DISTANCE of the
    computed spectrum."""


SPECTRUM_MIN_DISTANCE = 1e-8   # resolvents closer to sigma(A) are refused
GK_MIN_ITER = 12          # steps before the stagnation test may stop a lambda
GK_MAX_ITER = 80          # Lanczos steps per lambda at most
GK_TOL = 5e-4             # mean relative change per step that stops a lambda
_BLOCK_BYTES = 1 << 26    # working set of one block of lam's (64 MiB)
_BLOCK_VECTORS = 8        # complex64 rows of length 2n per lam in that set


def _top_eigenvalue(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric tridiagonal matrix with diagonal
    alphas (m, k) and off-diagonal betas (m, k - 1), by one batched
    eigvalsh."""
    m, k = alphas.shape
    i = np.arange(k)
    T = np.zeros((m, k, k))
    T[:, i, i] = alphas
    T[:, i[1:], i[:-1]] = betas
    return np.linalg.eigvalsh(T)[:, -1]


def _gk_batch(matvec, rmatvec, m, size, tol, max_iter, seed,
              dtype=np.complex128) -> tuple[np.ndarray, np.ndarray]:
    """sigma_max of m operators S and the Krylov steps each took, by the
    three-term Lanczos recurrence on S*S (one-sided Golub-Kahan), run in
    lockstep from one random start vector.

    matvec(X, act) applies operator act[j] to row j of X (len(act) x
    size); rmatvec applies the adjoints.  Step j forms w = S*(S v_j) -
    alpha_j v_j - beta_{j-1} v_{j-1}, alpha_j = ||S v_j||^2, from the last
    two vectors: no basis is stored or reorthogonalized against.  The top
    Ritz value sqrt(lambda_max(T_j)) needs none: in finite precision Ritz
    values stay in the spectrum up to rounding and lost orthogonality only
    repeats converged ones (Paige 1976; Parlett, The Symmetric Eigenvalue
    Problem, ch. 13), and lambda_max(T_j) never decreases (T_j leads
    T_{j+1}).  An operator leaves the block once its estimate has changed
    by at most 2 tol (relative) over two steps, after GK_MIN_ITER steps
    (below a clustered top one step's change can dip under tol while the
    estimate is percents low), or its run terminates (b < 1e-12
    max(lambda_max, 1), the zero operator at once).  Vectors stay in
    `dtype`, so single-precision products are not upcast.

    One batched eigvalsh per step solves the small T_j, only where the
    estimate is read: from step GK_MIN_ITER - 2 on (the stagnation test
    compares with two steps before), at the last step, and on rows that
    may meet the breakdown test.  lambda_max(T) <= ||T||_F, so a row with
    b >= 2e-12 max(||T||_F, 1) cannot (the factor 2 covers rounding)."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v0 = (v0 / np.linalg.norm(v0)).astype(dtype)
    act = np.arange(m)
    v, v_prev = np.tile(v0, (m, 1)), None
    alphas, betas = np.zeros((2, m, max_iter))
    est, est_before = np.zeros((2, m))     # at this step and the one before
    steps = np.zeros(m, dtype=int)
    for j in range(max_iter):
        u = matvec(v, act)
        # row norms over the real view: one temporary, not two
        a = np.linalg.norm(u.view(u.real.dtype), axis=1) ** 2
        w = rmatvec(u, act)
        del u                      # out of the working set before S v_{j+1}
        w -= a[:, None] * v
        if j:
            w -= b[:, None] * v_prev
        b = np.linalg.norm(w.view(w.real.dtype), axis=1)
        alphas[act, j], betas[act, j] = a, b
        steps[act] = j + 1
        if j + 3 >= GK_MIN_ITER or j + 1 == max_iter:
            rows = np.ones(len(act), dtype=bool)
        else:
            fro = np.sqrt(np.sum(alphas[act, :j + 1]**2, axis=1)
                          + 2.0 * np.sum(betas[act, :j]**2, axis=1))
            rows = b < 2e-12 * np.maximum(fro, 1.0)
        done = np.zeros(len(act), dtype=bool)
        if rows.any():
            live = act[rows]
            top = _top_eigenvalue(alphas[live, :j + 1], betas[live, :j])
            new = np.sqrt(np.maximum(top, 0.0))
            stop = b[rows] < 1e-12 * np.maximum(top, 1.0)
            if j + 1 >= GK_MIN_ITER:
                stop |= np.abs(new - est_before[live]) <= 2.0 * tol * new
            done[rows] = stop
            est_before[live] = est[live]
            est[live] = new
        if done.any():
            keep = ~done
            act = act[keep]
            if not act.size:
                break
            v, w, b = v[keep], w[keep], b[keep]
        w /= b[:, None]
        v_prev, v = v, w
    return est, steps


def _triangular_product(F: np.ndarray, X: np.ndarray,
                        trans: bool = False) -> np.ndarray:
    """F x (F^T x if trans) for every row x of the complex64 X (a, n), with
    F real, upper triangular, float32 and in Fortran order: one strmm on
    the real and imaginary parts of every row at once, the rows going to a
    real (n, 2a) array and back.  It goes through scipy's BLAS:
    numpy and scipy may link separate OpenBLAS builds, whose idle thread
    pools then compete for the cores between alternating calls."""
    Z = np.array(X.T, order="C").view(np.float32)    # always a copy of X
    # F Z computed as (Z^T F^T)^T, so strmm overwrites the C-ordered Z
    Z = blas.strmm(1.0, F, Z.T, side=1, trans_a=not trans, overwrite_b=1)
    return Z.T.view(np.complex64).T


class ResolventCalculator:
    """Weighted resolvent norms ||(A - lam)^{-1}||_W and ||A (A - lam)^{-1}||_W
    of the static block operator A, from its modal factorization.

    A = [[0, I], [-L, -nu]] with symmetric L = Q diag(mu) Q^T (op.modes,
    which raises linops.ModalStructureError on any other structure, a
    moving A_c included), K = Q^T (1 + k^2) Q = C^T C (Cholesky), so that
    ||(A - lam)^{-1}||_W = ||S(lam)||_2 with

        S = diag(C, I) M_lam diag(C^{-1}, I),
        M_lam = [[-(nu+lam) R, -R], [I - lam (nu+lam) R, -lam R]],
        R = diag(1 / (mu + lam^2 + nu lam)).

    C and its inverse (dtrtri, once, in double) are shared by every lam,
    so a block of lam's costs one real triangular product with C and one
    with C^{-1} per application of S or S*.  These run in single precision
    with no double-precision redo: C is well conditioned (cond(K) =
    max(1 + k^2)), and the near-singular factor R is formed in double
    before it is rounded.  ||S||_2 comes from three-term Lanczos on S*S
    (_gk_batch, at most GK_MAX_ITER steps to relative tolerance GK_TOL), in
    blocks of lam's sized by _block_size.  norm_inv and norm_composed take
    one lam or a 1-D array of them; last_steps holds the Krylov steps each
    lam of the latest call took."""

    def __init__(self, op: DiscretizedOperator):
        self.op = op
        self._mu, Q = op.modes
        K = apply_multiplier(op.grid, Q.T, op.grid.h1_weight) @ Q
        C = sla.cholesky(0.5 * (K + K.T), check_finite=False)
        del K
        Cinv, _ = sla.lapack.dtrtri(C)
        self._X = 0.5 * (C - Cinv.T * self._mu)     # kept until w is read
        self._C = np.asfortranarray(C, np.float32)
        self._Cinv = np.asfortranarray(Cinv, np.float32)
        self.spectrum = pencil_eigenvalues(self._mu, op.nu)
        self.last_steps = np.zeros(0, dtype=int)

    @cached_property
    def w(self) -> float:
        """Largest eigenvalue w of the symmetric part of A in the H1 x L2
        geometry: the sharp w with ||(A - lam)^{-1}||_W <= 1/(Re lam - w)
        (Kato, IV 3).  In the W-orthonormal coordinates (C Q^T u, Q^T v),
        A is [[0, C], [-diag(mu) C^{-1}, -nu]]; its symmetric part
        [[0, X], [X^T, -nu]], X = (C - C^{-T} diag(mu))/2, has the
        eigenvalues (-nu +- sqrt(nu^2 + 4 sigma^2))/2 per singular value
        sigma of X, so w comes from sigma_max(X)^2, the top eigenvalue of
        X X^T, in double precision on first use."""
        n, nu = self._X.shape[0], self.op.nu
        sig2 = sla.eigh(blas.dsyrk(1.0, self._X.T, trans=1),   # X X^T
                        lower=False, eigvals_only=True, overwrite_a=True,
                        check_finite=False, subset_by_index=[n - 1, n - 1])[0]
        del self._X
        return float(2.0 * sig2 / (nu + np.sqrt(nu**2 + 4.0 * sig2)))

    def spectrum_distance(self, lams) -> np.ndarray:
        """Distance from each lam to the nearest computed eigenvalue."""
        return _nearest(lams, self.spectrum)[0][:, 0]

    def _block_size(self) -> int:
        """Lambdas per block: _BLOCK_VECTORS complex64 rows of length 2n per
        lambda (the two Lanczos vectors of _gk_batch, S v and the
        temporaries of S and S*) fit in _BLOCK_BYTES."""
        return max(1, _BLOCK_BYTES // (_BLOCK_VECTORS * 2 * self.op.grid.n * 8))

    def _modal_ops(self, lams: np.ndarray, composed: bool):
        """(matvec, rmatvec) of S(lam) (or I + lam S(lam)) for a block."""
        n, nu, C, Cinv = self.op.grid.n, self.op.nu, self._C, self._Cinv
        R = (1.0 / (self._mu + (lams * lams + nu * lams)[:, None])
             ).astype(np.complex64)
        lams = lams.astype(np.complex64)[:, None]

        def plus_identity(out, X, lam):      # X + lam out, in out
            out *= lam
            out += X
            return out

        def mv(X, act):
            lam = lams[act]
            z = _triangular_product(Cinv, X[:, :n])
            top = -R[act] * ((nu + lam) * z + X[:, n:])
            out = np.concatenate([_triangular_product(C, top), z + lam * top],
                                 axis=1)
            return plus_identity(out, X, lam) if composed else out

        def rmv(Y, act):
            clam = np.conj(lams[act])
            t = -np.conj(R[act]) * (_triangular_product(C, Y[:, :n], trans=True)
                                    + clam * Y[:, n:])
            out = np.concatenate([_triangular_product(
                Cinv, Y[:, n:] + (nu + clam) * t, trans=True), t], axis=1)
            return plus_identity(out, Y, clam) if composed else out

        return mv, rmv

    def _norms(self, lam, composed: bool):
        """norm_inv or norm_composed: a float for one lam, else an array."""
        lams = np.atleast_1d(np.asarray(lam, dtype=complex))
        d = self.spectrum_distance(lams)
        if np.any(d <= SPECTRUM_MIN_DISTANCE):
            i = int(np.argmin(d))
            raise SpectrumDistanceError(
                f"lambda = {lams[i]} within {SPECTRUM_MIN_DISTANCE:.0e} of the "
                f"computed spectrum (distance {d[i]:.2e})")
        seed = 54321 if composed else 12345
        size = self.spectrum.shape[0]
        m = self._block_size()
        out = np.empty(len(lams))
        self.last_steps = np.empty(len(lams), dtype=int)
        for s in range(0, len(lams), m):
            block = lams[s:s + m]
            mv, rmv = self._modal_ops(block, composed)
            out[s:s + m], self.last_steps[s:s + m] = _gk_batch(
                mv, rmv, len(block), size, GK_TOL, GK_MAX_ITER, seed,
                dtype=np.complex64)
        return float(out[0]) if np.ndim(lam) == 0 else out

    def norm_inv(self, lam):
        """||(A - lam)^{-1}||_W = 1/sigma_min(A - lam) in the weighted
        geometry, for one lam (returns a float) or a 1-D array of them."""
        return self._norms(lam, False)

    def norm_composed(self, lam):
        """||A (A - lam)^{-1}||_W = ||I + lam (A - lam)^{-1}||_W, for one lam
        or a 1-D array of them."""
        return self._norms(lam, True)


@dataclass
class SweepResult:
    samples: list
    sup_by_region: dict
    w: float
    M1: float
    delta: float
    flagged: bool            # any sample above 1e6
    envelope_margin: float   # max over G1 of ||A(A-lam)^{-1}|| / envelope
    krylov_steps_mean: float  # Lanczos steps per computed norm: mean
    krylov_steps_max: int     # and maximum

    @property
    def sup_G(self) -> float:
        return max(v for k, v in self.sup_by_region.items() if k != "Gamma")


def gamma_square(delta: float, m: int) -> np.ndarray:
    """m points on the square contour with side 2*delta centered at 0,
    starting at the corner delta(-1+i) and walking clockwise (each corner
    appears exactly once); m must be a positive multiple of 4, else
    ValueError."""
    if m <= 0 or m % 4:
        raise ValueError(f"m must be a positive multiple of 4, got {m}")
    fwd = np.linspace(-delta, delta, m // 4, endpoint=False)
    # odd about the side's midpoint, so the contour is its own conjugate
    fwd[1:] = 0.5 * (fwd[1:] - fwd[:0:-1])
    return np.concatenate([fwd + 1j * delta,       # top: (-d,d) -> (d,d)
                           delta - 1j * fwd,       # right: (d,d) -> (d,-d)
                           -fwd - 1j * delta,      # bottom: (d,-d) -> (-d,-d)
                           -delta + 1j * fwd])     # left: (-d,-d) -> (-d,d)


def in_region_G(lam, delta: float):
    """G = {Re lam > -delta} minus the open square int conv(Gamma);
    elementwise on arrays."""
    re, im = np.real(lam), np.imag(lam)
    return (re > -delta) & ((np.abs(re) >= delta) | (np.abs(im) >= delta))


def resolvent_sweep(op: DiscretizedOperator, delta: float,
                    n_radial: int = 40, n_angular: int = 40,
                    n_gamma: int = 64, w: float | None = None,
                    calc: ResolventCalculator | None = None) -> SweepResult:
    """Sample ||(A-lam)^{-1}||_W and ||A(A-lam)^{-1}||_W over the gap region.

    The region right of Re lam = -delta (minus the contour square) is covered
    by an n_radial x n_angular log-polar grid truncated at
    |lam| = 10^3 max(1, nu), plus n_gamma contour points.  Sub-regions:
    G1 (real part beyond M1 = max(1, nu, 2|w|), near-real), G2
    (|Im| > delta), G3 (remainder).  Both norms are Lanczos estimates
    (calc.norm_inv, calc.norm_composed) at every distinct sample, an exact
    conjugate pair counting once.  op is the static A (any other operator
    raises ModalStructureError); w defaults to calc.w, the numerical
    abscissa from the calculator's own modal factor.
    delta must be finite and positive, with exactly one point of
    calc.spectrum inside the contour square and none in the closed G;
    else ValueError, before any Lanczos step.  A sample within
    SPECTRUM_MIN_DISTANCE of calc.spectrum (an eigenvalue that close to
    Gamma) raises SpectrumDistanceError.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    nu = op.nu
    calc = calc or ResolventCalculator(op)
    re, im = calc.spectrum.real, calc.spectrum.imag
    inside = (np.abs(re) < delta) & (np.abs(im) < delta)
    in_G = (re >= -delta) & ~inside
    if inside.sum() != 1 or in_G.any():
        raise ValueError(
            f"delta = {delta} does not separate lambda0 from the rest of "
            f"sigma(A): {inside.sum()} eigenvalues inside the contour "
            f"square (one expected), {in_G.sum()} in the closed region G")
    w = calc.w if w is None else w
    M1 = max(1.0, nu, 2.0 * abs(w))
    rmax = 1e3 * max(1.0, nu)
    radii = np.geomspace(delta / 4.0, rmax, n_radial)[:, None]
    angles = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, n_angular)
    angles = 0.5 * (angles - angles[::-1])       # exactly odd in the index
    # mirror points are exact conjugates, and share one key below
    phase = np.exp(1j * np.abs(angles))
    np.conjugate(phase, out=phase, where=angles < 0)
    polar = -delta + radii * phase
    # points inside the contour square move radially past it (count kept)
    polar = np.where(in_region_G(polar, delta), polar,
                     -delta + (radii + 2.5 * delta) * phase)
    # The log-polar grid leaves G1 (near-real beyond M1) almost empty: any
    # nonzero angle has |Im lam| > delta once r is large.  Add a dedicated
    # near-real line so the far-field envelope bound is actually exercised.
    line = (np.geomspace(M1 + delta, rmax, n_radial)[:, None]
            + 1j * (np.array([-0.5, 0.0, 0.5]) * delta))
    lams = np.concatenate([polar.ravel(), line.ravel()])
    regions = [_label(lam, delta, M1) for lam in lams] + ["Gamma"] * n_gamma
    lams = np.concatenate([lams, gamma_square(delta, n_gamma)])

    # The weighted matrix is real, so norms at conjugate points coincide;
    # keying on (Re lam, |Im lam|) computes each exact mirror pair once.
    keys = list(zip(lams.real.tolist(), np.abs(lams.imag).tolist()))
    first = {}
    for key, lam in zip(keys, lams):
        first.setdefault(key, lam)
    distinct = np.array(list(first.values()), dtype=complex)
    ninv, inv_steps = calc.norm_inv(distinct), calc.last_steps
    ncomp = calc.norm_composed(distinct)
    steps = np.concatenate([inv_steps, calc.last_steps])
    norms = dict(zip(first, zip(ninv.tolist(), ncomp.tolist())))

    samples = []
    sup_by_region: dict = {}
    envelope_margin = 0.0
    flagged = False
    for key, lam, region in zip(keys, lams, regions):
        ninv, ncomp = norms[key]
        samples.append(ResolventSample(complex(lam), ninv, ncomp, region))
        sup_by_region[region] = max(sup_by_region.get(region, 0.0), ninv)
        flagged = flagged or ninv > 1e6
        if region == "G1" and lam.real > w:
            env = 1.0 + abs(lam) / (lam.real - w)
            envelope_margin = max(envelope_margin, ncomp / env)
    return SweepResult(samples, sup_by_region, float(w), float(M1),
                       float(delta), flagged, envelope_margin,
                       float(np.mean(steps)), int(np.max(steps)))


def _label(lam: complex, delta: float, M1: float) -> str:
    if abs(lam.imag) > delta:
        return "G2"
    if lam.real > M1:
        return "G1"
    return "G3"


# ---------------------------------------------------------------------------
# relative bound constants


@dataclass
class RelativeBoundPoint:
    """Constants (a, b) of ||B_c U|| <= a||U|| + b||A U|| at one wall speed."""

    c: float
    H: float
    a: float
    b: float


def relative_bound_fit(A_op: DiscretizedOperator, Bc_op: DiscretizedOperator,
                       n_samples: int = 500, seed: int = 0
                       ) -> RelativeBoundPoint:
    """Exact constants (a, b) with ||B_c U|| <= a||U|| + b||A U|| for every
    discrete state, in the H1 x L2 geometry.

    b = |c| sqrt(4 + c^2) is the high-frequency ratio of the principal
    symbols: the weighted B_c acts on mode k as the row (c^2 k, 2ick) and
    both singular values of the weighted A are ~ k.  Any smaller b lets
    a grow like k_max, so this is the b at which a no longer depends on
    the grid.  Then
        a^2 = lambda_max(B~^T B~ - b^2 A~^T A~)      (~: W^{1/2}-conjugated),
    so ||B_c U||^2 <= a^2||U||^2 + b^2||A U||^2 <= (a||U|| + b||A U||)^2,
    with equality in the first step on the maximizing eigenvector.  The
    constants are seed-free: n_samples and seed are accepted but unused.
    Exactly (0, 0) when B_c vanishes (c = 0)."""
    if not np.any(Bc_op.rows):
        return RelativeBoundPoint(Bc_op.c, Bc_op.H, 0.0, 0.0)
    g = A_op.grid
    n = g.n
    c = Bc_op.c
    b = abs(c) * np.sqrt(4.0 + c * c)
    w = g.h1_weight

    def lower_rows(op):
        # bottom n rows of W^{1/2} M W^{-1/2}: W^{-1/2} on the u columns only
        R = op.rows.copy()
        R[:, :n] = apply_multiplier(g, R[:, :n], 1.0 / np.sqrt(w))
        return R

    # B_c = A_c - A has zero top rows; the top rows [0, W^{1/2}] of A~ add
    # blockdiag(0, W) to its Gram matrix.  The weighted matrices are formed
    # row block by row block and not cached on the operators; dsyrk fills
    # the lower triangles, which is all eigh reads.
    G = blas.dsyrk(1.0, lower_rows(Bc_op), trans=1, lower=1)
    G = blas.dsyrk(-b * b, lower_rows(A_op), beta=1.0, c=G, trans=1,
                   lower=1, overwrite_c=1)
    G[n:, n:] -= b * b * multiplier_matrix(g, w)
    top = sla.eigh(G, lower=True, eigvals_only=True, overwrite_a=True,
                   check_finite=False, subset_by_index=[2 * n - 1, 2 * n - 1])
    a = float(np.sqrt(max(top[0], 0.0)))
    return RelativeBoundPoint(c, Bc_op.H, a, float(b))


# ---------------------------------------------------------------------------
# resolvent inequality trials


@dataclass
class TrialStats:
    n_trials: int
    n_pass_a: int
    min_defect_a: float
    C1: float
    C2: float
    seed: int


def sample_lambda_in_G(rng, delta: float, nu: float) -> complex:
    """Random point of G = {Re lam > -delta} \\ conv(Gamma), log-radial law."""
    while True:
        r = 10.0 ** rng.uniform(np.log10(delta / 2.0), np.log10(100.0 * max(1.0, nu)))
        phi = rng.uniform(-np.pi / 2, np.pi / 2)
        lam = -delta + r * np.exp(1j * phi)
        if in_region_G(lam, delta) and abs(lam) > 1e-6:
            return lam


def res_inequality_trials(A_op: DiscretizedOperator, delta: float,
                          trials: int = 100, seed: int = 0) -> TrialStats:
    """Check the a-form resolvent inequalities of the static block operator
    A_op on random perpendicular data.  Lambda0 = mu[1] and the inverse of
    A on ran(P) come from A_op's modes and profile, L from
    Linearization.matvec of the profile: ||f||_a^2 = <L f, f> =
    dx (x^T L x + y^T L y) for f = x + iy (L is real and symmetric).

    For (lam - A)U = F:   |conj(lam)||u||_a^2 + (lam+nu)||v||^2| <= ||U||_Z ||F||_Z.
    For (A - lam)Aperp^{-1}U = F: smallest feasible C1, C2 with
        lhs <= C1 (|lam| ||u||_a + |lam+nu| ||v||) ||F||_Z
        | ||u||_a - |lam+nu| Lambda0^{-1/2} ||v|| | <= C2 ||F||_Z.
    """
    aperp = a_perp_inverse(A_op)
    static, nu = A_op.profile, A_op.nu
    g = A_op.grid
    n = g.n
    rng = np.random.default_rng(seed)
    lin = Linearization(g, static.reconstruct())
    dth = derivative(static.theta, 1).values
    dth_nsq = float(np.dot(dth, dth))
    cut = np.abs(g.k) <= 0.75 * np.max(np.abs(g.k))
    Lambda0 = float(A_op.modes[0][1])

    def a_sq(f):
        return max(g.dx * (f.real @ lin.matvec(f.real)
                           + f.imag @ lin.matvec(f.imag)), 0.0)

    def rand_perp():
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.fft.ifft(cut * np.fft.fft(z))
        return z - (np.dot(z, dth) / dth_nsq) * dth

    n_pass = 0
    min_defect = np.inf
    C1 = 0.0
    C2 = 0.0
    for _ in range(trials):
        u, v = rand_perp(), rand_perp()
        lam = sample_lambda_in_G(rng, delta, nu)
        ua_sq = a_sq(u)
        v_sq = np.real(l2_inner(g, v, v))
        UZ = np.sqrt(ua_sq + v_sq)
        lhs = abs(np.conj(lam) * ua_sq + (lam + nu) * v_sq)

        # construction (a): F = (lam - A)U
        f = lam * u - v
        gg = lin.matvec(u.real) + 1j * lin.matvec(u.imag) + (lam + nu) * v
        fa_sq = a_sq(f)
        FZ = np.sqrt(fa_sq + np.real(l2_inner(g, gg, gg)))
        defect = UZ * FZ - lhs
        min_defect = min(min_defect, defect)
        if defect >= -1e-10 * UZ * FZ:
            n_pass += 1

        # construction (b): F = (A - lam) Aperp^{-1} U = U - lam Aperp^{-1} U
        U = np.concatenate([u, v])
        AiU = aperp(U.real) + 1j * aperp(U.imag)
        F = U - lam * AiU
        fb, gb = F[:n], F[n:]
        fb_sq = a_sq(fb)
        FZb = np.sqrt(fb_sq + np.real(l2_inner(g, gb, gb)))
        denom1 = (abs(lam) * np.sqrt(ua_sq) + abs(lam + nu) * np.sqrt(v_sq)) * FZb
        if denom1 > 0:
            C1 = max(C1, lhs / denom1)
        lhs2 = abs(np.sqrt(ua_sq) - abs(lam + nu) * np.sqrt(v_sq) / np.sqrt(Lambda0))
        if FZb > 0:
            C2 = max(C2, lhs2 / FZb)
    return TrialStats(trials, n_pass, float(min_defect), float(C1), float(C2), seed)
