"""Reference solvers for the supported penalized estimator families.

glasso, sparse_cov and positive_invcov run on one ADMM driver, :func:`_admm`
(one smooth/constrained proximal step, one soft-threshold or projection step,
scaled dual update, over-relaxation and residual-balanced rho); each solver
supplies only its two proximal maps, its start point and its certificate.
Convergence is declared only when an independently recomputed KKT residual
at the reported point falls below ``opts.tol * (1 + max|input|)``; the same
residual functions are exposed for verification, so the certificate never
reuses solver state, and a point with a non-finite entry never certifies.
The certificate runs every ``opts.check_every`` iterations, at the last
iteration, and at most once per window of ``check_every`` iterations when
both ADMM residual norms (primal |theta - z|_F, dual rho |z - z_old|_F) are
at most that tolerance.  Frobenius norms are at least the max-abs scale the
tolerance is stated in, so this trigger is conservative; it only decides
when to certify, never whether a point is optimal.

solve_decomposed solves the blocks of a screened input one after another and
certifies the reassembled point block by block: for the separable families
the KKT conditions and the objective split over the blocks, so the global
certificate costs one eigendecomposition per block, not one of the whole
matrix, and still reads only the input and the reported point.

fantope_spca keeps its own ADMM loop and still stops on its ADMM residuals
rather than on an independent certificate (ROADMAP item 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .penalty import GroupId, PenaltyKind, PenaltySpec
from .reductions import ReducedProblem, decompose_blocks, reassemble_blocks, reduce_input
from .symmat import SymMatrix, as_symmetric

__all__ = [
    "Family",
    "SolverOptions",
    "EstimatorSpec",
    "SolveReport",
    "BlockStat",
    "ConvergenceError",
    "NoSolutionError",
    "lasso",
    "nnls",
    "glasso",
    "fantope_project",
    "fantope_spca",
    "sparse_cov",
    "positive_invcov",
    "ising_logpartition",
    "ising_pmle",
    "solve",
    "solve_decomposed",
    "objective_at",
    "kkt_residual",
    "reduction_for",
]

SUPPORT_REL_TOL = 1e-8  # support mask: |theta| > tol * max|theta|
ISING_MAX_P = 15


class ConvergenceError(RuntimeError):
    """Solver exhausted its iteration budget before certifying optimality."""


class NoSolutionError(RuntimeError):
    """The requested minimizer does not exist for this input."""


class Family(Enum):
    LASSO = "lasso"
    NNLS = "nnls"
    GLASSO = "glasso"
    FANTOPE_SPCA = "fantope_spca"
    SPARSE_COV = "sparse_cov"
    POSITIVE_INVCOV = "positive_invcov"
    ISING_PMLE = "ising_pmle"


MATRIX_FAMILIES = {
    Family.GLASSO,
    Family.FANTOPE_SPCA,
    Family.SPARSE_COV,
    Family.POSITIVE_INVCOV,
    Family.ISING_PMLE,
}


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 10000
    rho: float = 1.0
    over_relax: float = 1.6
    adapt_rho: bool = True
    check_every: int = 25

    def __post_init__(self):
        needs = {
            "tol > 0": self.tol > 0,
            "max_iter >= 1": self.max_iter >= 1,
            "check_every >= 1": self.check_every >= 1,
            "rho > 0": self.rho > 0,
            "0 < over_relax < 2": 0 < self.over_relax < 2,
        }
        bad = [need for need, ok in needs.items() if not ok]
        if bad:
            raise ValueError(f"invalid solver options {self}: need {', '.join(bad)}")


@dataclass(frozen=True)
class EstimatorSpec:
    """Family plus enough parameters to solve and to reduce.

    ``penalty`` carries the regularizer; ``k`` is the trace budget of the
    Fantope family, ``eps`` the eigenvalue floor of the covariance family.
    """

    family: Family
    penalty: PenaltySpec
    k: int | None = None
    eps: float | None = None
    penalize_diagonal: bool = False
    opts: SolverOptions = field(default_factory=SolverOptions)


@dataclass(frozen=True)
class BlockStat:
    indices: tuple[int, ...]
    iterations: int
    seconds: float


@dataclass(frozen=True)
class SolveReport:
    theta: np.ndarray | SymMatrix
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    support: np.ndarray
    blocks: tuple[BlockStat, ...] | None = None


def _soft(a, t):
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def _scale(a) -> float:
    return 1.0 + float(np.max(np.abs(a))) if np.size(a) else 1.0


def _support(theta: np.ndarray, top: float | None = None) -> np.ndarray:
    """|theta| > SUPPORT_REL_TOL * top; top defaults to max|theta|."""
    if top is None:
        top = float(np.max(np.abs(theta))) if theta.size else 0.0
    return np.abs(theta) > SUPPORT_REL_TOL * top


def _report_matrix(theta, objective, kkt, iters, converged) -> SolveReport:
    return SolveReport(
        SymMatrix.wrap(theta), objective, kkt, iters, converged, _support(theta)
    )


def _certificate(residual):
    """Make a KKT residual return inf at a point with a non-finite entry.

    The point is the residual's last positional argument.  Without this a
    NaN point could certify: ``max(0.0, nan)`` is 0.0.
    """
    @wraps(residual)
    def checked(*args, **kwargs):
        if not np.all(np.isfinite(args[-1])):
            return np.inf
        return residual(*args, **kwargs)

    return checked


def _admm(name, prox_f, prox_g, z0, certify, opts: SolverOptions, tol: float):
    """Over-relaxed scaled ADMM with residual-balanced rho for
    min f(theta) + g(z) s.t. theta = z (Boyd et al. 2011, sec. 3.4.1).

    ``prox_f(v, rho)`` and ``prox_g(a, rho)`` return argmin f + rho/2 |. - v|^2
    and argmin g + rho/2 |. - a|^2.  ``certify(theta, z)`` returns (residual,
    reported point) and runs every ``opts.check_every`` iterations, at the
    last iteration, and, at most once in each window of ``check_every``
    iterations, at the first iteration whose primal and dual residual norms
    |theta - z|_F and rho |z - z_old|_F are both <= tol (sec. 3.3.1).  A
    Frobenius norm is at least the largest entry, the scale ``tol`` is
    stated in, so that trigger is conservative; the window bound keeps a
    stalled solve from certifying on every iteration.  The certificate is
    the only stopping rule and leaves the iterates and rho untouched: the
    first point whose residual is <= tol is returned as (point, residual,
    iterations).  Raises ConvergenceError otherwise.
    """
    rho = opts.rho
    alpha = opts.over_relax
    z = z0
    u = np.zeros_like(z0)
    early_window = -1
    for it in range(1, opts.max_iter + 1):
        theta = prox_f(z - u, rho)
        z_old = z
        th_hat = alpha * theta + (1.0 - alpha) * z_old
        z = prox_g(th_hat + u, rho)
        u = u + th_hat - z
        r_norm = float(np.linalg.norm(theta - z))
        s_norm = rho * float(np.linalg.norm(z - z_old))
        window = (it - 1) // opts.check_every
        early = max(r_norm, s_norm) <= tol and window != early_window
        if early:
            early_window = window
        if early or it % opts.check_every == 0 or it == opts.max_iter:
            resid, point = certify(theta, z)
            if resid <= tol:
                return point, resid, it
        if opts.adapt_rho:
            if r_norm > 10.0 * s_norm and rho < 1e5:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm and rho > 1e-3:
                rho /= 2.0
                u *= 2.0
    raise ConvergenceError(
        f"{name} did not reach tol {tol:.3e} in {opts.max_iter} iterations"
    )


def _require_certified(name, resid, tol):
    """A closed-form point certifies like an ADMM one: raise unless resid <= tol."""
    if not resid <= tol:
        raise ConvergenceError(f"{name}: KKT residual {resid:.3e} above tol {tol:.3e}")


def _logdet_prox(s):
    """prox_f for f(theta) = -log det(theta) + <s, theta>: one
    eigendecomposition, eigenvalues mapped to the positive root."""
    def prox(v, rho):
        w, q = np.linalg.eigh(rho * v - s)
        gamma = (w + np.sqrt(w * w + 4.0 * rho)) / (2.0 * rho)
        theta = (q * gamma) @ q.T
        return (theta + theta.T) / 2.0

    return prox


# =====================================================================
# closed-form vector families
# =====================================================================

def lasso(x, lam) -> np.ndarray:
    """Entrywise soft threshold: the l1-penalized proximal point of x."""
    x = np.asarray(x, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape)
    if np.any(lam < 0):
        raise ValueError("penalty weights must be nonnegative")
    return np.where(np.abs(x) > lam, x - lam * np.sign(x), 0.0)


def nnls(x) -> np.ndarray:
    """Nonnegative least squares with identity design: the positive part."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x, 0.0)


# =====================================================================
# graphical lasso
# =====================================================================

def _lambda_matrix(lam, p: int, penalize_diagonal: bool) -> np.ndarray:
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.ndim == 0:
        out = np.full((p, p), float(lam_arr))
        if not penalize_diagonal:
            np.fill_diagonal(out, 0.0)
        return out
    if lam_arr.shape != (p, p):
        raise ValueError(f"weight matrix must be ({p}, {p})")
    if np.max(np.abs(lam_arr - lam_arr.T)) > 0:
        raise ValueError("weight matrix must be symmetric")
    if np.any(lam_arr < 0):
        raise ValueError("penalty weights must be nonnegative")
    return lam_arr.copy()


@_certificate
def _glasso_kkt(s, lam_mat, z, top=None) -> float:
    w, q = np.linalg.eigh(z)
    if w[0] <= 0.0:
        return np.inf
    inv = (q / w) @ q.T
    e = inv - s
    on = _support(z, top)
    resid_on = np.abs(e - lam_mat * np.sign(z))[on]
    resid_off = np.maximum(np.abs(e) - lam_mat, 0.0)[~on]
    worst = 0.0
    if resid_on.size:
        worst = max(worst, float(resid_on.max()))
    if resid_off.size:
        worst = max(worst, float(resid_off.max()))
    return worst


def _spectrum(z, blocks=None) -> np.ndarray:
    """Eigenvalues of z; with ``blocks`` (np.ix_ index pairs), those of its
    diagonal blocks, which are z's own when z is zero off them."""
    if blocks is None:
        return np.linalg.eigvalsh(z)
    return np.concatenate([np.linalg.eigvalsh(z[ix]) for ix in blocks])


def _glasso_objective(s, lam_mat, z, blocks=None) -> float:
    w = _spectrum(z, blocks)
    return float(-np.sum(np.log(w)) + np.sum(s * z) + np.sum(lam_mat * np.abs(z)))


def glasso(x: SymMatrix, lam, opts: SolverOptions | None = None,
           penalize_diagonal: bool = False) -> SolveReport:
    """Penalized inverse-covariance fit.

    Minimizes -log det(theta) + <x, theta> + sum_ij L_ij |theta_ij| over
    positive definite theta.  ``lam`` is a scalar (applied off-diagonal
    unless ``penalize_diagonal``) or a full symmetric weight matrix.

    ADMM with a log-det proximal step (one eigendecomposition per
    iteration) and an entrywise soft threshold; the soft-thresholded iterate
    is reported, so zeros in the solution are exact.
    """
    opts = opts or SolverOptions()
    s = x.dense()
    p = x.p
    lam_mat = _lambda_matrix(lam, p, penalize_diagonal)
    if np.any((np.diag(lam_mat) == 0.0) & (np.diag(s) <= 0.0)):
        raise NoSolutionError(
            "unpenalized diagonal requires strictly positive input diagonal"
        )
    if not lam_mat.any():
        wv, q = np.linalg.eigh(s)
        if wv[0] <= 1e-12:
            raise NoSolutionError(
                f"lam=0 needs a positive definite input (min eig {wv[0]:.3e})"
            )
        theta = (q / wv) @ q.T
        theta = (theta + theta.T) / 2.0
        kkt = _glasso_kkt(s, lam_mat, theta)
        _require_certified("glasso", kkt, opts.tol * _scale(s))
        return _report_matrix(theta, _glasso_objective(s, lam_mat, theta),
                              kkt, 0, True)

    z, kkt, it = _admm(
        "glasso",
        _logdet_prox(s),
        lambda a, rho: _soft(a, lam_mat / rho),
        np.diag(1.0 / np.clip(np.diag(s), 1e-8, None)),
        lambda theta, z: (_glasso_kkt(s, lam_mat, z), z),
        opts,
        opts.tol * _scale(s),
    )
    return _report_matrix(z, _glasso_objective(s, lam_mat, z), kkt, it, True)


# =====================================================================
# Fantope projection and sparse PCA
# =====================================================================

def _fantope_shift(w: np.ndarray, k: int) -> float:
    """The nu with sum(clip(w - nu, 0, 1)) == k, for 1 <= k < len(w).

    The trace is continuous, non-increasing and piecewise linear in nu, with
    breakpoints at w and w - 1.  It is evaluated at every breakpoint at once;
    the last breakpoint where it is still >= k starts the segment that holds
    the root, and one linear interpolation on that segment gives nu.
    """
    b = np.sort(np.concatenate((w - 1.0, w)))
    t = np.sum(np.clip(w[None, :] - b[:, None], 0.0, 1.0), axis=1)
    # t[0] is p up to rounding, so above k < p, and t[-1] = 0 < k: j and
    # j + 1 are in range, and t[j] >= k > t[j + 1] keeps the denominator
    # positive
    j = int(np.searchsorted(-t, -k, side="right")) - 1
    return float(b[j] + (t[j] - k) * (b[j + 1] - b[j]) / (t[j] - t[j + 1]))


def _fantope_project_dense(a: np.ndarray, k: int) -> np.ndarray:
    p = a.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    if k == p:
        # the Fantope with k = p is the single point I; the shift search
        # would need t[0] >= p, which rounding can break
        return np.eye(p)
    w, q = np.linalg.eigh(a)
    gamma = np.clip(w - _fantope_shift(w, k), 0.0, 1.0)
    out = (q * gamma) @ q.T
    return (out + out.T) / 2.0


def fantope_project(w: SymMatrix, k: int) -> SymMatrix:
    """Nearest matrix with eigenvalues in [0, 1] summing to k.

    Eigenvalues are shifted by a scalar nu and clipped to [0, 1];
    eigenvectors are kept.  The trace of the clipped eigenvalues is
    piecewise linear in nu with breakpoints at the eigenvalues and the
    eigenvalues minus one, so nu is found exactly: the trace is evaluated
    at every breakpoint, the segment that brackets k is picked and one
    linear interpolation solves on it.  There is no tolerance and no
    iteration, so the function never raises for 1 <= k <= p; it raises
    ValueError for any other k.
    """
    return SymMatrix.wrap(_fantope_project_dense(w.dense(), k))


@_certificate
def _fantope_kkt(s, lam, k, z) -> float:
    """Fixed-point residual max|z - prox(z + s)| for the map
    prox_h with h = lam*||.||_1 + indicator of the spectral set.

    z is optimal exactly when the residual vanishes; the prox problem is
    strongly convex, so it is re-solved here to high accuracy by its own
    short ADMM (linear convergence), making the certificate independent of
    the solver state that produced z.
    """
    v = z + s
    y = np.array(z)
    w = np.array(z)
    u = np.zeros_like(z)
    rho = 1.0
    for _ in range(2000):
        y = _fantope_project_dense((v + rho * (w - u)) / (1.0 + rho), k)
        w_old = w
        w = _soft(y + u, lam / rho)
        u = u + y - w
        if max(
            float(np.max(np.abs(y - w))), float(np.max(np.abs(w - w_old)))
        ) <= 1e-13 * (1.0 + float(np.max(np.abs(v)))):
            break
    return float(np.max(np.abs(y - z)))


def fantope_spca(x: SymMatrix, lam: float, k: int, opts: SolverOptions | None = None) -> SolveReport:
    """Sparse principal subspace fit.

    Maximizes <x, theta> - lam * ||theta||_1 over the spectral set
    {0 <= theta <= I, trace(theta) = k}.  ADMM alternates a Fantope
    projection with an entrywise soft threshold; the thresholded iterate is
    reported.
    """
    opts = opts or SolverOptions()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    s = x.dense()
    p = x.p
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    scale = _scale(s)
    tol = opts.tol * scale
    rho = opts.rho
    alpha = opts.over_relax
    z = np.zeros((p, p))
    u = np.zeros((p, p))
    for it in range(1, opts.max_iter + 1):
        theta = _fantope_project_dense(z - u + s / rho, k)
        z_old = z
        th_hat = alpha * theta + (1.0 - alpha) * z_old
        z = _soft(th_hat + u, lam / rho)
        u = u + th_hat - z
        # objective is linear, so the gate is the pair of ADMM residuals
        # rather than a gradient-style condition
        r_norm = float(np.max(np.abs(theta - z)))
        s_norm = rho * float(np.max(np.abs(z - z_old)))
        if max(r_norm, s_norm) <= tol:
            obj = float(np.sum(s * z) - lam * np.sum(np.abs(z)))
            return _report_matrix(z, obj, max(r_norm, s_norm), it, True)
        if opts.adapt_rho and it % opts.check_every == 0:
            if r_norm > 10.0 * s_norm and rho < 1e5:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm and rho > 1e-3:
                rho /= 2.0
                u *= 2.0
    raise ConvergenceError(
        f"fantope_spca did not reach tol {tol:.3e} in {opts.max_iter} iterations"
    )


# =====================================================================
# sparse covariance with an eigenvalue floor
# =====================================================================

def _spectral_floor(a: np.ndarray, eps: float) -> np.ndarray:
    w, q = np.linalg.eigh(a)
    out = (q * np.maximum(w, eps)) @ q.T
    return (out + out.T) / 2.0


@_certificate
def _sparse_cov_kkt(s, lam, eps, theta, rounds: int = 12, top=None) -> float:
    """Best certificate found by alternating the subgradient choice with the
    projection of the multiplier onto the active-eigenspace PSD cone."""
    w, q = np.linalg.eigh(theta)
    act = w <= eps + 1e-9 * (1.0 + abs(eps))
    v0 = q[:, act]
    on = _support(theta, top)
    sign_on = np.sign(theta)
    m = np.zeros_like(theta)
    resid = np.inf
    for _ in range(max(rounds, 1)):
        if lam > 0:
            gamma = np.where(on, sign_on, np.clip((s - theta + m) / lam, -1.0, 1.0))
        else:
            gamma = np.zeros_like(theta)
        target = theta - s + lam * gamma
        if v0.shape[1]:
            b = v0.T @ target @ v0
            bw, bq = np.linalg.eigh((b + b.T) / 2.0)
            m = v0 @ ((bq * np.maximum(bw, 0.0)) @ bq.T) @ v0.T
        resid = float(np.max(np.abs(target - m)))
        if not v0.shape[1]:
            break
    return resid


def _sparse_cov_objective(s, lam, theta) -> float:
    return float(0.5 * np.sum((s - theta) ** 2) + lam * np.sum(np.abs(theta)))


def sparse_cov(x: SymMatrix, lam: float, eps: float, opts: SolverOptions | None = None) -> SolveReport:
    """Soft-thresholded covariance with eigenvalues floored at eps.

    Minimizes 0.5 ||x - theta||_F^2 + lam ||theta||_1 over theta >= eps I.
    When the plain soft threshold already clears the floor it is returned
    exactly, or ConvergenceError raised if its KKT residual misses tol;
    otherwise ADMM alternates the floored quadratic step with the soft
    threshold and reports the floored iterate (feasible by construction).
    """
    opts = opts or SolverOptions()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if eps <= 0:
        raise ValueError("eigenvalue floor eps must be positive")
    s = x.dense()
    direct = _soft(s, lam)
    if np.linalg.eigvalsh(direct)[0] >= eps:
        kkt = _sparse_cov_kkt(s, lam, eps, direct)
        _require_certified("sparse_cov", kkt, opts.tol * _scale(s))
        return _report_matrix(direct, _sparse_cov_objective(s, lam, direct), kkt, 0, True)

    theta, kkt, it = _admm(
        "sparse_cov",
        lambda v, rho: _spectral_floor((s + rho * v) / (1.0 + rho), eps),
        lambda a, rho: _soft(a, lam / rho),
        _spectral_floor(direct, eps),
        lambda theta, z: (_sparse_cov_kkt(s, lam, eps, theta), theta),
        opts,
        opts.tol * _scale(s),
    )
    return _report_matrix(theta, _sparse_cov_objective(s, lam, theta), kkt, it, True)


# =====================================================================
# sign-constrained inverse covariance
# =====================================================================

@_certificate
def _positive_invcov_kkt(s, z, top=None) -> float:
    w, q = np.linalg.eigh(z)
    if w[0] <= 0.0:
        return np.inf
    e = (q / w) @ q.T - s
    off = ~np.eye(z.shape[0], dtype=bool)
    on = _support(z, top) & off
    zero = ~on & off
    worst = float(np.max(np.abs(np.diag(e))))
    if on.any():
        worst = max(worst, float(np.max(np.abs(e[on]))))
    if zero.any():
        worst = max(worst, float(np.max(np.maximum(-e[zero], 0.0))))
    return worst


def _positive_invcov_objective(s, z, blocks=None) -> float:
    w = _spectrum(z, blocks)
    if w.min() <= 0:
        return np.inf
    return float(-np.sum(np.log(w)) + np.sum(s * z))


def positive_invcov(x: SymMatrix, opts: SolverOptions | None = None) -> SolveReport:
    """Gaussian likelihood fit with nonpositive off-diagonal precision.

    Minimizes -log det(omega) + <x, omega> subject to omega_ij <= 0 for
    i != j (diagonal free).  Same log-det proximal ADMM as glasso with the
    soft threshold replaced by clipping positive off-diagonal entries to
    zero, so the constraint holds exactly on the reported iterate.
    """
    opts = opts or SolverOptions()
    s = x.dense()
    if np.any(np.diag(s) <= 0.0):
        raise NoSolutionError("input diagonal must be strictly positive")
    off_mask = ~np.eye(x.p, dtype=bool)
    z, kkt, it = _admm(
        "positive_invcov",
        _logdet_prox(s),
        lambda a, rho: np.where(off_mask, np.minimum(a, 0.0), a),
        np.diag(1.0 / np.diag(s)),
        lambda theta, z: (_positive_invcov_kkt(s, z), z),
        opts,
        opts.tol * _scale(s),
    )
    return _report_matrix(z, _positive_invcov_objective(s, z), kkt, it, True)


# =====================================================================
# pairwise sign-interaction model (pseudo count enumeration)
# =====================================================================

@lru_cache(maxsize=None)
def _sign_states(p: int) -> np.ndarray:
    codes = np.arange(2 ** p)[:, None]
    states = 1.0 - 2.0 * ((codes >> np.arange(p)[None, :]) & 1)
    states.flags.writeable = False
    return states


def ising_logpartition(theta: SymMatrix) -> tuple[float, SymMatrix]:
    """Log partition function and moment matrix by state enumeration.

    theta must have an exactly zero diagonal and p <= 15 (the sum runs over
    all 2^p sign vectors).  Returns (log sum_u exp(u' theta u), E[u u']).
    """
    p = theta.p
    if p > ISING_MAX_P:
        raise ValueError(f"enumeration capped at p={ISING_MAX_P}, got {p}")
    td = theta.dense()
    if np.any(np.diag(td) != 0.0):
        raise ValueError("interaction matrix must have a zero diagonal")
    states = _sign_states(p)
    energy = np.einsum("si,ij,sj->s", states, td, states)
    emax = float(energy.max())
    logz = emax + float(np.log(np.sum(np.exp(energy - emax))))
    weights = np.exp(energy - logz)
    moment = (states * weights[:, None]).T @ states
    np.fill_diagonal(moment, 1.0)
    return logz, SymMatrix.wrap(moment)


def _ising_objective(s, lam, theta, logz) -> float:
    return logz - float(np.sum(s * theta)) + lam * float(np.sum(np.abs(theta)))


@_certificate
def _ising_kkt(moment_minus_s: np.ndarray, lam: float, theta: np.ndarray, top=None) -> float:
    p = theta.shape[0]
    off = ~np.eye(p, dtype=bool)
    on = _support(theta, top) & off
    zero = ~on & off
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs(moment_minus_s[on] + lam * np.sign(theta[on]))))
    if zero.any():
        worst = max(
            worst, float(np.max(np.maximum(np.abs(moment_minus_s[zero]) - lam, 0.0)))
        )
    return worst


def ising_pmle(x: SymMatrix, lam: float, opts: SolverOptions | None = None) -> SolveReport:
    """Penalized moment-matching fit of pairwise sign interactions.

    Minimizes logpartition(theta) - <x, theta> + lam * sum_{i<j} 2|theta_ij|
    over symmetric theta with zero diagonal, by monotone proximal gradient
    descent with backtracking.  Enumerates all 2^p states, so p <= 15.
    """
    opts = opts or SolverOptions()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    p = x.p
    if p > ISING_MAX_P:
        raise ValueError(f"enumeration capped at p={ISING_MAX_P}, got {p}")
    s = x.dense()
    scale = _scale(s)
    tol = opts.tol * scale
    theta = np.zeros((p, p))
    logz, moment = ising_logpartition(SymMatrix.wrap(theta))
    step = 1.0
    lhat = 0.0  # largest observed curvature; 1/lhat keeps the step contractive
    for it in range(1, opts.max_iter + 1):
        grad = moment.dense() - s
        np.fill_diagonal(grad, 0.0)
        kkt = _ising_kkt(grad, lam, theta)
        if kkt <= tol:
            return _report_matrix(theta, _ising_objective(s, lam, theta, logz), kkt, it - 1, True)
        f_cur = logz - float(np.sum(s * theta))
        while True:
            cand = _soft(theta - step * grad, step * lam)
            np.fill_diagonal(cand, 0.0)
            logz_new, moment_new = ising_logpartition(SymMatrix.wrap(cand))
            f_new = logz_new - float(np.sum(s * cand))
            diff = cand - theta
            bound = (
                f_cur
                + float(np.sum(grad * diff))
                + float(np.sum(diff * diff)) / (2.0 * step)
            )
            if f_new <= bound + 1e-13 * max(1.0, abs(f_cur)):
                break
            step *= 0.5
            if step < 1e-12:
                raise ConvergenceError("backtracking step collapsed")
        grad_new = moment_new.dense() - s
        np.fill_diagonal(grad_new, 0.0)
        move = float(np.linalg.norm(cand - theta))
        if move > 0.0:
            lhat = max(lhat, float(np.linalg.norm(grad_new - grad)) / move)
        theta, logz, moment = cand, logz_new, moment_new
        cap = 1.0 / lhat if lhat > 0.0 else 2.0
        step = min(step * 1.25, cap, 2.0)
    raise ConvergenceError(
        f"ising_pmle did not reach tol {tol:.3e} in {opts.max_iter} iterations"
    )


# =====================================================================
# dispatch, objectives, certificates
# =====================================================================

def _expect_kind(spec: EstimatorSpec, kind: PenaltyKind):
    if spec.penalty.kind is not kind:
        raise ValueError(
            f"{spec.family.value} expects a {kind.value} penalty, "
            f"got {spec.penalty.kind.value}"
        )


def solve(spec: EstimatorSpec, x) -> SolveReport:
    """Run the family's solver on input x and return its report."""
    fam = spec.family
    if fam is Family.LASSO:
        _expect_kind(spec, PenaltyKind.ENTRYWISE_L1)
        xv = np.asarray(x, dtype=float)
        theta = lasso(xv, spec.penalty.weights)
        return _vector_report(spec, xv, theta)
    if fam is Family.NNLS:
        _expect_kind(spec, PenaltyKind.POSITIVE_CONE)
        xv = np.asarray(x, dtype=float)
        theta = nnls(xv)
        return _vector_report(spec, xv, theta)
    xm = as_symmetric(x)
    if fam is Family.GLASSO:
        _expect_kind(spec, PenaltyKind.SYMMETRIC_L1)
        return glasso(xm, spec.penalty.weights, spec.opts, spec.penalize_diagonal)
    if fam is Family.FANTOPE_SPCA:
        _expect_kind(spec, PenaltyKind.SYMMETRIC_L1)
        if spec.k is None:
            raise ValueError("fantope_spca requires k")
        return fantope_spca(xm, spec.penalty.scalar_weight(), spec.k, spec.opts)
    if fam is Family.SPARSE_COV:
        _expect_kind(spec, PenaltyKind.SYMMETRIC_L1)
        if spec.eps is None:
            raise ValueError("sparse_cov requires eps")
        return sparse_cov(xm, spec.penalty.scalar_weight(), spec.eps, spec.opts)
    if fam is Family.POSITIVE_INVCOV:
        _expect_kind(spec, PenaltyKind.OFFDIAG_POSITIVITY)
        return positive_invcov(xm, spec.opts)
    if fam is Family.ISING_PMLE:
        _expect_kind(spec, PenaltyKind.SYMMETRIC_L1)
        return ising_pmle(xm, spec.penalty.scalar_weight(), spec.opts)
    raise ValueError(f"unknown family {fam}")


def _vector_report(spec, x, theta) -> SolveReport:
    kkt = kkt_residual(spec, x, theta)
    return SolveReport(
        theta,
        objective_at(spec, x, theta),
        kkt,
        0,
        True,
        _support(theta),
    )


def objective_at(spec: EstimatorSpec, x, theta) -> float:
    """Evaluate the family objective at an arbitrary point."""
    fam = spec.family
    td = np.asarray(theta, dtype=float)
    if fam in (Family.LASSO, Family.NNLS):
        xv = np.asarray(x, dtype=float)
        base = 0.5 * float(np.sum((xv - td) ** 2))
        if fam is Family.LASSO:
            lam = np.broadcast_to(np.asarray(spec.penalty.weights, dtype=float), xv.shape)
            return base + float(np.sum(lam * np.abs(td)))
        if np.any(td < 0):
            return np.inf
        return base
    s = as_symmetric(x).dense()
    if fam is Family.GLASSO:
        lam_mat = _lambda_matrix(spec.penalty.weights, s.shape[0], spec.penalize_diagonal)
        return _glasso_objective(s, lam_mat, td)
    if fam is Family.FANTOPE_SPCA:
        lam = spec.penalty.scalar_weight()
        return float(np.sum(s * td) - lam * np.sum(np.abs(td)))
    if fam is Family.SPARSE_COV:
        return _sparse_cov_objective(s, spec.penalty.scalar_weight(), td)
    if fam is Family.POSITIVE_INVCOV:
        return _positive_invcov_objective(s, td)
    if fam is Family.ISING_PMLE:
        lam = spec.penalty.scalar_weight()
        logz, _ = ising_logpartition(SymMatrix.wrap(td))
        return _ising_objective(s, lam, td, logz)
    raise ValueError(f"unknown family {fam}")


def kkt_residual(spec: EstimatorSpec, x, theta) -> float:
    """Independent first-order certificate at theta (0 = exact optimum)."""
    fam = spec.family
    td = np.asarray(theta, dtype=float)
    if fam is Family.LASSO:
        xv = np.asarray(x, dtype=float)
        lam = np.broadcast_to(np.asarray(spec.penalty.weights, dtype=float), xv.shape)
        on = td != 0.0
        worst = 0.0
        if on.any():
            worst = float(np.max(np.abs((td - xv + lam * np.sign(td))[on])))
        if (~on).any():
            worst = max(worst, float(np.max(np.maximum(np.abs(xv[~on]) - lam[~on], 0.0))))
        return worst
    if fam is Family.NNLS:
        xv = np.asarray(x, dtype=float)
        on = td != 0.0
        worst = 0.0
        if on.any():
            worst = float(np.max(np.abs((td - xv)[on])))
        if (~on).any():
            worst = max(worst, float(np.max(np.maximum(xv[~on], 0.0))))
        return worst
    s = as_symmetric(x).dense()
    if fam is Family.GLASSO:
        lam_mat = _lambda_matrix(spec.penalty.weights, s.shape[0], spec.penalize_diagonal)
        return _glasso_kkt(s, lam_mat, td)
    if fam is Family.FANTOPE_SPCA:
        return _fantope_kkt(s, spec.penalty.scalar_weight(), spec.k, td)
    if fam is Family.SPARSE_COV:
        return _sparse_cov_kkt(s, spec.penalty.scalar_weight(), spec.eps, td)
    if fam is Family.POSITIVE_INVCOV:
        return _positive_invcov_kkt(s, td)
    if fam is Family.ISING_PMLE:
        _, moment = ising_logpartition(SymMatrix.wrap(td))
        return _ising_kkt(moment.dense() - s, spec.penalty.scalar_weight(), td)
    raise ValueError(f"unknown family {fam}")


def reduction_for(spec: EstimatorSpec) -> tuple[PenaltySpec, GroupId]:
    """The (penalty, group) pair whose reduction is sufficient for spec."""
    fam = spec.family
    if fam is Family.LASSO:
        return spec.penalty, GroupId.SIGN_FLIP_VECTOR
    if fam is Family.NNLS:
        return PenaltySpec(PenaltyKind.POSITIVE_CONE), GroupId.SIGN_FLIP_VECTOR
    if fam is Family.POSITIVE_INVCOV:
        return PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), GroupId.DIAGONAL_CONJUGATION
    if fam in (Family.GLASSO, Family.FANTOPE_SPCA, Family.SPARSE_COV, Family.ISING_PMLE):
        lam = spec.penalty.scalar_weight()
        return PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam), GroupId.DIAGONAL_CONJUGATION
    raise ValueError(f"no reduction registered for {fam}")


def _separable_check(spec: EstimatorSpec, x, theta, partition) -> tuple[float, float]:
    """KKT residual and objective of a separable family at a theta that is
    zero off the blocks of ``partition``, computed block by block.

    Off the blocks the condition is the screening inequality on x itself,
    scored as its excess: max(|x_ij| - lam, 0), or max(x_ij, 0) for
    positive_invcov.  On each block it is the family's own residual at
    (x_bb, theta_bb), with support classified against max|theta| over the
    whole matrix, so the result equals :func:`kkt_residual` up to rounding.
    The log-det and log-partition terms of the objective are sums over the
    blocks; its other terms are entrywise sums.  No solver state is read.
    Returns (inf, nan) if theta has a non-finite entry or a nonzero entry
    off the blocks.
    """
    s = np.asarray(x, dtype=float)
    td = np.asarray(theta, dtype=float)
    blocks = [np.ix_(blk, blk) for blk in partition.blocks]
    # max|theta| with no p x p temporary; nan or inf when an entry is
    top = max(float(td.max()), -float(td.min()))
    # theta is zero off the blocks exactly when the blocks hold all its nonzeros
    in_blocks = sum(np.count_nonzero(td[ix]) for ix in blocks)
    if not np.isfinite(top) or np.count_nonzero(td) != in_blocks:
        return np.inf, np.nan
    fam = spec.family
    positive = fam is Family.POSITIVE_INVCOV
    lam = 0.0 if positive else spec.penalty.scalar_weight()
    # one p x p work array and no masked copies: temporaries whose size
    # varies from solve to solve fragment the heap and raise peak memory
    work = s.copy() if positive else np.abs(s)
    for ix in blocks:
        work[ix] = 0.0
    resid = [max(float(work.max()) - lam, 0.0)]
    del work
    if positive:
        resid += [_positive_invcov_kkt(s[ix], td[ix], top=top) for ix in blocks]
        objective = _positive_invcov_objective(s, td, blocks)
    elif fam is Family.GLASSO:
        lam_mat = _lambda_matrix(lam, td.shape[0], spec.penalize_diagonal)
        resid += [_glasso_kkt(s[ix], lam_mat[ix], td[ix], top=top) for ix in blocks]
        objective = _glasso_objective(s, lam_mat, td, blocks)
    elif fam is Family.SPARSE_COV:
        resid += [_sparse_cov_kkt(s[ix], lam, spec.eps, td[ix], top=top) for ix in blocks]
        objective = _sparse_cov_objective(s, lam, td)
    else:
        logz = 0.0
        for ix in blocks:
            logz_b, moment = ising_logpartition(SymMatrix.wrap(td[ix]))
            logz += logz_b
            resid.append(_ising_kkt(np.asarray(moment) - s[ix], lam, td[ix], top=top))
        objective = _ising_objective(s, lam, td, logz)
    return max(resid), objective


def solve_decomposed(spec: EstimatorSpec, x) -> SolveReport:
    """Reduce the input, solve each independent block, and reassemble.

    Families whose objective separates over the blocks (all matrix families
    except fantope_spca) solve the blocks one after another in a plain loop.
    The reassembled theta is certified block by block against the original
    input (:func:`_separable_check`): the reported KKT residual and objective
    equal :func:`kkt_residual` and :func:`objective_at` up to rounding, at
    the cost of one eigendecomposition per block instead of one of the whole
    matrix, and ``converged`` means that residual is at most
    ``opts.tol * (1 + max|x|)``.  fantope_spca couples blocks through its
    trace budget, so it is re-solved on the reduced matrix as a whole and
    certified by :func:`kkt_residual`.
    """
    if spec.family not in MATRIX_FAMILIES:
        raise ValueError("block decomposition applies to matrix families only")
    xm = as_symmetric(x)
    red_penalty, group = reduction_for(spec)
    rp: ReducedProblem = reduce_input(red_penalty, group, xm)

    if spec.family is Family.FANTOPE_SPCA:
        rep = solve(spec, rp.reduced)
        kkt = kkt_residual(spec, xm, rep.theta)
        return SolveReport(
            rep.theta,
            objective_at(spec, xm, rep.theta),
            kkt,
            rep.iterations,
            rep.converged,
            rep.support,
            None,
        )

    results = []
    for blk, sub in decompose_blocks(rp.reduced, rp.partition):
        start = time.perf_counter()
        rep = solve(spec, sub)
        results.append((blk, rep, time.perf_counter() - start))

    theta = reassemble_blocks(xm.p, [(blk, rep.theta) for blk, rep, _ in results])
    stats = tuple(
        BlockStat(blk, rep.iterations, sec) for blk, rep, sec in results
    )
    kkt, objective = _separable_check(spec, xm, theta, rp.partition)
    converged = (all(rep.converged for _, rep, _ in results)
                 and kkt <= spec.opts.tol * _scale(np.asarray(xm)))
    return SolveReport(
        theta,
        objective,
        kkt,
        sum(rep.iterations for _, rep, _ in results),
        converged,
        _support(np.asarray(theta)),
        stats,
    )
