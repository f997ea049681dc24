"""Reference solvers for the supported penalized estimator families.

glasso, sparse_cov and positive_invcov run on one ADMM driver, :func:`_admm`
(one smooth/constrained proximal step, one soft-threshold or projection step,
scaled dual update, over-relaxation and residual-balanced rho); each solver
supplies only its two proximal maps, its start point and its certificate.
The driver runs a stack of same-size problems in lockstep on (B, n, n)
arrays, with one stacked eigendecomposition per iteration; every step is
entrywise or per matrix, so each problem follows the iterates it would
follow alone, bit for bit, and a direct solve is a stack of one.
Each problem's ADMM map on (z, u) is Anderson-accelerated (type II, memory
``_AA_MEMORY``): the next point mixes the last map outputs so as to shrink
the fixed-point residual, which about halves the iterations.  The memory is
per problem, about 4 * _AA_MEMORY * n^2 floats, and is emptied when the
problem's rho moves or its fixed-point residual grows.  The extrapolated
point is only where the map is evaluated next: the certificate, the residual
norms and the reported point always come from a map output (the prox_g
output z, or theta for sparse_cov), so exact zeros and sign constraints hold.
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

A family is defined by one record in ``_FAMILIES``; every entry point looks
it up and checks the spec against it.  Matrix families have one certificate
path, the block by block check: solve_decomposed runs it on the screened
partition, kkt_residual and objective_at on the one-block partition.  For
the separable families the KKT conditions and the objective split over the
blocks, so a decomposed solve is certified reading only the input and the
point, with no eigendecomposition of the whole matrix.  Both the check and
solve_decomposed work on size groups: all blocks of one size are gathered
into one (B, n, n) stack, which the family's solver solves in one call and
its block residual and objective piece score in one call, so a 1x1 block is
a member of a (B, 1, 1) stack like any other.

fantope_spca keeps its own ADMM loop and still stops on its ADMM residuals
rather than on an independent certificate (ROADMAP item 1).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .linkage import Partition
from .penalty import GroupId, PenaltyKind, PenaltySpec
from .reductions import reduce_input, screening_partition
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
_LOG2 = float(np.log(2.0))
_AA_MEMORY = 5  # secant pairs an Anderson-accelerated ADMM problem keeps
# the Anderson normal equations are regularized as gram * _AA_DIAG + _AA_FLOOR:
# the diagonal raised by a relative 1e-10 and by a floor that
# keeps them nonsingular when a problem holds no pair
_AA_DIAG = 1.0 + 1e-10 * np.eye(_AA_MEMORY)
_AA_FLOOR = 1e-300 * np.eye(_AA_MEMORY)


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
    """|theta| > SUPPORT_REL_TOL * top; top defaults to max|theta| over the
    last two axes, so over each member of a stack (B, n, n)."""
    if top is None:
        axes = (-2, -1)[-theta.ndim:]
        top = np.max(np.abs(theta), axis=axes, keepdims=True, initial=0.0)
    return np.abs(theta) > SUPPORT_REL_TOL * top


def _report_matrix(theta, objective, kkt, iters, converged) -> SolveReport:
    return SolveReport(
        SymMatrix.wrap(theta), objective, kkt, iters, converged, _support(theta)
    )


def _certificate(residual):
    """Make a KKT residual return inf at a point with a non-finite entry.

    The point is the residual's last positional argument, one matrix or a
    stack (B, n, n); in a stack, the members with a non-finite entry read
    inf and the others what they read alone.  Without this a NaN point could
    certify: ``max(0.0, nan)`` is 0.0.
    """
    @wraps(residual)
    def checked(*args, **kwargs):
        point = args[-1]
        finite = np.all(np.isfinite(point), axis=(-2, -1))
        if finite.all():
            return residual(*args, **kwargs)
        if not finite.any():
            return np.full(finite.shape, np.inf)[()]  # [()]: a 0-d result as a scalar
        # a stack with both kinds: the others are scored with the non-finite
        # members zeroed, which every step treats member by member
        safe = np.where(finite[:, None, None], point, 0.0)
        return np.where(finite, residual(*args[:-1], safe, **kwargs), np.inf)

    return checked


def _scales(s) -> np.ndarray:
    """_scale of each member of a stack (B, n, n)."""
    return 1.0 + np.max(np.abs(s), axis=(-2, -1))


def _norms(a) -> np.ndarray:
    """Frobenius norm of each member of a stack (B, n, n), computed as
    np.linalg.norm computes it for one matrix: the root of one dot product."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _diag(d) -> np.ndarray:
    """The stack (B, n, n) of diagonal matrices with the rows of d."""
    out = np.zeros(d.shape + d.shape[-1:])
    i = np.arange(d.shape[-1])
    out[:, i, i] = d
    return out


def _admm(name, x, z0, prox_f, prox_g, certify, opts: SolverOptions, tol):
    """Over-relaxed scaled ADMM with residual-balanced rho for B independent
    problems min f_b(theta) + g(z) s.t. theta = z (Boyd et al. 2011, sec.
    3.4.1), run in lockstep on stacked arrays and Anderson-accelerated.

    ``x`` (B, n, n) holds the problems' inputs, ``z0`` their start points and
    ``tol`` their tolerances.  ``prox_f(v, rho, x)`` and ``prox_g(a, rho)``
    return argmin f + rho/2 |. - v|^2 and argmin g + rho/2 |. - a|^2 for the
    stack of problems still running, given their inputs x and their rho as
    one float when they share it, else as a (B, 1, 1) column.  Each step is
    entrywise or per matrix, so every problem follows the iterates it would
    follow alone.  rho, the residual norms, the window and the exit
    iteration are kept per problem.

    One iteration evaluates the ADMM map F: (z, u) -> (z', u') at the
    current point w = (z, u) of each problem and then moves to the type-II
    Anderson point (Walker & Ni 2011) built from its last _AA_MEMORY secant
    pairs: with residual g = F(w) - w and the differences dF, dG of F and g
    between consecutive iterations, the next point is F(w) - dF gamma, where
    gamma solves the Tikhonov-regularized normal equations of min |g - dG
    gamma|.  A problem with no memory takes the plain step F(w).  Its
    memory is emptied when its rho moves (the map changes, and u is
    rescaled) and when its fixed-point residual |g| grows (the safeguard),
    so a step that does not pay is followed by a plain one.  The memory
    costs about 4 _AA_MEMORY n^2 floats per problem.

    ``certify(xs, thetas, zs)`` takes the stacks (D, n, n) of the problems
    due for a certificate and returns their residuals (D,) and reported
    points (D, n, n), computed at a map output, never at an Anderson point,
    so a reported point keeps the exact zeros and sign constraints of
    prox_g.  It is called at most once per iteration, on every problem
    that is due.  A problem is due every ``opts.check_every`` iterations, at
    the last iteration, and, at most once in each window of ``check_every``
    iterations, at the first iteration whose primal and dual residual norms
    |theta - z'|_F and rho |z' - z|_F are both <= tol (sec. 3.3.1).  A
    Frobenius norm is at least the largest entry, the scale ``tol`` is
    stated in, so that trigger is conservative; the window bound keeps a
    stalled solve from certifying on every iteration.  The certificate is the only stopping rule and
    leaves the iterates and rho untouched: a problem leaves the stack at the
    first point whose residual is <= its tol and is not certified again.
    Returns [(point, residual, iterations)] in stack order.  Raises
    ConvergenceError if a problem is still running after ``opts.max_iter``
    iterations.
    """
    alpha = opts.over_relax
    adapt = opts.adapt_rho
    count, n = z0.shape[:2]
    w = np.zeros((count, 2, n, n))  # the point (z, u) of each problem
    w[:, 0] = z0
    # the secant pairs (dF, dG) go to slot it % _AA_MEMORY of every problem;
    # a problem forgets by zeroing its slots, which the regularized normal
    # equations then give a weight of exactly 0
    diffs = np.zeros((count, 2, _AA_MEMORY, 2 * n * n))
    gram = np.zeros((count, _AA_MEMORY, _AA_MEMORY))  # dG^T dG
    fg_old = np.zeros((count, 2, 2 * n * n))
    g_old_norm = np.full(count, np.nan)  # nan: no secant pair to the next step
    # per running problem: its stack position, tol, rho and the window of
    # its last early check
    live = list(range(count))
    tol = list(tol)
    rho = [float(opts.rho)] * count
    early = [-1] * count
    rho_arg = rho[0]
    out = [None] * count
    for it in range(1, opts.max_iter + 1):
        z, u = w[:, 0], w[:, 1]
        theta = prox_f(z - u, rho_arg, x)
        th_hat = alpha * theta + (1.0 - alpha) * z
        # the map output F(w) = (z', u') and the fixed-point residual F(w) - w
        fg = np.empty((len(w), 2, 2, n, n))
        f, g = fg[:, 0], fg[:, 1]
        f[:, 0] = prox_g(th_hat + u, rho_arg)
        np.subtract(u + th_hat, f[:, 0], out=f[:, 1])
        np.subtract(f, w, out=g)
        sq = np.vecdot(g.reshape(len(g), 2, -1), g.reshape(len(g), 2, -1))
        g_norm = np.sqrt(sq[:, 0] + sq[:, 1])
        r_norms = _norms(theta - f[:, 0]).tolist()
        steps = np.sqrt(sq[:, 0]).tolist()  # |z' - z|
        s_norms = [rho_k * step for rho_k, step in zip(rho, steps)]
        window = (it - 1) // opts.check_every
        cadence = it % opts.check_every == 0 or it == opts.max_iter
        due = []
        for k, (r_norm, s_norm, tol_k) in enumerate(zip(r_norms, s_norms, tol)):
            if max(r_norm, s_norm) <= tol_k and window != early[k]:
                early[k] = window
                due.append(k)
            elif cadence:
                due.append(k)
        gone = []
        if due:
            # the due members are certified as one stack; a whole stack goes
            # as it is, with no gathered copy
            pick = slice(None) if len(due) == len(live) else due
            resid, points = certify(x[pick], theta[pick], f[pick, 0])
            for k, point, r in zip(due, points, resid.tolist()):
                if r <= tol[k]:
                    out[live[k]] = (point.copy(), r, it)
                    gone.append(k)
            if len(gone) == len(live):
                return out
        moved = []  # (problem, factor its u is scaled by)
        if adapt:
            for k, (r_norm, s_norm, rho_k) in enumerate(zip(r_norms, s_norms, rho)):
                if k in gone:
                    continue
                if r_norm > 10.0 * s_norm and rho_k < 1e5:
                    rho[k] = rho_k * 2.0
                    moved.append((k, 0.5))
                elif s_norm > 10.0 * r_norm and rho_k > 1e-3:
                    rho[k] = rho_k / 2.0
                    moved.append((k, 2.0))

        # Anderson step: the new secant pair joins the memory of each problem
        # whose residual did not grow and whose map stays; the others forget
        # theirs and take the plain step F(w)
        fg = fg.reshape(len(fg), 2, -1)
        keep = g_norm <= g_old_norm  # false on nan: no pair, or a nan residual
        g_old_norm = g_norm
        for k, _ in moved:
            keep[k] = False
            g_old_norm[k] = np.nan
        slot = it % _AA_MEMORY
        np.subtract(fg, fg_old, out=diffs[:, :, slot])
        d_g = diffs[:, 1]
        col = np.vecdot(d_g, diffs[:, 1, None, slot])
        gram[:, slot] = col
        gram[:, :, slot] = col
        if not keep.all():
            diffs[~keep] = 0.0
            gram[~keep] = 0.0
        gamma = np.linalg.solve(gram * _AA_DIAG + _AA_FLOOR,
                                np.vecdot(d_g, fg[:, 1, None])[:, :, None])
        w = gamma.mT @ diffs[:, 0]
        np.subtract(fg[:, 0, None], w, out=w)
        w = w.reshape(len(fg), 2, n, n)
        fg_old = fg
        for k, factor in moved:
            w[k, 1] *= factor

        if gone:
            rest = [k for k in range(len(live)) if k not in gone]
            x, w, diffs, gram, fg_old, g_old_norm = (
                a[rest] for a in (x, w, diffs, gram, fg_old, g_old_norm))
            live, tol, rho, early = ([v[k] for k in rest] for v in (live, tol, rho, early))
        if gone or moved:
            # a shared rho goes as a float: a (B, 1, 1) column costs about a
            # microsecond more per entrywise step, which a stack of one would
            # pay on every iteration
            rho_arg = rho[0] if rho.count(rho[0]) == len(rho) else np.array(rho)[:, None, None]
    raise ConvergenceError(
        f"{name} did not reach tol {tol[0]:.3e} in {opts.max_iter} iterations"
    )


def _require_certified(name, resid, tol):
    """A closed-form point certifies like an ADMM one: raise unless resid <= tol."""
    if not resid <= tol:
        raise ConvergenceError(f"{name}: KKT residual {resid:.3e} above tol {tol:.3e}")


def _cholesky(z):
    """(positive definite, lower Cholesky factor) of a matrix or of each
    member of a stack (..., n, n).  numpy raises for a whole stack when one
    member has no factor, so then the members are factored one by one, each
    as it is alone; a member with no factor gets the identity.  A 1x1 member
    takes a square root, which costs less than a factorization."""
    if z.shape[-1] == 1:
        pos = z[..., 0, 0] > 0.0
        return pos, np.sqrt(np.where(pos[..., None, None], z, 1.0))
    try:
        return np.ones(z.shape[:-2], dtype=bool), np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        if z.ndim == 2:
            return np.False_, np.eye(len(z))
        pos, low = zip(*map(_cholesky, z))
        return np.array(pos), np.stack(low)


def _inverse(z):
    """(positive definite, inverse) of a matrix or of each member of a stack
    (..., n, n), from one Cholesky factor z = L L^T as inv(L)^T inv(L).  The
    inverse of a member that is not positive definite is meaningless, but
    computed without a division by zero.  A 1x1 member takes the exact
    reciprocal."""
    if z.shape[-1] == 1:
        pos = z[..., 0, 0] > 0.0
        return pos, 1.0 / np.where(pos[..., None, None], z, 1.0)
    pos, low = _cholesky(z)
    inv = np.linalg.inv(low)
    return pos, inv.mT @ inv


def _logdet_objectives(z, rest):
    """-log det(z) + rest for each member of a stack z (B, n, n), from its
    Cholesky factor; inf where z is not positive definite."""
    pos, low = _cholesky(z)
    logdet = 2.0 * np.sum(np.log(np.diagonal(low, axis1=-2, axis2=-1)), axis=-1)
    return np.where(pos, rest - logdet, np.inf)


def _spectral(q, gamma):
    """q diag(gamma) q^T, symmetrized, for eigenvectors q (..., n, n) and
    values gamma that broadcast against the rows of q: (n,) for one
    matrix, (B, 1, n) for a stack."""
    out = (q * gamma) @ q.mT
    return (out + out.mT) / 2.0


def _logdet_prox(v, rho, s):
    """prox_f for f(theta) = -log det(theta) + <s, theta> on a stack: one
    eigendecomposition per matrix, eigenvalues mapped to the positive root."""
    w, q = np.linalg.eigh(rho * v - s)
    w = w[..., None, :]
    return _spectral(q, (w + np.sqrt(w * w + 4.0 * rho)) / (2.0 * rho))


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
        if lam_arr < 0:
            raise ValueError("lam must be nonnegative")
        out = np.full((p, p), float(lam_arr))
        if not penalize_diagonal:
            np.fill_diagonal(out, 0.0)
        return out
    if lam_arr.shape != (p, p):
        raise ValueError(f"weight matrix must be ({p}, {p})")
    if np.any(lam_arr != lam_arr.T):  # inf - inf is nan, which max() would pass
        raise ValueError("weight matrix must be symmetric")
    if np.any(lam_arr < 0):
        raise ValueError("penalty weights must be nonnegative")
    return lam_arr.copy()


@_certificate
def _glasso_kkt(s, lam_mat, z, top=None):
    """KKT residual at z, for one matrix or each member of a stack (..., n, n):
    inf where z is not positive definite."""
    pos, inv = _inverse(z)
    e = inv - s
    # on the support z != 0, where copysign is lam * sign(z) without inf * 0
    r = np.where(_support(z, top), np.abs(e - np.copysign(lam_mat, z)),
                 np.maximum(np.abs(e) - lam_mat, 0.0))
    return np.where(pos, np.max(r, axis=(-2, -1)), np.inf)[()]


def _glasso_objectives(s, lam_mat, z) -> np.ndarray:
    """The objective of each member of a stack (B, n, n) under the weights
    lam_mat (n, n); inf where z is not positive definite."""
    # a zero entry pays no penalty, also under an infinite weight (inf * 0 is nan)
    terms = s * z + np.where(z != 0.0, lam_mat, 0.0) * np.abs(z)
    return _logdet_objectives(z, np.sum(terms, axis=(-2, -1)))


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
    lam_mat = _lambda_matrix(lam, x.p, penalize_diagonal)
    [(theta, kkt, it)] = _glasso_stack(s[None], lam_mat, opts)
    return _report_matrix(theta, float(_glasso_objectives(s[None], lam_mat, theta[None])[0]),
                          kkt, it, True)


def _glasso_stack(s, lam_mat, opts: SolverOptions) -> list:
    """glasso on a stack of inputs s (B, p, p) that share the weight matrix
    lam_mat: [(theta, kkt, iterations)] in stack order.  With no penalty at
    all, theta is the inverse of each input, which must certify; so a 1x1
    input with an unpenalized diagonal gets theta = 1/x_ii at 0 iterations."""
    d = np.diagonal(s, axis1=-2, axis2=-1)
    if np.isinf(np.diag(lam_mat)).any():
        raise NoSolutionError("an infinite diagonal weight makes every objective value infinite")
    if np.any((np.diag(lam_mat) == 0.0) & (d <= 0.0)):
        raise NoSolutionError(
            "unpenalized diagonal requires strictly positive input diagonal"
        )
    tol = opts.tol * _scales(s)
    if lam_mat.any():
        lam_3d = lam_mat[None]  # a (p, p) operand broadcast against a stack is slower
        return _admm(
            "glasso",
            s,
            _diag(1.0 / np.clip(d, 1e-8, None)),
            _logdet_prox,
            lambda a, rho: _soft(a, lam_3d / rho),
            lambda xs, theta, z: (_glasso_kkt(xs, lam_mat, z), z),
            opts,
            tol,
        )
    wv, q = np.linalg.eigh(s)
    low = np.flatnonzero(wv[:, 0] <= 1e-12)
    if low.size:
        raise NoSolutionError(
            f"lam=0 needs a positive definite input (min eig {wv[low[0], 0]:.3e})"
        )
    theta = (q / wv[:, None, :]) @ q.mT
    theta = (theta + theta.mT) / 2.0
    kkt = _glasso_kkt(s, lam_mat, theta)
    for kkt_b, tol_b in zip(kkt, tol):
        _require_certified("glasso", kkt_b, tol_b)
    return list(zip(theta, kkt, [0] * len(s)))


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
    """Nearest matrix to a with eigenvalues in [0, 1] summing to k: the
    eigenvalues shifted by ``_fantope_shift`` and clipped, the eigenvectors
    kept.  ValueError unless 1 <= k <= p."""
    p = a.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"k must be in 1..{p}, got {k}")
    if k == p:
        # the Fantope with k = p is the single point I; the shift search
        # would need t[0] >= p, which rounding can break
        return np.eye(p)
    w, q = np.linalg.eigh(a)
    return _spectral(q, np.clip(w - _fantope_shift(w, k), 0.0, 1.0))


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


def _fantope_objective(s, lam, z) -> float:
    return float(np.sum(s * z) - lam * np.sum(np.abs(z)))


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
    if np.isinf(lam):
        # trace(theta) = k puts a nonzero entry in every feasible theta
        raise NoSolutionError("an infinite weight makes every objective value infinite")
    s = x.dense()
    p = x.p
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
            return _report_matrix(z, _fantope_objective(s, lam, z), max(r_norm, s_norm), it, True)
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
    """Eigenvalues of each matrix in a (..., n, n) raised to at least eps."""
    w, q = np.linalg.eigh(a)
    return _spectral(q, np.maximum(w, eps)[..., None, :])


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
    s = x.dense()
    [(theta, kkt, it)] = _sparse_cov_stack(s[None], lam, eps, opts)
    return _report_matrix(theta, _sparse_cov_objective(s, lam, theta), kkt, it, True)


def _sparse_cov_stack(s, lam: float, eps: float, opts: SolverOptions) -> list:
    """sparse_cov on a stack of inputs s (B, p, p): [(theta, kkt,
    iterations)] in stack order.  The inputs whose soft threshold clears
    the floor take it, and the others run ADMM as one stack."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if eps <= 0:
        raise ValueError("eigenvalue floor eps must be positive")
    if np.isinf(lam):
        # theta >= eps I has a positive diagonal
        raise NoSolutionError("an infinite weight makes every objective value infinite")
    direct = _soft(s, lam)
    tol = opts.tol * _scales(s)
    feasible = np.linalg.eigvalsh(direct)[:, 0] >= eps
    out = [None] * len(s)
    for b in np.flatnonzero(feasible):
        kkt = _sparse_cov_kkt(s[b], lam, eps, direct[b])
        _require_certified("sparse_cov", kkt, tol[b])
        out[b] = (direct[b], kkt, 0)
    rest = np.flatnonzero(~feasible)
    if rest.size:
        solved = _admm(
            "sparse_cov",
            s[rest],
            _spectral_floor(direct[rest], eps),
            lambda v, rho, s_live: _spectral_floor((s_live + rho * v) / (1.0 + rho), eps),
            lambda a, rho: _soft(a, lam / rho),
            lambda xs, theta, z: (np.array([_sparse_cov_kkt(x_b, lam, eps, t_b)
                                            for x_b, t_b in zip(xs, theta)]), theta),
            opts,
            tol[rest],
        )
        for b, result in zip(rest, solved):
            out[b] = result
    return out


# =====================================================================
# sign-constrained inverse covariance
# =====================================================================

@_certificate
def _positive_invcov_kkt(s, z, top=None):
    """KKT residual at z, for one matrix or each member of a stack (..., n, n):
    inf where z is not positive definite."""
    pos, inv = _inverse(z)
    e = inv - s
    # |e| on the diagonal and the off-diagonal support, else the sign excess
    free = np.eye(z.shape[-1], dtype=bool) | _support(z, top)
    r = np.where(free, np.abs(e), np.maximum(-e, 0.0))
    return np.where(pos, np.max(r, axis=(-2, -1)), np.inf)[()]


def _positive_invcov_objectives(s, z) -> np.ndarray:
    """The objective of each member of a stack (B, n, n); inf where z is not
    positive definite."""
    return _logdet_objectives(z, np.sum(s * z, axis=(-2, -1)))


def positive_invcov(x: SymMatrix, opts: SolverOptions | None = None) -> SolveReport:
    """Gaussian likelihood fit with nonpositive off-diagonal precision.

    Minimizes -log det(omega) + <x, omega> subject to omega_ij <= 0 for
    i != j (diagonal free).  Same log-det proximal ADMM as glasso with the
    soft threshold replaced by clipping positive off-diagonal entries to
    zero, so the constraint holds exactly on the reported iterate.
    """
    opts = opts or SolverOptions()
    s = x.dense()
    [(z, kkt, it)] = _positive_invcov_stack(s[None], opts)
    return _report_matrix(z, float(_positive_invcov_objectives(s[None], z[None])[0]), kkt, it,
                          True)


def _positive_invcov_stack(s, opts: SolverOptions) -> list:
    """positive_invcov on a stack of inputs s (B, p, p): [(omega, kkt,
    iterations)] in stack order."""
    d = np.diagonal(s, axis1=-2, axis2=-1)
    if np.any(d <= 0.0):
        raise NoSolutionError("input diagonal must be strictly positive")
    off_mask = ~np.eye(s.shape[-1], dtype=bool)[None]  # (1, p, p), as in _glasso_stack
    return _admm(
        "positive_invcov",
        s,
        _diag(1.0 / d),
        _logdet_prox,
        lambda a, rho: np.where(off_mask, np.minimum(a, 0.0), a),
        lambda xs, theta, z: (_positive_invcov_kkt(xs, z), z),
        opts,
        opts.tol * _scales(s),
    )


# =====================================================================
# pairwise sign-interaction model (pseudo count enumeration)
# =====================================================================

@lru_cache(maxsize=None)
def _half_states(p: int) -> np.ndarray:
    """The 2^(p-1) sign vectors of length p whose last coordinate is +1:
    one of each pair u, -u."""
    codes = np.arange(2 ** (p - 1))[:, None]
    states = 1.0 - 2.0 * ((codes >> np.arange(p)[None, :]) & 1)
    states.flags.writeable = False
    return states


def ising_logpartition(theta: SymMatrix) -> tuple[float, SymMatrix]:
    """Log partition function and moment matrix by state enumeration.

    theta must have an exactly zero diagonal and p <= 15.  Returns
    (log sum_u exp(u' theta u), E[u u']), the sum over all 2^p sign vectors.
    u and -u have the same energy u' theta u and the same u u', so the sum
    runs over the 2^(p-1) vectors whose last sign is +1 and adds log 2 to
    logZ; the moment is the same over either half.  The energies come from
    one matrix product, and one exp pass gives both logZ and the weights.
    """
    logz, moment = _ising_enumerate(np.asarray(theta))
    return logz, SymMatrix.wrap(moment)


def _ising_enumerate(td: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`ising_logpartition` on the array td, with its checks; the
    moment comes back as an exactly symmetric array, the one SymMatrix.wrap
    would store."""
    p = td.shape[0]
    if p > ISING_MAX_P:
        raise ValueError(f"enumeration capped at p={ISING_MAX_P}, got {p}")
    if td.diagonal().any():  # nan is nonzero too
        raise ValueError("interaction matrix must have a zero diagonal")
    states = _half_states(p)
    # the array methods: np.sum's dispatch costs more than the sum at small p
    energy = ((states @ td) * states).sum(axis=1)
    emax = float(energy.max())
    weights = np.exp(energy - emax)
    total = float(weights.sum())
    weights /= total
    moment = (states * weights[:, None]).T @ states
    np.fill_diagonal(moment, 1.0)
    # a BLAS product need not come out exactly symmetric; the iterates of
    # ising_pmle stay symmetric only if the moment is
    return emax + float(np.log(total)) + _LOG2, (moment + moment.T) / 2.0


def _ising_objective(s, lam, theta, logz) -> float:
    l1 = float(np.sum(np.abs(theta)))
    # a zero theta pays no penalty, also under an infinite weight (inf * 0 is nan)
    return logz - float(np.sum(s * theta)) + (lam * l1 if l1 else 0.0)


@_certificate
def _ising_kkt(moment_minus_s: np.ndarray, lam: float, theta: np.ndarray, top=None) -> float:
    """KKT residual over the off-diagonal entries of theta; copysign is lam *
    sign(theta) on the support without inf * 0 off it."""
    r = np.where(_support(theta, top), np.abs(moment_minus_s + np.copysign(lam, theta)),
                 np.maximum(np.abs(moment_minus_s) - lam, 0.0))
    np.fill_diagonal(r, 0.0)  # every term is >= 0, so the zeros leave the max as it is
    return float(r.max())


def ising_pmle(x: SymMatrix, lam: float, opts: SolverOptions | None = None) -> SolveReport:
    """Penalized moment-matching fit of pairwise sign interactions.

    Minimizes logpartition(theta) - <x, theta> + lam * sum_{i<j} 2|theta_ij|
    over symmetric theta with zero diagonal, by monotone proximal gradient
    descent with backtracking.  logpartition and its gradient come from
    :func:`ising_logpartition`, which enumerates one state of each spin-flip
    pair u, -u (2^(p-1) states), so p <= 15.
    """
    opts = opts or SolverOptions()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    p = x.p
    s = x.dense()
    scale = _scale(s)
    tol = opts.tol * scale
    theta = np.zeros((p, p))
    logz, moment = _ising_enumerate(theta)
    step = 1.0
    lhat = 0.0  # largest observed curvature; 1/lhat keeps the step contractive
    for it in range(1, opts.max_iter + 1):
        grad = moment - s
        np.fill_diagonal(grad, 0.0)
        kkt = _ising_kkt(grad, lam, theta)
        if kkt <= tol:
            return _report_matrix(theta, _ising_objective(s, lam, theta, logz), kkt, it - 1, True)
        f_cur = logz - float(np.sum(s * theta))
        while True:
            cand = _soft(theta - step * grad, step * lam)
            np.fill_diagonal(cand, 0.0)
            logz_new, moment_new = _ising_enumerate(cand)
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
        grad_new = moment_new - s
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


def _ising_stack(xs, lam: float, opts: SolverOptions) -> list:
    """ising_pmle on each member of a stack xs (B, p, p): [(theta, kkt,
    iterations)] in stack order."""
    reps = (ising_pmle(SymMatrix.wrap(x_b), lam, opts) for x_b in xs)
    return [(rep.theta.dense(), rep.kkt_residual, rep.iterations) for rep in reps]


# =====================================================================
# the family table: dispatch, objectives, certificates
# =====================================================================

@dataclass(frozen=True)
class _Record:
    """An estimator family: the penalty ``kind`` and spec fields (``needs``)
    it requires, its solver ``run(spec, x)``, its reduction ``group``, and
    its certificate.  A vector family (``matrix=False``) gives
    ``residual(spec, x, theta)`` and ``objective(spec, x, theta)``.  A matrix
    family is checked block by block, on stacks (B, n, n) of same-size
    blocks: ``piece(spec, xs, thetas)`` gives each block's share of the
    objective (for glasso and positive_invcov its whole objective, so the
    objective is the sum of the pieces; for Ising its enumeration),
    ``residual(spec, xs, thetas, top, pieces)`` each block's KKT residual,
    and ``objective(spec, x, theta, pieces)`` assembles the objective from
    the pieces of all blocks in partition order.
    ``couples``: the blocks share a constraint.  ``stack(spec, xs)``: the
    solver on a stack xs of same-size blocks, [(theta, kkt, iterations)] in
    stack order; every family whose blocks do not couple has one.
    """

    kind: PenaltyKind
    group: GroupId
    run: Callable
    residual: Callable
    objective: Callable
    piece: Callable = lambda spec, xs, thetas: [None] * len(thetas)
    needs: tuple[str, ...] = ()
    matrix: bool = True
    couples: bool = False
    stack: Callable | None = None


def _lasso_kkt(spec, x, theta) -> float:
    lam = np.broadcast_to(np.asarray(spec.penalty.weights, dtype=float), x.shape)
    on = theta != 0.0
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs((theta - x + lam * np.sign(theta))[on])))
    if (~on).any():
        worst = max(worst, float(np.max(np.maximum(np.abs(x[~on]) - lam[~on], 0.0))))
    return worst


def _nnls_kkt(spec, x, theta) -> float:
    on = theta != 0.0
    worst = 0.0
    if on.any():
        worst = float(np.max(np.abs((theta - x)[on])))
    if (~on).any():
        worst = max(worst, float(np.max(np.maximum(x[~on], 0.0))))
    return worst


def _lasso_objective(spec, x, theta) -> float:
    lam = np.broadcast_to(np.asarray(spec.penalty.weights, dtype=float), x.shape)
    return 0.5 * float(np.sum((x - theta) ** 2)) + float(np.sum(lam * np.abs(theta)))


def _nnls_objective(spec, x, theta) -> float:
    return np.inf if np.any(theta < 0) else 0.5 * float(np.sum((x - theta) ** 2))


def _glasso_lam(spec, p: int) -> np.ndarray:
    return _lambda_matrix(spec.penalty.weights, p, spec.penalize_diagonal)


def _lam(spec) -> float:
    return spec.penalty.scalar_weight()


def _ising_pieces(spec, xs, thetas) -> list:
    """The enumeration (logz, moment) of each member of a stack (B, n, n)."""
    return [ising_logpartition(SymMatrix.wrap(t)) for t in thetas]


def _ising_block_kkt(spec, s, t, top, enumerated) -> list:
    # the blocks' enumerations are shared with the objective; a check that
    # computes no objective enumerates here instead
    enumerated = enumerated or _ising_pieces(spec, s, t)
    return [_ising_kkt(np.asarray(moment) - s_b, _lam(spec), t_b, top=top)
            for s_b, t_b, (_, moment) in zip(s, t, enumerated)]


_FAMILIES = {
    Family.LASSO: _Record(
        PenaltyKind.ENTRYWISE_L1, GroupId.SIGN_FLIP_VECTOR,
        run=lambda spec, x: _vector_report(spec, x, lasso(x, spec.penalty.weights)),
        residual=_lasso_kkt, objective=_lasso_objective, matrix=False,
    ),
    Family.NNLS: _Record(
        PenaltyKind.POSITIVE_CONE, GroupId.SIGN_FLIP_VECTOR,
        run=lambda spec, x: _vector_report(spec, x, nnls(x)),
        residual=_nnls_kkt, objective=_nnls_objective, matrix=False,
    ),
    Family.GLASSO: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: glasso(x, spec.penalty.weights, spec.opts, spec.penalize_diagonal),
        # the weights of one block, so a decomposed check builds no p x p
        # weight matrix
        piece=lambda spec, s, t: _glasso_objectives(s, _glasso_lam(spec, t.shape[-1]), t),
        residual=lambda spec, s, t, top, _: _glasso_kkt(
            s, _glasso_lam(spec, s.shape[-1]), t, top=top),
        objective=lambda spec, s, t, pieces: float(np.sum(pieces)),
        stack=lambda spec, xs: _glasso_stack(xs, _glasso_lam(spec, xs.shape[-1]), spec.opts),
    ),
    Family.FANTOPE_SPCA: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: fantope_spca(x, _lam(spec), spec.k, spec.opts),
        residual=lambda spec, s, t, top, _: [
            _fantope_kkt(s_b, _lam(spec), spec.k, t_b) for s_b, t_b in zip(s, t)],
        objective=lambda spec, s, t, _: _fantope_objective(s, _lam(spec), t),
        needs=("k",), couples=True,
    ),
    Family.SPARSE_COV: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: sparse_cov(x, _lam(spec), spec.eps, spec.opts),
        residual=lambda spec, s, t, top, _: [
            _sparse_cov_kkt(s_b, _lam(spec), spec.eps, t_b, top=top) for s_b, t_b in zip(s, t)],
        objective=lambda spec, s, t, _: _sparse_cov_objective(s, _lam(spec), t),
        needs=("eps",),
        stack=lambda spec, xs: _sparse_cov_stack(xs, _lam(spec), spec.eps, spec.opts),
    ),
    Family.POSITIVE_INVCOV: _Record(
        PenaltyKind.OFFDIAG_POSITIVITY, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: positive_invcov(x, spec.opts),
        piece=lambda spec, s, t: _positive_invcov_objectives(s, t),
        residual=lambda spec, s, t, top, _: _positive_invcov_kkt(s, t, top=top),
        objective=lambda spec, s, t, pieces: float(np.sum(pieces)),
        stack=lambda spec, xs: _positive_invcov_stack(xs, spec.opts),
    ),
    Family.ISING_PMLE: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: ising_pmle(x, _lam(spec), spec.opts),
        piece=_ising_pieces,
        residual=_ising_block_kkt,
        objective=lambda spec, s, t, lms: _ising_objective(
            s, _lam(spec), t, sum(logz for logz, _ in lms)),
        stack=lambda spec, xs: _ising_stack(xs, _lam(spec), spec.opts),
    ),
}


def _family(spec: EstimatorSpec) -> _Record:
    """The record of spec's family, once spec has what the family needs."""
    rec = _FAMILIES[spec.family]
    if spec.penalty.kind is not rec.kind:
        raise ValueError(
            f"{spec.family.value} expects a {rec.kind.value} penalty, "
            f"got {spec.penalty.kind.value}"
        )
    for name in rec.needs:
        if getattr(spec, name) is None:
            raise ValueError(f"{spec.family.value} requires {name}")
    return rec


def solve(spec: EstimatorSpec, x) -> SolveReport:
    """Run the family's solver on input x and return its report."""
    rec = _family(spec)
    return rec.run(spec, as_symmetric(x) if rec.matrix else np.asarray(x, dtype=float))


def _vector_report(spec, x, theta) -> SolveReport:
    kkt = kkt_residual(spec, x, theta)
    return SolveReport(theta, objective_at(spec, x, theta), kkt, 0, True, _support(theta))


def _check(spec: EstimatorSpec, x, theta, residual: bool) -> float:
    """The KKT residual if ``residual``, else the objective; for a matrix
    family, from its blockwise check on the one-block partition."""
    rec = _family(spec)
    if rec.matrix:
        xm = as_symmetric(x)
        one = Partition.from_blocks([range(xm.p)], xm.p)
        return _separable_check(spec, xm, theta, one, residual, not residual)[not residual]
    xv, td = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    return (rec.residual if residual else rec.objective)(spec, xv, td)


def objective_at(spec: EstimatorSpec, x, theta) -> float:
    """Evaluate the family objective at an arbitrary point."""
    return _check(spec, x, theta, residual=False)


def kkt_residual(spec: EstimatorSpec, x, theta) -> float:
    """Independent first-order certificate at theta (0 = exact optimum)."""
    return _check(spec, x, theta, residual=True)


def reduction_for(spec: EstimatorSpec) -> tuple[PenaltySpec, GroupId]:
    """The (penalty, group) pair whose reduction is sufficient for spec."""
    rec = _family(spec)
    penalty = spec.penalty
    if penalty.kind is PenaltyKind.SYMMETRIC_L1:
        # a matrix is screened at one level, so the weight must be a scalar
        penalty = PenaltySpec(penalty.kind, penalty.scalar_weight())
    return penalty, rec.group


def _size_groups(partition: Partition) -> list:
    """The blocks of ``partition`` grouped by size, in order of first
    appearance: per size, the blocks' positions in partition order and the
    index pair that gathers them from a p x p array as one (B, n, n) stack
    (and scatters such a stack back)."""
    sizes: dict[int, list[int]] = {}
    for i, blk in enumerate(partition.blocks):
        sizes.setdefault(len(blk), []).append(i)
    groups = []
    for members in sizes.values():
        r = np.array([partition.blocks[i] for i in members])
        groups.append((members, (r[:, :, None], r[:, None, :])))
    return groups


def _separable_check(spec: EstimatorSpec, x, theta, partition, residual: bool = True,
                     objective: bool = True) -> tuple[float | None, float | None]:
    """KKT residual and objective of a matrix family at a theta that is
    zero off the blocks of ``partition``, computed block by block.

    Off the blocks the condition is the screening inequality on x itself,
    scored as its excess: max(|x_ij| - lam, 0), or max(x_ij, 0) for
    positive_invcov.  On each block it is the family's residual at (x_bb,
    theta_bb), with support classified against max|theta| over the whole
    matrix, so every partition gives the one-block result up to rounding.
    The blocks of one size are scored as one stack; their objective pieces
    are put back in partition order, so the objective sums in that order.
    As theta is zero off the blocks, the entrywise objective terms of glasso
    and positive_invcov are summed over the blocks only.
    No solver state is read.  ``residual=False`` or ``objective=False``
    skips that half, which then reads None.  Returns (inf, nan) if theta has
    a non-finite entry or a nonzero entry off the blocks, or if a residual
    term is NaN.
    """
    rec = _family(spec)
    s = np.asarray(x, dtype=float)
    td = np.asarray(theta, dtype=float)
    # max|theta| with no p x p temporary; nan or inf when an entry is
    top = max(float(td.max()), -float(td.min()))
    if not np.isfinite(top):
        return np.inf, np.nan
    groups = _size_groups(partition)
    thetas = [td[ix] for _, ix in groups]
    # theta is zero off the blocks exactly when the blocks hold all its nonzeros
    if np.count_nonzero(td) != sum(np.count_nonzero(t) for t in thetas):
        return np.inf, np.nan
    resid = [0.0]
    if residual and len(partition.blocks) > 1:
        signed = rec.kind is PenaltyKind.OFFDIAG_POSITIVITY
        # one p x p work array and no masked copies: temporaries whose size
        # varies from solve to solve fragment the heap and raise peak memory
        work = s.copy() if signed else np.abs(s)
        for _, ix in groups:
            work[ix] = 0.0
        resid.append(max(float(work.max()) - (0.0 if signed else _lam(spec)), 0.0))
        del work
    pieces = [None] * len(partition.blocks)
    for (members, ix), t in zip(groups, thetas):
        sb = s[ix]
        group_pieces = rec.piece(spec, sb, t) if objective else None
        if objective:
            for i, piece in zip(members, group_pieces):
                pieces[i] = piece
        if residual:
            resid.append(float(np.max(rec.residual(spec, sb, t, top, group_pieces))))
    if residual and np.isnan(resid).any():
        # max() keeps its first argument against a NaN, so a NaN term would
        # otherwise vanish from the residual
        return np.inf, np.nan
    return (max(resid) if residual else None,
            rec.objective(spec, s, td, pieces) if objective else None)


def solve_decomposed(spec: EstimatorSpec, x) -> SolveReport:
    """Screen the input, solve each independent block, and reassemble.

    Families whose objective separates over the blocks (all matrix families
    except fantope_spca) take only the screening partition
    (:func:`~suffreduce.reductions.screening_partition`) and solve the blocks
    independently: all blocks of one size go to the family's stack solver as
    one stack, gathered from the input and scattered back into theta with one
    index pair.  Inside a block the reduced input equals the input bit for
    bit, so no mask is built.  The ADMM families run a stack in lockstep and
    certify each block on its own, with the iterates and iteration count the
    block has when solved alone; Ising solves its members one after another.
    A 1x1 block is a member like any other: glasso with an unpenalized
    diagonal gives it theta_ii = 1/x_ii and Ising theta_ii = 0, both at 0
    iterations.  The blocks of a stack report an equal share of its seconds.
    If a block fails, the error is the one that solving the blocks one by
    one in partition order would raise first.  The reassembled theta is
    certified block by block against the original input
    (:func:`_separable_check`), which gives :func:`kkt_residual` and
    :func:`objective_at` up to rounding; ``converged`` means that residual
    is at most ``opts.tol * (1 + max|x|)``.  fantope_spca couples blocks
    through its trace budget, so it is solved on the whole reduced matrix
    and certified as one block.
    """
    rec = _family(spec)
    if not rec.matrix:
        raise ValueError("block decomposition applies to matrix families only")
    xm = as_symmetric(x)
    penalty, group = reduction_for(spec)

    if rec.couples:
        rep = solve(spec, reduce_input(penalty, group, xm).reduced)
        kkt = kkt_residual(spec, xm, rep.theta)
        return SolveReport(rep.theta, objective_at(spec, xm, rep.theta), kkt, rep.iterations,
                           rep.converged, rep.support)

    partition = screening_partition(penalty, xm)
    s = np.asarray(xm)
    blocks = partition.blocks
    theta = np.zeros((xm.p, xm.p))
    stats = [None] * len(blocks)
    try:
        for members, ix in _size_groups(partition):
            start = time.perf_counter()
            solved = rec.stack(spec, s[ix])
            theta[ix] = np.stack([theta_b for theta_b, _, _ in solved])
            share = (time.perf_counter() - start) / len(members)
            for i, (_, _, it) in zip(members, solved):
                stats[i] = BlockStat(blocks[i], it, share)
    except (ConvergenceError, NoSolutionError, ValueError):
        # a stack raises for its own first failing block; raise what the
        # partition's first failing block raises when solved alone
        for blk in blocks:
            rec.stack(spec, s[np.ix_(blk, blk)][None])
        raise

    theta = SymMatrix.wrap(theta)
    kkt, objective = _separable_check(spec, xm, theta, partition)
    converged = kkt <= spec.opts.tol * _scale(s)
    return SolveReport(theta, objective, kkt, sum(st.iterations for st in stats),
                       converged, _support(np.asarray(theta)), tuple(stats))
