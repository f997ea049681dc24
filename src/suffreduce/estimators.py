"""Reference solvers for the supported penalized estimator families.

glasso, sparse_cov and positive_invcov run on one ADMM driver, :func:`_admm`
(one smooth/constrained proximal step, one soft-threshold or projection step,
scaled dual update, over-relaxation and residual-balanced rho, from the fixed
settings ``_RHO``, ``_OVER_RELAX`` and ``_CHECK_EVERY``); each solver
supplies only its two proximal maps, its start (primal, and dual if not
zero) and its certificate.
The driver runs a stack of same-size problems in lockstep on (B, n, n)
arrays, with one stacked eigendecomposition per iteration; every step is
entrywise or per matrix, so each problem follows the iterates it would
follow alone, bit for bit, and a direct solve is a stack of one.
glasso starts each problem at the KKT pair read off its soft-thresholded
input: the dual feasible point w0 = x - clip(x, -lam, lam) (x_ii + lam_ii on
the diagonal) gives the dual start (w0 - x) / rho and, where w0 is positive
definite and w0^-1 has the lower objective, the primal start w0^-1, else
diag(1/x_ii); positive_invcov takes the matching dual start alone.  A glasso
problem that starts at w0^-1 is certified before _admm runs at one closed-form
point: w0^-1 itself where it has the sign pattern the KKT conditions ask of
it (an entrywise test), else, where the graph of its edges with the sign
the KKT conditions ask is chordal, the inverse of the maximum-determinant
completion of w0 on that graph, built from the graph's cliques.  A problem
whose point certifies leaves at 0 iterations with it; only the rest iterate.
Each problem's ADMM map on (z, u) is Anderson-accelerated (type II, memory
``_AA_MEMORY``): the next point mixes the last map outputs so as to shrink
the fixed-point residual, which about halves the iterations.  The memory is
per problem, about 4 * _AA_MEMORY * n^2 floats, and is emptied when the
problem's rho moves or its fixed-point residual grows.  The extrapolated
point is only where the map is evaluated next: the certificate, the residual
norms and the reported point always come from a map output (the prox_g
output z, or theta for sparse_cov), so exact zeros and sign constraints hold.
positive_invcov polishes z before each certificate: damped Newton on the
likelihood over z's pattern (its diagonal and its negative entries), each
step by preconditioned conjugate gradients on Hessian-vector products.  The
polished point keeps z's exact zeros by construction, and it is reported
only if the certificate, which also scores a positive off-diagonal entry,
passes it; else z is certified and the ADMM goes on.
Convergence is declared only when an independently recomputed KKT residual
at the reported point is finite and at most ``opts.tol * (1 + max|input|)``
(an infinite input makes that bound inf, which an inf residual would meet);
the same residual functions are exposed for verification, so the
certificate never reuses solver state, and a point with a non-finite entry
never certifies.  A LinAlgError from a solve (an eigendecomposition of a
block holding a NaN) reaches the caller as ConvergenceError.
The certificate runs every ``_CHECK_EVERY`` iterations, at the last
iteration, and at most once per window of ``_CHECK_EVERY`` iterations when
both ADMM residual norms (primal |theta - z|_F, dual rho |z - z_old|_F) are
at most that tolerance.  Frobenius norms are at least the max-abs scale the
tolerance is stated in, so this trigger is conservative; it only decides
when to certify, never whether a point is optimal.

A family is defined by one record in ``_FAMILIES``; every entry point looks
it up and checks the spec against it.  Matrix families have one certificate
path, the block by block check on stacks of x and of the point: a
decomposed solve runs it on the stacks it reports, kkt_residual and
objective_at on the one-block partition.  For the separable families the
KKT conditions and the objective split over the blocks, so a decomposed
solve is certified reading only the input and the point, with no
eigendecomposition of the whole matrix.  Both the check and solve_decomposed
work on size groups: all blocks of one size are gathered into one (B, n, n)
stack, which the family's solver solves in one call and its block residual
and objective piece score in one call, so a 1x1 block is a member of a
(B, 1, 1) stack like any other.

ising_pmle works on the couplings t = (theta_ij), i < j, a vector of length
m = p (p - 1) / 2, and on the read-only pair table P (2^(p-1), m), cached
per p, with P[s, ij] = u_i u_j over one sign vector u of each spin-flip
pair: the energies are the product P (2t) and the moment the product w P of
the normalized weights w.  Its proximal gradient descent, its KKT residual
and the blockwise Ising certificate all work on such vectors, with no
diagonal to zero and no moment to symmetrize.

fantope_spca keeps its own ADMM loop and still stops on its ADMM residuals
rather than on an independent certificate (ROADMAP item 1).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, wraps

import numpy as np

from .linkage import Partition, chordal_cliques
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
# the ADMM settings of every solve (Boyd et al. 2011, sec. 3.4.1): the start
# rho, which residual balancing then moves, the over-relaxation, and the
# cadence of the certificate and of fantope_spca's rho update
_RHO = 1.0
_OVER_RELAX = 1.6
_CHECK_EVERY = 25


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

    def __post_init__(self):
        needs = {"tol > 0": self.tol > 0, "max_iter >= 1": self.max_iter >= 1}
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


def _absmax(a) -> float:
    """max|a| as max(max a, -min a), with no temporary the size of a; nan
    when a has a NaN entry."""
    return max(float(a.max()), -float(a.min()))


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
    """1 + max|s| of each member of a stack (B, n, n)."""
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


def _admm(name, x, z0, prox_f, prox_g, certify, max_iter: int, tol, u0=None):
    """Over-relaxed scaled ADMM with residual-balanced rho for B independent
    problems min f_b(theta) + g(z) s.t. theta = z (Boyd et al. 2011, sec.
    3.4.1), run in lockstep on stacked arrays and Anderson-accelerated.
    The over-relaxation is ``_OVER_RELAX``; each problem's rho starts at
    ``_RHO`` and is doubled or halved when one residual norm is ten times
    the other.

    ``x`` (B, n, n) holds the problems' inputs, ``z0`` their start points,
    ``u0`` their scaled dual start points (None: zero) and ``tol`` their
    tolerances.  ``prox_f(v, rho, x)`` and ``prox_g(a, rho)``
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
    points (D, n, n), each residual computed at its reported point.  A
    reported point is a map output or a point derived from one, never an
    Anderson point: glasso and sparse_cov report a map output, which keeps
    the exact zeros and sign constraints of prox_g; positive_invcov may
    report a point polished from z, whose zeros hold by construction and
    whose sign constraint holds through its certificate.  It is called at
    most once per iteration, on every problem that is due.  A problem is
    due every ``_CHECK_EVERY`` iterations, at
    the last iteration, and, at most once in each window of ``_CHECK_EVERY``
    iterations, at the first iteration whose primal and dual residual norms
    |theta - z'|_F and rho |z' - z|_F are both <= tol (sec. 3.3.1).  A
    Frobenius norm is at least the largest entry, the scale ``tol`` is
    stated in, so that trigger is conservative; the window bound keeps a
    stalled solve from certifying on every iteration.  The certificate is
    the only stopping rule and leaves the iterates and rho untouched: a
    problem leaves the stack at the first point whose residual is <= its
    tol and is not certified again.  The start z0 itself is never
    certified here: a caller whose start may already be optimal certifies
    it before the call and passes in only the problems that fail.
    Returns [(point, residual, iterations)] in stack order.  Raises
    ConvergenceError if a problem is still running after ``max_iter``
    iterations.
    """
    count, n = z0.shape[:2]
    w = np.zeros((count, 2, n, n))  # the point (z, u) of each problem
    w[:, 0] = z0
    if u0 is not None:
        w[:, 1] = u0
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
    rho = [_RHO] * count
    early = [-1] * count
    rho_arg = rho[0]
    out = [None] * count
    for it in range(1, max_iter + 1):
        z, u = w[:, 0], w[:, 1]
        theta = prox_f(z - u, rho_arg, x)
        th_hat = _OVER_RELAX * theta + (1.0 - _OVER_RELAX) * z
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
        window = (it - 1) // _CHECK_EVERY
        cadence = it % _CHECK_EVERY == 0 or it == max_iter
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
                if _certifies(r, tol[k]):
                    out[live[k]] = (point.copy(), r, it)
                    gone.append(k)
            if len(gone) == len(live):
                return out
        moved = []  # (problem, factor its u is scaled by)
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
        f"{name} did not reach tol {tol[0]:.3e} in {max_iter} iterations"
    )


def _certifies(resid, tol) -> bool:
    """resid <= tol for a finite resid.  inf <= inf holds, so without the
    finiteness test an infinite residual would certify wherever an infinite
    input entry makes tol infinite; NaN fails both tests."""
    return bool(resid <= tol) and math.isfinite(resid)


def _require_certified(name, resid, tol):
    """A closed-form point certifies like an ADMM one: raise unless
    :func:`_certifies` (resid, tol)."""
    if not _certifies(resid, tol):
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


def _inverse(z, factor=None):
    """(positive definite, inverse) of a matrix or of each member of a stack
    (..., n, n), from one Cholesky factor z = L L^T as inv(L)^T inv(L);
    ``factor`` is _cholesky(z) when the caller has it.  The inverse of a
    member that is not positive definite is meaningless, but computed
    without a division by zero.  A 1x1 member takes the exact reciprocal."""
    if z.shape[-1] == 1:
        pos = z[..., 0, 0] > 0.0
        return pos, 1.0 / np.where(pos[..., None, None], z, 1.0)
    pos, low = _cholesky(z) if factor is None else factor
    inv = np.linalg.inv(low)
    return pos, inv.mT @ inv


def _logdets(low):
    """log det of each member of a stack from its lower Cholesky factor."""
    return 2.0 * np.sum(np.log(np.diagonal(low, axis1=-2, axis2=-1)), axis=-1)


def _logdet_objectives(z, rest, factor=None):
    """-log det(z) + rest for each member of a stack z (B, n, n), from its
    Cholesky factor ``factor`` (computed when None); inf where z is not
    positive definite."""
    pos, low = _cholesky(z) if factor is None else factor
    return np.where(pos, rest - _logdets(low), np.inf)


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
def _glasso_kkt(s, lam_mat, z, top=None, factor=None):
    """KKT residual at z, for one matrix or each member of a stack (..., n, n):
    inf where z is not positive definite.  ``factor``: _cholesky(z), if known."""
    pos, inv = _inverse(z, factor)
    e = inv - s
    # on the support z != 0, where copysign is lam * sign(z) without inf * 0
    r = np.where(_support(z, top), np.abs(e - np.copysign(lam_mat, z)),
                 np.maximum(np.abs(e) - lam_mat, 0.0))
    return np.where(pos, np.max(r, axis=(-2, -1)), np.inf)[()]


def _glasso_linear(s, lam_mat, z) -> np.ndarray:
    """<s, z> + sum_ij lam_ij |z_ij| for each member of a stack (B, n, n)."""
    # a zero entry pays no penalty, also under an infinite weight (inf * 0 is nan)
    terms = s * z + np.where(z != 0.0, lam_mat, 0.0) * np.abs(z)
    return np.sum(terms, axis=(-2, -1))


def _glasso_objectives(s, lam_mat, z, factor=None) -> np.ndarray:
    """The objective of each member of a stack (B, n, n) under the weights
    lam_mat (n, n); inf where z is not positive definite.  ``factor``:
    _cholesky(z), if known."""
    return _logdet_objectives(z, _glasso_linear(s, lam_mat, z), factor)


def glasso(x: SymMatrix, lam, opts: SolverOptions | None = None,
           penalize_diagonal: bool = False) -> SolveReport:
    """Penalized inverse-covariance fit.

    Minimizes -log det(theta) + <x, theta> + sum_ij L_ij |theta_ij| over
    positive definite theta.  ``lam`` is a scalar (applied off-diagonal
    unless ``penalize_diagonal``) or a full symmetric weight matrix.

    ADMM with a log-det proximal step (one eigendecomposition per
    iteration) and an entrywise soft threshold; the soft-thresholded iterate
    is reported, so zeros in the solution are exact.  It starts from the
    dual feasible point w0 read off the soft-thresholded input (see
    _glasso_start): the dual at (w0 - x) / rho, and the primal at w0^-1
    unless w0 is not positive definite or diag(1/x_ii) has the lower
    objective.  On a block whose w0^-1 meets the KKT conditions, as on an
    equicorrelated one, w0^-1 is certified and reported before any ADMM
    iteration, and the report reads 0 iterations; so is the closed form of
    the maximum-determinant completion of w0 on a chordal graph, as on a
    block whose thresholded graph is a tree (see _glasso_stack).
    """
    opts = opts or SolverOptions()
    s = x.dense()
    lam_mat = _lambda_matrix(lam, x.p, penalize_diagonal)
    [(theta, kkt, it)] = _glasso_stack(s[None], lam_mat, opts)
    return _report_matrix(theta, float(_glasso_objectives(s[None], lam_mat, theta[None])[0]),
                          kkt, it, True)


def _glasso_start(s, lam_mat, d):
    """The ADMM start of each member of a stack s (B, n, n) with diagonals d:
    (z0, w0, pos).  w0 = s - clip(s, -lam, lam) off the diagonal and s_ii +
    lam_ii on it is dual feasible (Fattahi & Sojoudi, JMLR 2019): on a
    block whose |s_ij| all exceed lam_ij and whose inverse w0^-1 has the
    opposite signs, w0^-1 is the solution, and where only the edges of a
    chordal graph have them, the inverse of the maximum-determinant
    completion of w0 on that graph may be (_glasso_stack certifies both
    before iterating).  z0 is w0^-1 where w0 is
    positive definite and that point has a lower objective than diag(1/d),
    the members pos marks, and diag(1/d) elsewhere: against the dual bound
    log det w0 + n, the start with the smaller duality gap.  The guard keeps
    a nearly singular w0, whose inverse can start far off, from costing
    iterations.  One Cholesky factor of w0 gives w0^-1 and scores it, as
    log det w0^-1 = -log det w0; diag(1/d) is scored in closed form."""
    lam_3d = lam_mat[None]
    w0 = s - np.clip(s, -lam_3d, lam_3d)
    i = np.arange(s.shape[-1])
    lam_d = np.diag(lam_mat)
    w0[:, i, i] = d + lam_d
    factor = _cholesky(w0)
    pos, warm = _inverse(w0, factor)
    dc = np.clip(d, 1e-8, None)
    # the objective of diag(1/dc): sum_i (d_i + lam_ii) / dc_i + log dc_i
    cold = np.sum((d + lam_d) / dc + np.log(dc), axis=-1)
    pos &= _glasso_linear(s, lam_mat, warm) + _logdets(factor[1]) < cold
    return np.where(pos[:, None, None], warm, _diag(1.0 / dc)), w0, pos


def _completion_inverse(w, cliques, seps) -> np.ndarray:
    """The inverse of the maximum-determinant completion of w's entries on a
    chordal graph with these maximal cliques and clique-tree separators
    (Grone, Johnson, Sa & Wolkowicz 1984): sum_C inv(w_CC) - sum_S
    inv(w_SS), each term padded with zeros, symmetrized.  It is zero off
    the graph, and its inverse equals w on the graph and on the diagonal.
    The terms of one size are inverted as one stack."""
    theta = np.zeros_like(w)
    sizes: dict[int, tuple[list, list]] = {}
    for sign, sets in ((1.0, cliques), (-1.0, seps)):
        for c in sets:
            members, signs = sizes.setdefault(len(c), ([], []))
            members.append(c)
            signs.append(sign)
    for members, signs in sizes.values():
        r = np.array(members)
        rows, cols = r[:, :, None], r[:, None, :]
        np.add.at(theta, (rows, cols), np.linalg.inv(w[rows, cols]) * np.array(signs)[:, None, None])
    return (theta + theta.T) / 2.0


def _glasso_stack(s, lam_mat, opts: SolverOptions) -> list:
    """glasso on a stack of inputs s (B, p, p) that share the weight matrix
    lam_mat: [(theta, kkt, iterations)] in stack order.  With no penalty at
    all, theta is the inverse of each input, and all of them are certified
    in one test, which raises for the first that fails; so a 1x1 input with
    an unpenalized diagonal gets theta = 1/x_ii at 0 iterations.
    Otherwise each member that starts at w0^-1 gets one closed-form point:
    w0^-1 if it passes an entrywise gate, else, if the graph of the edges
    |s_ij| > lam_ij where w0^-1 has the sign of -s_ij, together with the
    pairs with lam_ij = 0, is chordal (linkage.chordal_cliques), the
    inverse of the maximum-determinant completion of w0 on that graph
    (Grone, Johnson, Sa & Wolkowicz 1984).  Its inverse equals w0 on the
    graph and on the diagonal, which meets the KKT conditions there; off
    the graph it is zero, and the certificate decides the rest.  The points
    are certified in one _glasso_kkt call, which factors each point itself;
    a member whose point certifies leaves at 0 iterations with it, bit for
    bit (a 1x1 input with a penalized diagonal at 1 / (x_ii + lam_ii)).  A
    gate that fails and a graph that is not chordal cost no factorization.
    The others run the ADMM from the start pair, with the iterates they
    have there alone."""
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
        z0, w0, pos = _glasso_start(s, lam_mat, d)
        # the gate: w0^-1 meets the KKT conditions, up to rounding, where its
        # inverse w0 fits its sign pattern: the sign of -s on the edges
        # |s_ij| > lam_ij (any sign where lam_ij = 0) and zero off them, so
        # each component of the thresholded graph is a clique
        edge = np.abs(s) > lam_3d
        free = lam_3d == 0.0
        agree = (z0 * s < 0.0) | free
        gate = np.where(edge, agree, z0 == 0.0)
        gate |= np.eye(s.shape[-1], dtype=bool)
        gated = gate.all(axis=(-2, -1))
        tried, points = [], []
        for b in np.flatnonzero(pos).tolist():
            if gated[b]:
                tried.append(b)
                points.append(z0[b])
                continue
            # else the closed form on the edges where w0^-1 has the sign of
            # -s, and on those with lam_ij = 0, if that graph is chordal
            cliques = chordal_cliques(edge[b] & agree[b] | free[0])
            if cliques is not None:
                tried.append(b)
                points.append(_completion_inverse(w0[b], *cliques))
        out = [None] * len(s)
        if tried:
            resid = _glasso_kkt(s[tried], lam_mat, np.stack(points)).tolist()
            for b, point, r in zip(tried, points, resid):
                if _certifies(r, tol[b]):
                    out[b] = (point, r, 0)
        rest = [b for b, o in enumerate(out) if o is None]
        if rest:
            pick = slice(None) if len(rest) == len(s) else rest
            solved = _admm(
                "glasso",
                s[pick],
                z0[pick],
                _logdet_prox,
                lambda a, rho: _soft(a, lam_3d / rho),
                lambda xs, theta, z: (_glasso_kkt(xs, lam_mat, z), z),
                opts.max_iter,
                tol[pick],
                u0=(w0[pick] - s[pick]) / _RHO,
            )
            for b, res in zip(rest, solved):
                out[b] = res
        return out
    wv, q = np.linalg.eigh(s)
    low = np.flatnonzero(wv[:, 0] <= 1e-12)
    if low.size:
        raise NoSolutionError(
            f"lam=0 needs a positive definite input (min eig {wv[low[0], 0]:.3e})"
        )
    theta = (q / wv[:, None, :]) @ q.mT
    theta = (theta + theta.mT) / 2.0
    kkt = _glasso_kkt(s, lam_mat, theta)
    bad = np.flatnonzero(~((kkt <= tol) & np.isfinite(kkt)))
    if bad.size:
        _require_certified("glasso", kkt[bad[0]], tol[bad[0]])
    return list(zip(theta, kkt.tolist(), [0] * len(s)))


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
    tol = opts.tol * (1.0 + _absmax(s))
    rho = _RHO
    z = np.zeros((p, p))
    u = np.zeros((p, p))
    for it in range(1, opts.max_iter + 1):
        theta = _fantope_project_dense(z - u + s / rho, k)
        z_old = z
        th_hat = _OVER_RELAX * theta + (1.0 - _OVER_RELAX) * z_old
        z = _soft(th_hat + u, lam / rho)
        u = u + th_hat - z
        # objective is linear, so the gate is the pair of ADMM residuals
        # rather than a gradient-style condition
        r_norm = float(np.max(np.abs(theta - z)))
        s_norm = rho * float(np.max(np.abs(z - z_old)))
        if max(r_norm, s_norm) <= tol:
            return _report_matrix(z, _fantope_objective(s, lam, z), max(r_norm, s_norm), it, True)
        if it % _CHECK_EVERY == 0:
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


_SPARSE_COV_ROUNDS = 12  # alternations the sparse_cov certificate runs


@_certificate
def _sparse_cov_kkt(s, lam, eps, theta, top=None) -> float:
    """Best certificate found by alternating the subgradient choice with the
    projection of the multiplier onto the active-eigenspace PSD cone."""
    w, q = np.linalg.eigh(theta)
    act = w <= eps + 1e-9 * (1.0 + abs(eps))
    v0 = q[:, act]
    on = _support(theta, top)
    sign_on = np.sign(theta)
    m = np.zeros_like(theta)
    resid = np.inf
    for _ in range(_SPARSE_COV_ROUNDS):
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
            opts.max_iter,
            tol[rest],
        )
        for b, result in zip(rest, solved):
            out[b] = result
    return out


# =====================================================================
# sign-constrained inverse covariance
# =====================================================================

_POLISH_NEWTON = 8  # Newton steps a positive_invcov polish takes at most


@_certificate
def _positive_invcov_kkt(s, z, top=None, factor=None):
    """KKT residual at z, for one matrix or each member of a stack (..., n, n):
    inf where z is not positive definite.  ``factor``: _cholesky(z), if known.
    Off the diagonal it also scores the primal excess max(z_ij, 0)."""
    pos, inv = _inverse(z, factor)
    e = inv - s
    # |e| on the diagonal and the off-diagonal support, else the sign excess
    eye = np.eye(z.shape[-1], dtype=bool)
    r = np.where(eye | _support(z, top), np.abs(e), np.maximum(-e, 0.0))
    # r >= 0, so this adds max(z_ij, 0) off the diagonal
    r = np.maximum(r, np.where(eye, 0.0, z))
    return np.where(pos, np.max(r, axis=(-2, -1)), np.inf)[()]


def _positive_invcov_objectives(s, z, factor=None) -> np.ndarray:
    """The objective of each member of a stack (B, n, n); inf where z is not
    positive definite or has a positive off-diagonal entry.  ``factor``:
    _cholesky(z), if known."""
    infeasible = np.any((z > 0.0) & ~np.eye(z.shape[-1], dtype=bool), axis=(-2, -1))
    return np.where(infeasible, np.inf,
                    _logdet_objectives(z, np.sum(s * z, axis=(-2, -1)), factor))


def _newton_cg(sigma, grad, on, target):
    """The Newton step of -log det + <x, .> restricted to the pattern ``on``:
    the symmetric step on the pattern that solves P(sigma step sigma) =
    -grad, P the restriction to the pattern and sigma the inverse of the
    current point, by conjugate gradients preconditioned with the diagonal
    of that operator, sigma_ii sigma_jj + sigma_ij^2 (sigma_ii^2 on the
    diagonal).  It stops at the first residual with max|.| <= target, or
    after as many steps as the pattern has free entries."""
    d = np.diagonal(sigma)
    precond = np.outer(d, d) + sigma * sigma
    np.fill_diagonal(precond, d * d)
    step = np.zeros_like(sigma)
    r = -grad
    y = r / precond
    p = y
    ry = float(np.vdot(r, y))
    for _ in range((np.count_nonzero(on) + len(on)) // 2):
        hp = np.where(on, sigma @ p @ sigma, 0.0)
        alpha = ry / float(np.vdot(p, hp))
        step += alpha * p
        r -= alpha * hp
        if _absmax(r) <= target:
            break
        y = r / precond
        ry, ry_old = float(np.vdot(r, y)), ry
        p = y + (ry / ry_old) * p
    return (step + step.T) / 2.0


def _positive_invcov_polish(s, z, tol):
    """A Newton polish of the ADMM point z for one input s: the minimizer of
    -log det + <s, .> over the matrices with z's pattern, its diagonal and
    the off-diagonal entries with z_ij < 0, every other entry exactly 0, by
    damped Newton from z (OSQP's solution polishing, Stellato et al. 2020).
    Each step is :func:`_newton_cg`'s, scaled by Armijo backtracking that
    keeps the point positive definite; it stops once the gradient on the
    pattern is at most tol in every entry, after _POLISH_NEWTON steps, or
    as None when z is not positive definite or a line search fails.  The
    point may leave the sign constraint; the certificate decides."""
    on = z < 0.0
    np.fill_diagonal(on, True)
    pos, low = _cholesky(z)
    if not pos:
        return None
    omega, f = z, float(np.vdot(s, z) - _logdets(low))
    for _ in range(_POLISH_NEWTON):
        _, sigma = _inverse(omega, (pos, low))
        grad = np.where(on, s - sigma, 0.0)
        gmax = _absmax(grad)
        if gmax <= tol:
            break
        # the forcing term min(0.1, gmax) makes the steps superlinear; below
        # tol / 10 the certificate cannot tell
        step = _newton_cg(sigma, grad, on, max(min(0.1, gmax) * gmax, 0.1 * tol))
        slope = float(np.vdot(grad, step))
        t = 1.0
        while True:
            trial = omega + t * step
            pos, low = _cholesky(trial)
            if pos:
                f_trial = float(np.vdot(s, trial) - _logdets(low))
                # 1e-13 |f|: near the minimum f moves at rounding level
                if f_trial <= f + 1e-4 * t * slope + 1e-13 * abs(f):
                    break
            t *= 0.5
            if t < 1e-6:
                return None
        omega, f = trial, f_trial
    return omega


def positive_invcov(x: SymMatrix, opts: SolverOptions | None = None) -> SolveReport:
    """Gaussian likelihood fit with nonpositive off-diagonal precision.

    Minimizes -log det(omega) + <x, omega> subject to omega_ij <= 0 for
    i != j (diagonal free).  Same log-det proximal ADMM as glasso with the
    soft threshold replaced by clipping positive off-diagonal entries to
    zero.  At each certificate the clipped iterate z is polished (see
    _positive_invcov_polish): Newton on z's pattern, zero wherever z is.
    The polished point is reported if it certifies, else z, on which the
    constraint holds exactly; the certificate scores a positive
    off-diagonal entry, so a reported point that certifies is feasible.
    """
    opts = opts or SolverOptions()
    s = x.dense()
    [(z, kkt, it)] = _positive_invcov_stack(s[None], opts)
    return _report_matrix(z, float(_positive_invcov_objectives(s[None], z[None])[0]), kkt, it,
                          True)


def _positive_invcov_stack(s, opts: SolverOptions) -> list:
    """positive_invcov on a stack of inputs s (B, p, p): [(omega, kkt,
    iterations)] in stack order.  The certificate callback polishes each
    due member's z alone and reports the polished point where it
    certifies, else z with its own residual, as it reads alone."""
    d = np.diagonal(s, axis1=-2, axis2=-1)
    if np.any(d <= 0.0):
        raise NoSolutionError("input diagonal must be strictly positive")
    off_mask = ~np.eye(s.shape[-1], dtype=bool)[None]  # (1, p, p), as in _glasso_stack

    def certify(xs, theta, z):
        # each member is polished alone, so it gets the bits it gets alone
        tol = opts.tol * _scales(xs)
        polished = [_positive_invcov_polish(x_b, z_b, tol_b) for x_b, z_b, tol_b in zip(xs, z, tol)]
        points = np.stack([z_b if p_b is None else p_b for z_b, p_b in zip(z, polished)])
        resid = _positive_invcov_kkt(xs, points)
        # a polished point that fails gives way to z, scored as it is alone
        back = [k for k, p_b in enumerate(polished)
                if p_b is not None and not _certifies(resid[k], tol[k])]
        if back:
            resid[back] = _positive_invcov_kkt(xs[back], z[back])
            points[back] = z[back]
        return resid, points

    return _admm(
        "positive_invcov",
        s,
        _diag(1.0 / d),
        _logdet_prox,
        lambda a, rho: np.where(off_mask, np.minimum(a, 0.0), a),
        certify,
        opts.max_iter,
        opts.tol * _scales(s),
        # the dual of the dual feasible point s + max(-s, 0) off the diagonal
        u0=np.where(off_mask, np.maximum(-s, 0.0), 0.0) / _RHO,
    )


# =====================================================================
# pairwise sign-interaction model (pair-table enumeration)
# =====================================================================

@lru_cache(maxsize=None)
def _pair_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, lower, table) for p spins: the flat indices i p + j and j p +
    i of the pairs i < j, in np.triu_indices order, and the read-only table
    P (2^(p-1), p(p-1)/2) with P[s, k] = u_i u_j for the k-th pair over the
    sign vectors u whose last coordinate is +1, one of each spin-flip pair
    u, -u.  It holds 2^(p-2) p (p-1) floats: 1.1 MB at p = 12, 13.8 MB at
    p = 15.  ValueError above ISING_MAX_P."""
    if p > ISING_MAX_P:
        raise ValueError(f"enumeration capped at p={ISING_MAX_P}, got {p}")
    codes = np.arange(2 ** (p - 1))[:, None]
    states = 1.0 - 2.0 * ((codes >> np.arange(p)) & 1)
    rows, cols = np.triu_indices(p, 1)
    table = states[:, rows] * states[:, cols]
    table.flags.writeable = False
    return rows * p + cols, cols * p + rows, table


def _gather(a, index):
    """The entries of each matrix of a (..., p, p) at the flat indices
    ``index``, C-contiguous: a fancy index a[..., rows, cols] strides the
    members, and a strided dot product rounds differently."""
    return np.take(a.reshape(*a.shape[:-2], -1), index, axis=-1)


def _ising_moments(t, table) -> tuple[float, np.ndarray]:
    """(logZ, moment) at the couplings t (m,) of the pairs of ``table``:
    logZ = log sum_u exp(u' theta u) over all 2^p sign vectors, and moment[k]
    = E[u_i u_j] for the k-th pair.  u and -u have the same energy and the
    same u_i u_j, so the sum runs over the table's half states and adds log
    2.  The energies are the product P (2t), the moment the product w P of
    the normalized weights w, and one exp pass gives both logZ and w.  A
    non-finite coupling makes every output NaN."""
    energy = table @ (2.0 * t)
    emax = float(energy.max())
    weights = np.exp(energy - emax)
    total = float(weights.sum())
    weights /= total
    return emax + math.log(total) + _LOG2, weights @ table


def _ising_couplings(theta):
    """(t, upper, table): the couplings t (..., m) of a matrix or a stack
    theta (..., p, p), the mean of the two mirror entries of each pair, the
    pairs' flat indices and the pair table.  ValueError unless theta has a
    zero diagonal."""
    upper, lower, table = _pair_table(theta.shape[-1])
    if np.diagonal(theta, axis1=-2, axis2=-1).any():  # nan is nonzero too
        raise ValueError("interaction matrix must have a zero diagonal")
    return (_gather(theta, upper) + _gather(theta, lower)) / 2.0, upper, table


def _scatter(t, p: int) -> np.ndarray:
    """The matrices (..., p, p) with couplings t (..., m) and a zero diagonal."""
    upper, lower, _ = _pair_table(p)
    out = np.zeros(t.shape[:-1] + (p * p,))
    out[..., upper] = t
    out[..., lower] = t
    return out.reshape(t.shape[:-1] + (p, p))


def ising_logpartition(theta: SymMatrix) -> tuple[float, SymMatrix]:
    """Log partition function and moment matrix by state enumeration.

    theta must have an exactly zero diagonal and p <= 15.  Returns
    (log sum_u exp(u' theta u), E[u u']), the sum over all 2^p sign vectors,
    from one pass of :func:`_ising_moments` over the pair table.
    """
    td = np.asarray(theta)
    t, _, table = _ising_couplings(td)
    logz, pairs = _ising_moments(t, table)
    return logz, SymMatrix(_scatter(pairs, len(td)) + np.eye(len(td)))  # exactly symmetric


def _ising_rest(lam: float, s, t) -> float:
    """The objective less logZ at the couplings t, for the pair inputs s:
    -<x, theta> + lam * sum_{i != j} |theta_ij|, each pair counted twice.  A
    zero theta pays no penalty, also under an infinite weight (inf * 0 is
    nan)."""
    l1 = 2.0 * float(np.abs(t).sum())
    return (lam * l1 if l1 else 0.0) - 2.0 * float(s @ t)


def _ising_kkt(grad, lam: float, t, top=None):
    """KKT residual of the couplings t (..., m) with gradient grad = moment -
    x over the pairs, support classified against top (by default max|t|);
    copysign is lam * sign(t) on the support without inf * 0 off it.  NaN
    where t has a non-finite entry, as the moment is then."""
    size = np.abs(t)
    if top is None:
        top = size.max(initial=0.0)
    r = np.where(size > SUPPORT_REL_TOL * top, np.abs(grad + np.copysign(lam, t)),
                 np.maximum(np.abs(grad) - lam, 0.0))
    return r.max(axis=-1, initial=0.0)


def _ising_descent(s, lam: float, tol: float, max_iter: int, table):
    """Monotone proximal gradient with backtracking on the couplings t of one
    problem with pair inputs s (m,): (t, kkt, iterations, objective).  Each
    step is the one the p x p iteration takes on every entry theta_ij,
    soft(t - step (moment - s), step lam); as each pair stands for two
    entries, the inner products of the backtracking bound count it twice.
    The step grows by 1.25 after each accepted step, capped at 2 and at
    1/L, L the largest curvature |grad change| / |t change| seen so far.
    It stops at the first iterate whose KKT residual is finite and at most
    tol."""
    t = np.zeros(len(s))
    logz, moment = _ising_moments(t, table)
    grad = moment - s
    step = 1.0
    lhat = 0.0  # largest observed curvature; 1/lhat keeps the step contractive
    for it in range(1, max_iter + 1):
        kkt = float(_ising_kkt(grad, lam, t))
        if _certifies(kkt, tol):
            return t, kkt, it - 1, logz + _ising_rest(lam, s, t)
        f_cur = logz - 2.0 * float(s @ t)
        while True:
            cand = _soft(t - step * grad, step * lam)
            logz_new, moment_new = _ising_moments(cand, table)
            f_new = logz_new - 2.0 * float(s @ cand)
            diff = cand - t
            move = float(diff @ diff)
            bound = f_cur + 2.0 * float(grad @ diff) + move / step
            if f_new <= bound + 1e-13 * max(1.0, abs(f_cur)):
                break
            step *= 0.5
            if step < 1e-12:
                raise ConvergenceError("backtracking step collapsed")
        grad_new = moment_new - s
        if move > 0.0:
            change = grad_new - grad
            lhat = max(lhat, math.sqrt(float(change @ change)) / math.sqrt(move))
        t, logz, grad = cand, logz_new, grad_new
        cap = 1.0 / lhat if lhat > 0.0 else 2.0
        step = min(step * 1.25, cap, 2.0)
    raise ConvergenceError(f"ising_pmle did not reach tol {tol:.3e} in {max_iter} iterations")


def ising_pmle(x: SymMatrix, lam: float, opts: SolverOptions | None = None) -> SolveReport:
    """Penalized moment-matching fit of pairwise sign interactions.

    Minimizes logpartition(theta) - <x, theta> + lam * sum_{i<j} 2|theta_ij|
    over symmetric theta with zero diagonal, by monotone proximal gradient
    descent with backtracking on the couplings theta_ij, i < j.  logpartition
    and its gradient come from the pair-table enumeration of
    :func:`ising_logpartition`, over one state of each spin-flip pair u, -u
    (2^(p-1) states), so p <= 15.
    """
    [(theta, kkt, it, objective)] = _ising_solves(np.asarray(x)[None], lam,
                                                  opts or SolverOptions())
    return _report_matrix(theta, objective, kkt, it, True)


def _ising_solves(xs, lam: float, opts: SolverOptions) -> list:
    """ising_pmle on each member of a stack xs (B, p, p), one after another:
    [(theta, kkt, iterations, objective)] in stack order."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    upper, _, table = _pair_table(xs.shape[-1])
    solved = [_ising_descent(s, lam, tol, opts.max_iter, table)
              for s, tol in zip(_gather(xs, upper), opts.tol * _scales(xs))]
    theta = _scatter(np.array([t for t, _, _, _ in solved]), xs.shape[-1])
    return [(theta_b, kkt, it, objective)
            for theta_b, (_, kkt, it, objective) in zip(theta, solved)]


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
    blocks: ``share(spec, xs, thetas)`` computes once what a stack's residual
    and objective both need (for glasso the weights and the Cholesky
    factors, for positive_invcov the factors, for Ising the couplings and
    their enumerations),
    ``piece(spec, xs, thetas, shared)`` gives each block's share of the
    objective (for glasso and positive_invcov its whole objective, so the
    objective is the sum of the pieces; for Ising the pair (logZ, the rest
    of its objective)),
    ``residual(spec, xs, thetas, top, shared)`` each block's KKT residual,
    and ``objective(spec, x, theta, pieces)`` assembles the objective from
    the pieces of all blocks in partition order.
    ``stack(spec, xs)``: the solver on a stack xs of same-size blocks,
    [(theta, kkt, iterations)] in stack order; every matrix family has one
    except fantope_spca, whose blocks share the trace budget.
    """

    kind: PenaltyKind
    group: GroupId
    run: Callable
    residual: Callable
    objective: Callable
    share: Callable = lambda spec, xs, thetas: None
    piece: Callable = lambda spec, xs, thetas, shared: [None] * len(thetas)
    needs: tuple[str, ...] = ()
    matrix: bool = True
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


def _ising_share(spec, xs, thetas) -> tuple:
    """What an Ising stack's residual and pieces both need: the couplings t
    and pair inputs s (B, m), and logZ [B] and the moment (B, m) of each
    member, enumerated as it is alone.  ValueError as the enumeration
    raises it."""
    t, upper, table = _ising_couplings(thetas)
    logz, moment = zip(*(_ising_moments(t_b, table) for t_b in t))
    return t, _gather(xs, upper), logz, np.array(moment)


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
        share=lambda spec, s, t: (_glasso_lam(spec, t.shape[-1]), _cholesky(t)),
        piece=lambda spec, s, t, sh: _glasso_objectives(s, sh[0], t, sh[1]),
        residual=lambda spec, s, t, top, sh: _glasso_kkt(s, sh[0], t, top=top, factor=sh[1]),
        objective=lambda spec, s, t, pieces: float(np.sum(pieces)),
        stack=lambda spec, xs: _glasso_stack(xs, _glasso_lam(spec, xs.shape[-1]), spec.opts),
    ),
    Family.FANTOPE_SPCA: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: fantope_spca(x, _lam(spec), spec.k, spec.opts),
        residual=lambda spec, s, t, top, _: [
            _fantope_kkt(s_b, _lam(spec), spec.k, t_b) for s_b, t_b in zip(s, t)],
        objective=lambda spec, s, t, _: _fantope_objective(s, _lam(spec), t),
        needs=("k",),
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
        share=lambda spec, s, t: _cholesky(t),
        piece=lambda spec, s, t, factor: _positive_invcov_objectives(s, t, factor),
        residual=lambda spec, s, t, top, factor: _positive_invcov_kkt(s, t, top=top,
                                                                      factor=factor),
        objective=lambda spec, s, t, pieces: float(np.sum(pieces)),
        stack=lambda spec, xs: _positive_invcov_stack(xs, spec.opts),
    ),
    Family.ISING_PMLE: _Record(
        PenaltyKind.SYMMETRIC_L1, GroupId.DIAGONAL_CONJUGATION,
        run=lambda spec, x: ising_pmle(x, _lam(spec), spec.opts),
        share=_ising_share,
        piece=lambda spec, s, t, sh: [(logz, _ising_rest(_lam(spec), s_b, t_b))
                                      for logz, s_b, t_b in zip(sh[2], sh[1], sh[0])],
        residual=lambda spec, s, t, top, sh: _ising_kkt(sh[3] - sh[1], _lam(spec), sh[0], top),
        objective=lambda spec, s, t, pieces: sum(logz + rest for logz, rest in pieces),
        stack=lambda spec, xs: [out[:3] for out in _ising_solves(xs, _lam(spec), spec.opts)],
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


def _linalg_failure(entry):
    """Raise a LinAlgError that escapes ``entry(spec, x)`` as the
    ConvergenceError of spec's family: an eigendecomposition of a block
    that holds a NaN does not converge, and that is a failed solve, not a
    bad argument (LinAlgError is a ValueError)."""
    @wraps(entry)
    def checked(spec, x):
        try:
            return entry(spec, x)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{spec.family.value}: {exc}") from exc

    return checked


@_linalg_failure
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
        one = _size_groups(Partition.from_blocks([range(xm.p)], xm.p))
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


def _separable_check(spec: EstimatorSpec, x, theta, groups, residual: bool = True,
                     objective: bool = True) -> tuple[float | None, float | None]:
    """:func:`_stack_check` of a p x p theta on the partition whose
    :func:`_size_groups` are ``groups``, or (inf, nan) if theta has a
    nonzero entry (NaN and inf included) off its blocks."""
    s = np.asarray(x, dtype=float)
    td = np.asarray(theta, dtype=float)
    stacks = [(s[ix], td[ix]) for _, ix in groups]
    # theta is zero off the blocks exactly when the blocks hold all its nonzeros
    if np.count_nonzero(td) != sum(np.count_nonzero(t) for _, t in stacks):
        return np.inf, np.nan
    return _stack_check(spec, s, td, groups, stacks, residual, objective)[:2]


def _stack_check(spec: EstimatorSpec, s, theta, groups, stacks, residual: bool = True,
                 objective: bool = True) -> tuple[float | None, float | None, float | None]:
    """KKT residual, objective and max|x| of a matrix family at a theta that
    is zero off the blocks of a partition, computed block by block from
    ``stacks``, the [(x stack, theta stack)] of its :func:`_size_groups`
    ``groups``; only the fantope_spca objective reads p x p theta.

    Off the blocks the condition is the screening inequality on x itself,
    scored as its excess: max(|x_ij| - lam, 0), or max(x_ij, 0) for
    positive_invcov.  That one pass over x also gives max|x| (nan if x has
    a NaN), before the blocks are zeroed.  On each block it is the family's
    residual at (x_bb, theta_bb), with support classified against
    max|theta| over all stacks, so every partition gives the one-block
    result up to rounding.  The blocks of one size are scored as one stack;
    their objective pieces are put back in partition order, so the
    objective sums in that order.  As theta is zero off the blocks, the
    entrywise objective terms of glasso and positive_invcov are summed over
    the blocks only.  No solver state is read.  ``residual=False`` or
    ``objective=False`` skips that half, which then reads None (max|x|
    too, without ``residual``).  The residual is inf and the objective nan
    if a theta stack has a non-finite entry, or if a residual term is NaN.
    """
    rec = _family(spec)
    blocks = sum(len(members) for members, _ in groups)
    resid, top_x = [0.0], None
    if residual and blocks > 1:
        signed = rec.kind is PenaltyKind.OFFDIAG_POSITIVITY
        # one p x p work array and no masked copies: temporaries whose size
        # varies from solve to solve fragment the heap and raise peak memory
        work = s.copy() if signed else np.abs(s)
        top_x = _absmax(work) if signed else float(work.max())
        for _, ix in groups:
            work[ix] = 0.0
        resid.append(max(float(work.max()) - (0.0 if signed else _lam(spec)), 0.0))
        del work
    elif residual:
        top_x = _absmax(s)
    top = float(np.max([_absmax(t) for _, t in stacks]))  # nan or inf when an entry is
    if not np.isfinite(top):
        return np.inf, np.nan, top_x
    pieces = [None] * blocks
    for (members, _), (sb, t) in zip(groups, stacks):
        shared = rec.share(spec, sb, t)
        if objective:
            for i, piece in zip(members, rec.piece(spec, sb, t, shared)):
                pieces[i] = piece
        if residual:
            resid.append(float(np.max(rec.residual(spec, sb, t, top, shared))))
    if residual and np.isnan(resid).any():
        # max() keeps its first argument against a NaN, so a NaN term would
        # otherwise vanish from the residual
        return np.inf, np.nan, top_x
    return (max(resid) if residual else None,
            rec.objective(spec, s, theta, pieces) if objective else None, top_x)


@_linalg_failure
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
    Each stack is symmetrized, (t + t^T) / 2, before it is scattered: the
    two mirror entries of theta lie in one block, so theta gets the bits
    that symmetrizing the whole matrix would give, and is stored as it is.
    Its support is found on the stacks against max|theta| over all of
    them; off the blocks theta is zero, which is never on the support.  No
    p x p pass symmetrizes theta or classifies its support.  If a block
    fails, the error is the one that solving the blocks one by one in
    partition order would raise first.  The stacks scattered into theta
    are certified block by block against the read-only input stacks the
    solver was given (:func:`_stack_check`): :func:`_separable_check` of
    the reported theta bit for bit, :func:`kkt_residual` and
    :func:`objective_at` up to rounding; ``converged`` means that residual
    is finite and at most ``opts.tol * (1 + max|x|)``.  fantope_spca's blocks share
    its trace budget, so it has no stack solver: it is solved on the whole
    reduced matrix and certified as one block.
    """
    rec = _family(spec)
    if not rec.matrix:
        raise ValueError("block decomposition applies to matrix families only")
    xm = as_symmetric(x)
    penalty, group = reduction_for(spec)

    if rec.stack is None:
        rep = solve(spec, reduce_input(penalty, group, xm).reduced)
        kkt = kkt_residual(spec, xm, rep.theta)
        return SolveReport(rep.theta, objective_at(spec, xm, rep.theta), kkt, rep.iterations,
                           rep.converged, rep.support)

    partition = screening_partition(penalty, xm)
    s = np.asarray(xm)
    blocks = partition.blocks
    theta = np.zeros((xm.p, xm.p))
    stats = [None] * len(blocks)
    stacks = []
    groups = _size_groups(partition)
    try:
        for members, ix in groups:
            start = time.perf_counter()
            xb = s[ix]
            xb.flags.writeable = False  # the certificate reads it after the solver
            solved = rec.stack(spec, xb)
            t = np.stack([theta_b for theta_b, _, _ in solved])
            t = (t + t.mT) / 2.0
            theta[ix] = t
            stacks.append((xb, t))
            share = (time.perf_counter() - start) / len(members)
            for i, (_, _, it) in zip(members, solved):
                stats[i] = BlockStat(blocks[i], it, share)
    except (ConvergenceError, NoSolutionError, ValueError):
        # a stack raises for its own first failing block; raise what the
        # partition's first failing block raises when solved alone
        for blk in blocks:
            rec.stack(spec, s[np.ix_(blk, blk)][None])
        raise

    top = max(_absmax(t) for _, t in stacks)
    support = np.zeros((xm.p, xm.p), dtype=bool)
    for (_, ix), (_, t) in zip(groups, stacks):
        support[ix] = _support(t, top)
    kkt, objective, top_x = _stack_check(spec, s, theta, groups, stacks)
    converged = _certifies(kkt, spec.opts.tol * (1.0 + top_x))
    return SolveReport(SymMatrix(theta), objective, kkt,  # exactly symmetric already
                       sum(st.iterations for st in stats), converged, support, tuple(stats))
