"""Orbit geometry for the two symmetry groups.

Vectors carry the coordinate sign-flip group; symmetric matrices carry sign
conjugation ``B -> D B D`` with diagonal sign matrices D.  The convex hulls
of the resulting orbits (interval boxes, respectively Hadamard scalings by
the cut polytope) decide which masking projections are valid averages of
group elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linkage import is_binary_ultrametric
from .penalty import GroupId, PenaltyKind, PenaltySpec, GROUP_INVARIANT_KINDS, _group_keep
from .symmat import SymMatrix, as_symmetric, hadamard

__all__ = [
    "MaskProjection",
    "ConditionReport",
    "cut_membership",
    "conj_majorizes",
    "arcsin_map",
    "check_projection_conditions",
]


# the cut polytope is tested over all 2**(p-1) vertices, so up to this p, and
# a moment counts as matched within this tolerance
_CUT_P_LIMIT = 12
_CUT_TOL = 1e-8


def _is_binary(a: np.ndarray) -> bool:
    return bool(np.all((a == 0.0) | (a == 1.0)))


@dataclass(frozen=True)
class MaskProjection:
    """Binary keep/kill mask acting entrywise, tagged with its group.

    Exactly one of ``vector`` / ``matrix`` is set.  Entries must be 0 or 1;
    no further structure is enforced here, so deliberately broken masks can
    be represented and then rejected by :func:`check_projection_conditions`.
    """

    group: GroupId
    vector: np.ndarray | None = None
    matrix: SymMatrix | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.matrix is None):
            raise ValueError("set exactly one of vector or matrix")
        if self.group is GroupId.SIGN_FLIP_VECTOR:
            if self.vector is None or not _is_binary(self.vector):
                raise ValueError("sign-flip masks are binary vectors")
            self.vector.flags.writeable = False
        else:
            if self.matrix is None or not _is_binary(np.asarray(self.matrix)):
                raise ValueError("conjugation masks are binary symmetric matrices")

    def apply(self, x):
        if self.vector is not None:
            return self.vector * np.asarray(x, dtype=float)
        return hadamard(self.matrix, as_symmetric(x))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three sufficiency conditions for a mask."""

    averaging: bool
    dual_feasibility: bool
    dual_invariance: bool

    @property
    def all_hold(self) -> bool:
        return self.averaging and self.dual_feasibility and self.dual_invariance


def _cut_vertices(p: int) -> np.ndarray:
    """All sign vectors y in {-1, +1}^p with y[0] = +1, one per cut matrix
    y y^T.  Shape (2**(p-1), p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    codes = np.arange(2 ** (p - 1))[:, None]
    bits = (codes >> np.arange(p - 1)[None, :]) & 1
    y = np.ones((2 ** (p - 1), p))
    y[:, 1:] = 1.0 - 2.0 * bits
    return y


def _cut_moment_lp(targets: list[tuple[int, int, float]], p: int) -> bool:
    """Feasibility of sum_v w_v (y_v y_v^T)_ij = target within _CUT_TOL, over
    the probability simplex on the 2**(p-1) cut vertices.

    Solved as an LP minimizing the largest moment deviation s.
    """
    # imported here, not at module level: scipy.optimize costs about 0.4 s
    # and 40 MB at import, which every process that imports the package
    # would otherwise pay, and only this LP uses it
    from scipy.optimize import linprog

    y = _cut_vertices(p)
    nv = y.shape[0]
    if not targets:
        return True
    m = np.array([y[:, i] * y[:, j] for i, j, _ in targets])
    b = np.array([t for _, _, t in targets])
    ones = np.ones((m.shape[0], 1))
    a_ub = np.block([[m, -ones], [-m, -ones]])
    b_ub = np.concatenate([b, -b])
    a_eq = np.concatenate([np.ones(nv), [0.0]])[None, :]
    res = linprog(
        c=np.concatenate([np.zeros(nv), [1.0]]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * (nv + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"cut feasibility LP failed: {res.message}")
    return float(res.x[-1]) <= _CUT_TOL


def cut_membership(b: SymMatrix) -> bool:
    """Is b a convex combination of sign outer products y y^T?

    The moment-matching feasibility program runs over all 2**(p-1) vertices,
    so p is capped at 12.  Membership holds when some vertex weighting
    reproduces every off-diagonal entry within 1e-8.
    """
    p = b.p
    if p > _CUT_P_LIMIT:
        raise ValueError(f"p={p} exceeds the cut polytope limit {_CUT_P_LIMIT}")
    d = b.dense()
    # every element of the hull has a unit diagonal and entries in [-1, 1],
    # so anything else is outside without running the feasibility program
    if np.max(np.abs(np.diag(d) - 1.0)) > _CUT_TOL:
        return False
    if np.max(np.abs(d)) > 1.0 + _CUT_TOL:
        return False
    targets = [
        (i, j, float(d[i, j])) for i in range(p - 1) for j in range(i + 1, p)
    ]
    return _cut_moment_lp(targets, p)


def conj_majorizes(u: SymMatrix, v: SymMatrix) -> bool:
    """True iff v = b o u with b completable to a cut-matrix average.

    Entries of v over the support of u fix the required ratios; entries
    where u is exactly zero must be zero and leave the combination free.
    """
    if u.p != v.p:
        raise ValueError(f"dimension mismatch: {u.p} vs {v.p}")
    p = u.p
    if p > _CUT_P_LIMIT:
        raise ValueError(f"p={p} exceeds the cut polytope limit {_CUT_P_LIMIT}")
    ud = u.dense()
    vd = v.dense()
    free = ud == 0.0
    if np.any(vd[free] != 0.0):
        return False
    # diagonal of any vertex average is exactly one
    for i in range(p):
        if not free[i, i] and abs(vd[i, i] / ud[i, i] - 1.0) > _CUT_TOL:
            return False
    targets = []
    for i in range(p - 1):
        for j in range(i + 1, p):
            if free[i, j]:
                continue
            r = float(vd[i, j] / ud[i, j])
            if abs(r) > 1.0 + _CUT_TOL:
                return False
            targets.append((i, j, r))
    return _cut_moment_lp(targets, p)


def arcsin_map(s: SymMatrix) -> SymMatrix:
    """Entrywise (2/pi) arcsin of a correlation-type matrix.

    Requires unit diagonal, entries in [-1, 1], and positive semidefiniteness
    (smallest eigenvalue >= -1e-10).  The image always admits a cut-matrix
    average representation.
    """
    d = s.dense()
    if np.max(np.abs(np.diag(d) - 1.0)) > 1e-10:
        raise ValueError("input must have unit diagonal")
    if np.max(np.abs(d)) > 1.0 + 1e-12:
        raise ValueError("entries must lie in [-1, 1]")
    w = np.linalg.eigvalsh(d)
    if w[0] < -1e-10:
        raise ValueError(f"input not positive semidefinite (min eig {w[0]:.3e})")
    out = (2.0 / np.pi) * np.arcsin(np.clip(d, -1.0, 1.0))
    np.fill_diagonal(out, 1.0)
    return SymMatrix.wrap(out)


def check_projection_conditions(
    mask: MaskProjection, x, penalty: PenaltySpec, group: GroupId
) -> ConditionReport:
    """Evaluate the three conditions a masking projection must satisfy to
    leave an estimator with penalty ``penalty`` invariant on input ``x``:

    * averaging: the mask is an average of group elements,
    * dual feasibility: entries the mask kills are within the penalty's
      dual slab at x,
    * dual invariance: the mask maps the shifted penalty set into itself.
    """
    if group is not mask.group:
        raise ValueError("mask was built for a different group")
    if group is GroupId.SIGN_FLIP_VECTOR:
        return _check_vector_conditions(mask, np.asarray(x, dtype=float), penalty)
    return _check_symmetric_conditions(mask, x, penalty)


def _check_vector_conditions(mask, x, penalty) -> ConditionReport:
    d = mask.vector
    if d.shape != x.shape:
        raise ValueError("mask/input length mismatch")
    averaging = True  # binary vectors are coordinate averages of sign flips
    killed = d == 0.0
    if penalty.kind is PenaltyKind.ENTRYWISE_L1:
        lam = np.broadcast_to(np.asarray(penalty.weights, dtype=float), x.shape)
        dual_feasibility = not np.any(killed & (np.abs(x) > lam))
    elif penalty.kind is PenaltyKind.GROUP_L2:
        # the mask must be constant on each block and zero no block whose
        # norm exceeds its weight
        blocks = penalty.blocks
        first = np.array([blk[0] for blk in blocks.blocks])
        constant = np.array_equal(d, d[first[np.array(blocks.labels)]])
        dual_feasibility = constant and not np.any(killed & _group_keep(x, blocks, penalty.weights))
    elif penalty.kind is PenaltyKind.POSITIVE_CONE:
        dual_feasibility = not np.any(killed & (x > 0.0))
    else:
        raise ValueError(f"{penalty.kind.value} does not pair with vector masks")
    if penalty.kind in GROUP_INVARIANT_KINDS:
        dual_invariance = averaging  # invariant set: implied by averaging
    else:
        dual_invariance = True  # binary masks map the nonpositive cone into itself
    return ConditionReport(averaging, dual_feasibility, dual_invariance)


def _check_symmetric_conditions(mask, x, penalty) -> ConditionReport:
    b = mask.matrix
    x = as_symmetric(x)
    if b.p != x.p:
        raise ValueError("mask/input dimension mismatch")
    bd = b.dense()
    try:
        averaging = is_binary_ultrametric(b)
    except ValueError:
        averaging = False
    xd = x.dense()
    off = ~np.eye(b.p, dtype=bool)
    killed = (bd == 0.0) & off
    if penalty.kind is PenaltyKind.SYMMETRIC_L1:
        lam = penalty.scalar_weight()
        dual_feasibility = not np.any(killed & (np.abs(xd) > lam))
        dual_feasibility = dual_feasibility and bool(np.all(np.diag(bd) == 1.0))
    elif penalty.kind is PenaltyKind.OFFDIAG_POSITIVITY:
        dual_feasibility = not np.any(killed & (xd > 0.0))
        dual_feasibility = dual_feasibility and bool(np.all(np.diag(bd) == 1.0))
    else:
        raise ValueError(f"{penalty.kind.value} does not pair with matrix masks")
    if penalty.kind in GROUP_INVARIANT_KINDS:
        dual_invariance = averaging
    else:
        dual_invariance = True
    return ConditionReport(averaging, dual_feasibility, dual_invariance)
