"""Input reductions: the masking maps that shrink an estimator's input
without moving its solution set, and the screening partition they come from.

Every reduction here is idempotent and non-expansive entrywise, and its mask
satisfies the averaging / dual-feasibility / dual-invariance conditions
checked by :func:`suffreduce.orbit.check_projection_conditions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linkage import Partition, cluster_matrix, components, threshold_components
from .orbit import MaskProjection
from .penalty import GroupId, PenaltyKind, PenaltySpec, _group_keep
from .symmat import SymMatrix, as_symmetric

__all__ = [
    "PenaltyKind",
    "PenaltySpec",
    "GroupId",
    "ReducedProblem",
    "hard_threshold",
    "group_hard_threshold",
    "positive_part",
    "reconstruct_from_soft",
    "reduce_input",
    "screening_partition",
]


@dataclass(frozen=True)
class ReducedProblem:
    """A reduced input together with the mask that produced it.

    ``partition`` groups coordinates that can be solved independently; it is
    set for the symmetric-matrix reductions and None for vector ones.
    """

    reduced: np.ndarray | SymMatrix
    mask: MaskProjection
    partition: Partition | None = None


def hard_threshold(x, lam) -> np.ndarray:
    """Zero coordinates with |x_i| <= lam_i, keep the rest untouched."""
    x = np.asarray(x, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape)
    if np.any(lam < 0):
        raise ValueError("thresholds must be nonnegative")
    return np.where(np.abs(x) > lam, x, 0.0)


def group_hard_threshold(x, blocks: Partition, lam) -> np.ndarray:
    """Zero whole blocks whose Euclidean norm is <= the block threshold."""
    x = np.asarray(x, dtype=float)
    return np.where(_group_keep(x, blocks, lam), x, 0.0)


def positive_part(x) -> np.ndarray:
    """Zero nonpositive coordinates, keep positive ones bit-identical."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x, 0.0)


def reconstruct_from_soft(t, lam) -> np.ndarray:
    """Undo soft thresholding on its support: add lam_i * sign back.

    Maps the soft-threshold output t of some x back to the hard-threshold
    output of x (exact in real arithmetic; bit-exact when lam_i has few
    significand bits relative to x_i, e.g. dyadic thresholds).
    """
    t = np.asarray(t, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), t.shape)
    if np.any(lam < 0):
        raise ValueError("thresholds must be nonnegative")
    return np.where(t != 0.0, t + lam * np.sign(t), 0.0)


def _require_scalar(penalty: PenaltySpec) -> float:
    w = np.asarray(penalty.weights, dtype=float)
    if w.ndim != 0:
        raise ValueError(
            f"{penalty.kind.value}: only scalar weights dispatch to a reduction"
        )
    return float(w)


def reduce_input(penalty: PenaltySpec, group: GroupId, x) -> ReducedProblem:
    """Build the sufficient reduction for a (penalty, group) pair.

    Supported pairs:

    ==================  =====================  =========================
    penalty             group                  reduction
    ==================  =====================  =========================
    entrywise_l1        sign_flip_vector       hard threshold
    group_l2            sign_flip_vector       blockwise hard threshold
    positive_cone       sign_flip_vector       positive part
    symmetric_l1        diagonal_conjugation   cluster-masked matrix
    offdiag_positivity  diagonal_conjugation   positive-path masking
    ==================  =====================  =========================
    """
    if group is GroupId.SIGN_FLIP_VECTOR:
        if penalty.kind not in (
            PenaltyKind.ENTRYWISE_L1,
            PenaltyKind.GROUP_L2,
            PenaltyKind.POSITIVE_CONE,
        ):
            raise ValueError(f"{penalty.kind.value} has no sign-flip reduction")
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("vector reductions expect a 1-d input")
        if penalty.kind is PenaltyKind.ENTRYWISE_L1:
            lam = np.broadcast_to(np.asarray(penalty.weights, dtype=float), x.shape)
            reduced = hard_threshold(x, lam)
            d = (np.abs(x) > lam).astype(float)
        elif penalty.kind is PenaltyKind.GROUP_L2:
            keep = _group_keep(x, penalty.blocks, penalty.weights)
            reduced = np.where(keep, x, 0.0)
            d = keep.astype(float)
        else:
            reduced = positive_part(x)
            d = (x > 0.0).astype(float)
        mask = MaskProjection(group, vector=d)
        return ReducedProblem(reduced, mask, None)

    x = as_symmetric(x)
    # one screening pass: the partition gives the mask, the mask the reduced
    # input (the same arithmetic as slt / slt_plus)
    partition = screening_partition(penalty, x)
    mask = MaskProjection(group, matrix=cluster_matrix(partition))
    return ReducedProblem(mask.apply(x), mask, partition)


def screening_partition(penalty: PenaltySpec, x: SymMatrix) -> Partition:
    """The blocks a matrix penalty screens x into: the components of the
    graph {|x_ij| > lam} for symmetric_l1 (a scalar weight only), of
    {x_ij > 0} for offdiag_positivity.

    Inside a block the cluster mask is exactly 1, so a block of the reduced
    input has the bits of the same block of x; a solve that only needs the
    blocks can gather them from x and skip the mask.
    """
    if penalty.kind is PenaltyKind.SYMMETRIC_L1:
        return threshold_components(x, _require_scalar(penalty))
    if penalty.kind is PenaltyKind.OFFDIAG_POSITIVITY:
        return components(np.asarray(x) > 0.0)
    raise ValueError(f"{penalty.kind.value} has no conjugation reduction")
