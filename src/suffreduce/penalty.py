"""Penalty and symmetry-group vocabulary shared across modules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linkage import Partition

__all__ = ["PenaltyKind", "GroupId", "PenaltySpec"]


class PenaltyKind(Enum):
    ENTRYWISE_L1 = "entrywise_l1"
    GROUP_L2 = "group_l2"
    POSITIVE_CONE = "positive_cone"
    SYMMETRIC_L1 = "symmetric_l1"
    OFFDIAG_POSITIVITY = "offdiag_positivity"


class GroupId(Enum):
    SIGN_FLIP_VECTOR = "sign_flip_vector"
    DIAGONAL_CONJUGATION = "diagonal_conjugation"


#: penalty kinds whose constraint/penalty set is invariant under the group
#: that pairs with them (sign flips or diagonal sign conjugation)
GROUP_INVARIANT_KINDS = {
    PenaltyKind.ENTRYWISE_L1,
    PenaltyKind.GROUP_L2,
    PenaltyKind.SYMMETRIC_L1,
}


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty description: kind plus whatever weights the kind needs.

    weights: nonnegative scalar or per-coordinate/per-block array (inf is
    allowed, NaN is not); unused for the cone kinds.  blocks: required for
    GROUP_L2 only.
    """

    kind: PenaltyKind
    weights: float | np.ndarray | None = None
    blocks: Partition | None = None

    def __post_init__(self):
        if self.kind in (PenaltyKind.ENTRYWISE_L1, PenaltyKind.SYMMETRIC_L1):
            if self.weights is None:
                raise ValueError(f"{self.kind.value} requires weights")
            # a NaN weight fails this too: it is neither >= 0 nor < 0
            if not np.all(np.asarray(self.weights) >= 0):
                raise ValueError("penalty weights must be nonnegative")
        elif self.kind is PenaltyKind.GROUP_L2:
            if self.blocks is None or self.weights is None:
                raise ValueError("group_l2 requires blocks and per-block weights")
            if len(np.atleast_1d(np.asarray(self.weights, dtype=float))) != len(
                self.blocks.blocks
            ):
                raise ValueError("need one weight per block")
            if not np.all(np.asarray(self.weights) >= 0):
                raise ValueError("penalty weights must be nonnegative")
        elif self.kind in (PenaltyKind.POSITIVE_CONE, PenaltyKind.OFFDIAG_POSITIVITY):
            if self.weights is not None:
                raise ValueError(f"{self.kind.value} takes no weights")

    def scalar_weight(self) -> float:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 0:
            raise ValueError(f"{self.kind.value}: expected a scalar weight")
        return float(w)


def _group_keep(x: np.ndarray, blocks: Partition, lam) -> np.ndarray:
    """Per coordinate of x: does its block's Euclidean norm exceed the
    block threshold?"""
    if blocks.p != x.shape[0]:
        raise ValueError("partition does not cover the vector")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape[0] == 1:
        lam = np.repeat(lam, len(blocks.blocks))
    if lam.shape[0] != len(blocks.blocks):
        raise ValueError("need one threshold per block (or a scalar)")
    if np.any(lam < 0):
        raise ValueError("thresholds must be nonnegative")
    keep = np.zeros(x.shape, dtype=bool)
    for k, blk in enumerate(blocks.blocks):
        idx = list(blk)
        keep[idx] = np.linalg.norm(x[idx]) > lam[k]
    return keep
