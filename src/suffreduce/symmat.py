"""Symmetric matrix container and dense linear-algebra primitives.

The rest of the package passes symmetric matrices around as :class:`SymMatrix`
values.  Symmetry is enforced once at construction (packed upper-triangle
storage), so downstream code never has to re-check or re-symmetrize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymMatrix",
    "uncentered_covariance",
    "hadamard",
]


def _packed_size(p: int) -> int:
    return p * (p + 1) // 2


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix with packed upper-triangle storage.

    Construct via :meth:`from_dense`; the packed layout guarantees the two
    mirror entries of every pair are one stored value, so symmetry cannot
    drift through arithmetic.
    """

    p: int
    upper: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"dimension must be >= 1, got {self.p}")
        if self.upper.shape != (_packed_size(self.p),):
            raise ValueError("packed storage has wrong length")
        self.upper.flags.writeable = False

    @classmethod
    def from_dense(cls, values, asym_tol: float = 1e-8) -> "SymMatrix":
        """Build from a square array, averaging mirror entries.

        Raises ValueError if the input is not square, contains non-finite
        entries, or has max |A - A^T| exceeding ``asym_tol``.
        """
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        gap = float(np.max(np.abs(a - a.T))) if a.shape[0] > 1 else 0.0
        if gap > asym_tol:
            raise ValueError(
                f"asymmetry {gap:.3e} exceeds tolerance {asym_tol:.3e}"
            )
        sym = (a + a.T) / 2.0
        i, j = np.triu_indices(a.shape[0])
        return cls(a.shape[0], sym[i, j].copy())

    @classmethod
    def wrap(cls, a: np.ndarray) -> "SymMatrix":
        """Pack an array that is symmetric by construction (no checks)."""
        i, j = np.triu_indices(a.shape[0])
        return cls(a.shape[0], np.ascontiguousarray(a, dtype=float)[i, j].copy())

    def dense(self) -> np.ndarray:
        """Return a fresh (p, p) ndarray; mirror entries are identical bits."""
        out = np.empty((self.p, self.p))
        i, j = np.triu_indices(self.p)
        out[i, j] = self.upper
        out[j, i] = self.upper
        return out

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise IndexError(f"index ({i}, {j}) out of range for p={self.p}")
        if i > j:
            i, j = j, i
        # row-major offset into the packed upper triangle
        return float(self.upper[i * self.p - i * (i - 1) // 2 + (j - i)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.p)

    def allclose(self, other: "SymMatrix", tol: float = 1e-12) -> bool:
        return self.p == other.p and bool(
            np.max(np.abs(self.upper - other.upper)) <= tol
        )


def uncentered_covariance(v) -> SymMatrix:
    """Second-moment matrix V^T V / n of an (n, p) observation array.

    No mean subtraction: rows are treated as raw sign/score vectors.  The
    result is positive semidefinite up to roundoff.
    """
    a = np.asarray(v, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d observation array, got ndim={a.ndim}")
    n, p = a.shape
    if n < 1 or p < 1:
        raise ValueError(f"need at least one row and one column, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("observations must be finite")
    g = a.T @ a / n
    return SymMatrix.wrap((g + g.T) / 2.0)


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise product; symmetric-by-construction on packed storage."""
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: {a.p} vs {b.p}")
    return SymMatrix(a.p, a.upper * b.upper)
