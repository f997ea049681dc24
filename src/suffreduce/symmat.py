"""Symmetric matrix container and dense linear-algebra primitives.

The rest of the package passes symmetric matrices around as :class:`SymMatrix`
values.  Symmetry is enforced once, where a matrix is wrapped: the stored
array is ``(a + a^T) / 2`` and read-only, so downstream code never has to
re-check or re-symmetrize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymMatrix",
    "as_symmetric",
    "uncentered_covariance",
    "hadamard",
]


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix holding one read-only (p, p) array.

    Construct via :meth:`from_dense` (checked input) or :meth:`wrap`; both
    store the average of the array and its transpose, so the two mirror
    entries of every pair are the same bits.  The dataclass constructor
    ``SymMatrix(a)`` stores ``a`` as given, unaveraged and with only its
    shape checked, so it is only for arrays that are already exactly
    symmetric.  ``np.asarray(m)`` reads the stored array without a copy;
    :meth:`dense` returns a writable copy.
    Equality and hashing go by value; the stored array is read-only, so a
    SymMatrix can be a dict key.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {shape}")
        self.values.flags.writeable = False

    @classmethod
    def from_dense(cls, values, asym_tol: float = 1e-8) -> "SymMatrix":
        """Build from a square array, averaging mirror entries.

        Raises ValueError if the input is not square, contains non-finite
        entries, or has max |A - A^T| exceeding ``asym_tol``.
        """
        a = np.asarray(values, dtype=float)
        m = cls.wrap(a)  # rejects a non-square or empty a first
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        gap = float(np.max(np.abs(a - a.T)))
        if gap > asym_tol:
            raise ValueError(
                f"asymmetry {gap:.3e} exceeds tolerance {asym_tol:.3e}"
            )
        return m

    @classmethod
    def wrap(cls, a) -> "SymMatrix":
        """Store (a + a^T) / 2.  Only the shape is checked, before the sum (a
        (1, p) row would broadcast); an exactly symmetric a keeps its bits."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return cls((a + a.T) / 2.0)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal
        return hash((self.values.shape, (self.values + 0.0).tobytes()))

    def dense(self) -> np.ndarray:
        """Return a fresh, writable (p, p) copy."""
        return self.values.copy()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=dtype, copy=copy)

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise IndexError(f"index ({i}, {j}) out of range for p={self.p}")
        return float(self.values[i, j])

    @property
    def p(self) -> int:
        return self.values.shape[0]


def as_symmetric(x) -> SymMatrix:
    """x itself if it is a SymMatrix, else :meth:`SymMatrix.from_dense` of x."""
    return x if isinstance(x, SymMatrix) else SymMatrix.from_dense(x)


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
    return SymMatrix.wrap(a.T @ a / n)


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise product; the product of two symmetric arrays is symmetric."""
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: {a.p} vs {b.p}")
    return SymMatrix(a.values * b.values)
