"""Sparse SPD solves with factorization reuse.

The implicit time stepper solves against one fixed matrix N times, so a
sparse direct factorization is computed once and reused.  Factorizations
are immutable after construction; concurrent solves with distinct
right-hand sides do not interfere.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NotSpdError


class SpdSolver:
    """Reusable sparse LU factor of a symmetric positive definite CSC matrix."""

    def __init__(self, matrix):
        try:
            self._lu = spla.splu(matrix)
        except RuntimeError as exc:  # singular factor / zero pivot
            raise NotSpdError(f"factorization broke down: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self._lu.shape[0],):
            raise ValueError(f"right-hand side has shape {b.shape}, "
                             f"matrix is {self._lu.shape}")
        return self._lu.solve(b)


def factorize(matrix) -> SpdSolver:
    """Validate symmetry and positivity necessities, then build a solver handle."""
    matrix = matrix.tocsc()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(matrix.data).max() if matrix.nnz else 0.0
    asym = matrix - matrix.T
    if asym.nnz and np.abs(asym.data).max() > 1e-12 * max(scale, 1e-300):
        raise NotSpdError("matrix is not symmetric")
    if matrix.shape[0] and matrix.diagonal().min() <= 0.0:
        raise NotSpdError("matrix has a nonpositive diagonal entry")
    return SpdSolver(matrix)
