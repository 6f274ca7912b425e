"""Sparse SPD solves with factorization reuse.

The implicit time stepper solves against one fixed matrix N times, so a
direct factorization is computed once and reused.  Factorizations are
immutable after construction; concurrent solves with distinct right-hand
sides do not interfere.  Matrices on one CSR pattern share its
:class:`FactorLayout`, which :mod:`fem` builds once per mesh space.  A
pattern wider than tridiagonal (every 2D system) is factored by LAPACK
band Cholesky in its reverse Cuthill-McKee order, any other (every 1D
system) by SuperLU's sparse LU.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import NotSpdError


class FactorLayout:
    """The data-free part of factoring matrices on one canonical CSR pattern:
    the slot of each entry's mirror and of each diagonal entry (-1, read as
    zero, if absent).  A pattern wider than tridiagonal gets its reverse
    Cuthill-McKee ``order`` (inverse ``position``), its bandwidth ``kd`` in
    that order, and the ``slot`` of each lower-triangle entry (``lower``)
    in Fortran-order LAPACK lower band storage of the reordered matrix.
    Any other (``order`` None) gets the ``gather`` of data into CSC, in the
    natural column order until the first factorization finds SuperLU's,
    ``perm_c``, which the pattern fixes."""

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        self.indptr, self.indices, self.perm_c, self.order = indptr, indices, None, None
        rows = np.repeat(np.arange(n), np.diff(indptr))
        keys = np.append(rows * n + indices, n * n)  # sorted, closed by n * n
        wanted = np.concatenate([indices * np.int64(n) + rows, [n * n], np.arange(n) * (n + 1)])
        at = np.searchsorted(keys, wanted)
        at[keys[at] != wanted] = -1
        self.transpose, self.diagonal = np.split(at, [len(keys)])
        if np.abs(rows - indices).max(initial=0) > 1:
            from scipy.sparse import csgraph  # 1 MB of RSS that tridiagonal patterns never need
            pattern = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
            self.order = csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)
            self.position = np.argsort(self.order)
            i, j = self.position[rows], self.position[indices]
            self.kd = int(np.abs(i - j).max())
            self.lower = np.flatnonzero(i >= j)
            self.slot = (i - j + (self.kd + 1) * j)[self.lower]
            return
        # every array is made here and rewritten in place later: made after
        # the first factorization, they would lie above its freed working
        # storage and keep the heap from shrinking (0.5 MB more peak RSS
        # over twelve forward-1d marches)
        self.gather, self.csc = self._gather(np.arange(n))
        self._perm_c = np.empty(n, np.intp)

    def _gather(self, position):
        csc = sp.csr_matrix((np.arange(len(self.indices)), position[self.indices], self.indptr),
                            shape=(len(position),) * 2).tocsc()
        return csc.data, (csc.indices, csc.indptr)

    def arrange(self, perm_c):
        gather, (indices, indptr) = self._gather(perm_c)
        self.gather[:], self.csc[0][:], self.csc[1][:] = gather, indices, indptr
        self._perm_c[:] = perm_c  # a copy: SuperLU's own array keeps its factor alive
        self.perm_c = self._perm_c


class SpdSolver:
    """Reusable factor of a symmetric positive definite matrix: the band
    Cholesky factor of it reordered by ``order``, or a sparse LU; solutions
    are permuted by ``perm`` (the inverse order, or SuperLU's columns)."""

    def __init__(self, factor, perm=None, order=None):
        self._factor, self._perm, self._order = factor, perm, order

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = self._factor.shape[1]
        if b.shape != (n,):
            raise ValueError(f"right-hand side has shape {b.shape}, matrix has {n} columns")
        if self._order is None:
            x = self._factor.solve(b)
        else:  # dpbtrs's info flags only an illegal argument
            x, _ = lapack.dpbtrs(self._factor, b[self._order], lower=1, overwrite_b=1)
        return x if self._perm is None else x[self._perm]


def factorize(matrix, layout: FactorLayout | None = None) -> SpdSolver:
    """Check finiteness, symmetry and diagonal positivity, then factor the
    matrix on the layout of its pattern (a layout of its own by default).

    A pattern wider than tridiagonal gets ``dpbtrf``'s factor, computed in
    place, and an indefinite matrix raises :class:`NotSpdError`.  Any other
    pattern's factor is bit for bit a plain ``splu``'s: the first one on a
    layout finds SuperLU's column order, and later ones are handed it."""
    matrix = matrix.tocsr()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if layout is None:
        matrix = matrix.tocoo().tocsr()  # a canonical copy
        layout = FactorLayout(matrix.indptr, matrix.indices)
    elif not (np.array_equal(matrix.indptr, layout.indptr)
              and np.array_equal(matrix.indices, layout.indices)):
        raise ValueError("matrix pattern is not the layout's")
    data = np.append(matrix.data, 0.0)
    if not np.isfinite(data).all():
        raise NotSpdError("matrix has a non-finite entry")
    if np.abs(data - data[layout.transpose]).max() > 1e-12 * max(np.abs(data).max(), 1e-300):
        raise NotSpdError("matrix is not symmetric")
    if data[layout.diagonal].min(initial=np.inf) <= 0.0:
        raise NotSpdError("matrix has a nonpositive diagonal entry")
    if layout.order is not None:
        ab = np.zeros((layout.kd + 1) * len(layout.order))
        ab[layout.slot] = data[layout.lower]
        # a Fortran-order array, so that dpbtrf factors it in place
        ab, info = lapack.dpbtrf(ab.reshape(layout.kd + 1, -1, order="F"), lower=1, overwrite_ab=1)
        if info:
            raise NotSpdError(f"matrix is not positive definite (dpbtrf info {info})")
        return SpdSolver(ab, layout.position, layout.order)
    perm_c = layout.perm_c
    csc = sp.csc_matrix((data[layout.gather], *layout.csc), matrix.shape)
    try:
        lu = spla.splu(csc, permc_spec=None if perm_c is None else "NATURAL")
    except RuntimeError as exc:  # singular factor / zero pivot
        raise NotSpdError(f"factorization broke down: {exc}") from exc
    if perm_c is None:
        layout.arrange(lu.perm_c)
    return SpdSolver(lu, perm_c)
