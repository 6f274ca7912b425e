"""Sparse SPD solves with factorization reuse.

The implicit time stepper solves against one fixed matrix N times, so a
direct factorization is computed once and reused.  Factorizations are
immutable after construction; concurrent solves with distinct right-hand
sides do not interfere.  Matrices on one CSR pattern share its
:class:`FactorLayout`, which :mod:`fem` builds once per mesh space.  A
pattern wider than tridiagonal (every 2D system) is factored by LAPACK
band Cholesky in its reverse Cuthill-McKee order, any other (every 1D
system) by a plain SuperLU ``splu`` per factorization, which keeps no
column order between factorizations.

A band system is factored as L L^T by ``dpbtrf`` in lower band storage,
and L is then rewritten in place as L^T in upper band storage, from which
``dpbtrs`` solves.  The two storages cost the same flops, but in scipy's
OpenBLAS 0.3.30 the lower-transposed ``dtbsv``, the back substitution of a
lower ``dpbtrs``, runs 1.4-3 times slower than the other three band
triangular solves, so an upper ``dpbtrs`` takes a half to two thirds of
the time of a lower one on the disk's systems, while an upper ``dpbtrf``
runs up to 8 times slower than a lower one.  ``tools/band_kernels.py``
times all of them.
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
    in Fortran-order LAPACK lower band storage of the reordered matrix,
    where ``dpbtrf`` factors it.  Any other has ``order`` None and keeps
    nothing for its factorization."""

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        self.indptr, self.indices, self.order = indptr, indices, None
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


class SpdSolver:
    """Reusable factor of a symmetric positive definite matrix: the band
    Cholesky factor U = L^T of it reordered by ``order``, in Fortran-order
    LAPACK upper band storage, whose solutions are put back by ``position``,
    or SuperLU's sparse LU of it."""

    def __init__(self, factor, order=None, position=None):
        self._factor, self._order, self._position = factor, order, position

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = self._factor.shape[1]
        if b.shape != (n,):
            raise ValueError(f"right-hand side has shape {b.shape}, matrix has {n} columns")
        if self._order is None:
            return self._factor.solve(b)
        # dpbtrs's info flags only an illegal argument
        x, _ = lapack.dpbtrs(self._factor, b[self._order], lower=0, overwrite_b=1)
        return x[self._position]


def factorize(matrix, layout: FactorLayout | None = None) -> SpdSolver:
    """Check finiteness, symmetry and diagonal positivity, then factor the
    matrix on the layout of its pattern (a layout of its own by default).

    A pattern wider than tridiagonal gets ``dpbtrf``'s lower factor L,
    computed in place and then rewritten in place as L^T in upper band
    storage, so that no second band array is held; an indefinite matrix
    raises :class:`NotSpdError`.  Any other pattern gets a plain ``splu``
    on each call, which finds its own column order; no order is kept
    between calls."""
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
        return SpdSolver(_upper_from_lower(ab), layout.order, layout.position)
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # singular factor / zero pivot
        raise NotSpdError(f"factorization broke down: {exc}") from exc
    return SpdSolver(lu)


def _upper_from_lower(ab):
    """Rewrite a band factor L in lower band storage, in place, as L^T in upper
    band storage: lower entry (d, r) moves to upper entry (kd - d, r + d), so
    rows d and kd - d trade places, each shifted, and the corners that no
    entry reaches are zeroed."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    for d in range(kd // 2 + 1):
        e = kd - d
        row = ab[d, :n - d].copy()
        ab[d, e:] = ab[e, :n - e]
        ab[d, :e] = 0.0
        ab[e, d:] = row
        ab[e, :d] = 0.0
    return ab
