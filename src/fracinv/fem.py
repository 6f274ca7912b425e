"""Piecewise-linear finite element kernels.

Two nodal spaces live on every mesh: V_h (all vertices, used for the
diffusion coefficient) and X_h (interior vertices, zero on the boundary,
used for the state).  Mass and stiffness matrices are assembled exactly:
the coefficient enters the stiffness through its vertex average per cell,
which is exact for a piecewise-linear coefficient against the cellwise
constant gradients of P1 basis functions.  Data integrals use 2-point
Gauss (1D) / 3-point edge-midpoint (2D) quadrature.

What no coefficient changes (interior dofs, cell measures, basis
gradients, sparsity patterns and their factor layouts with each pattern's
band ordering, mass matrices) is built once per mesh, by
:func:`geometry`.  The load vector of the source f and the start vector
P_h u0 are computed once per mesh and (f, u0) pair, by
:func:`march_data`: f and u0 are scalars or pure functions of the
coordinates, and each mesh keeps one such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import InvalidCoefficientError
from .mesh import Mesh, cell_measures

VH = "vh"
XH = "xh"

# reference quadrature: (barycentric coordinates, weights), exact for quadratics
_QUAD_1D = (np.array([[0.5 + 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)],
                      [0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]]),
            np.array([0.5, 0.5]))
_QUAD_2D = (np.array([[0.5, 0.5, 0.0],
                      [0.0, 0.5, 0.5],
                      [0.5, 0.0, 0.5]]),
            np.array([1.0, 1.0, 1.0]) / 3.0)


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal coefficient vector over V_h (all vertices) or X_h (interior)."""

    mesh: Mesh
    space: str
    values: np.ndarray

    def __post_init__(self):
        if self.space not in (VH, XH):
            raise ValueError(f"unknown space {self.space!r}")
        vals = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (n_dofs(self.mesh, self.space),):
            raise ValueError(
                f"value length {vals.shape} does not match {self.space} dof count")

    def extend(self) -> np.ndarray:
        """Values on all vertices; X_h fields get zeros on the boundary."""
        if self.space == VH:
            return self.values
        full = np.zeros(self.mesh.n_vertices)
        full[geometry(self.mesh).interior] = self.values
        return full


def n_dofs(mesh: Mesh, space: str) -> int:
    return mesh.n_vertices if space == VH else len(geometry(mesh).interior)


class Geometry:
    """The P1 data of one mesh that no coefficient changes.

    Built on first use by :func:`geometry` and stored on the mesh, so it
    lives exactly as long as the mesh.  Each space's matrices share one
    CSR pattern: ``scatter`` sums per-cell local matrices into it with a
    single ``bincount``, and ``factorize`` factors on its factor layout,
    built on first use like the Riesz factorization: band Cholesky for a
    pattern wider than tridiagonal, otherwise a plain ``splu`` per
    factorization that keeps no column order (see :mod:`linalg`).
    """

    def __init__(self, mesh: Mesh):
        self.dim = mesh.dim
        self.cells = mesh.cells
        self.interior = mesh.interior
        xh = np.full(mesh.n_vertices, -1, dtype=np.int64)
        xh[self.interior] = np.arange(len(self.interior))
        # vertex index -> dof index, -1 for vertices outside the space
        self.dofs = {VH: np.arange(mesh.n_vertices), XH: xh}
        self.measures = cell_measures(mesh)
        self.gradients = _cell_basis_gradients(mesh)
        self._patterns = {space: _pattern(self.cells, self.dofs[space])
                          for space in (VH, XH)}
        self.layouts = {}
        self._gradient_maps = {}
        self.mass = {space: self.scatter(space, self.local_mass()) for space in (VH, XH)}
        self.stiffness = self.scatter(VH, self.local_stiffness(np.ones(mesh.n_vertices)))

    def local_mass(self) -> np.ndarray:
        # exact P1 mass: |c| (1 + delta_ij) / ((dim + 1) (dim + 2))
        ref = np.ones((self.dim + 1, self.dim + 1)) + np.eye(self.dim + 1)
        return self.measures[:, None, None] * (ref / ((self.dim + 1) * (self.dim + 2)))

    def local_stiffness(self, coeff_values) -> np.ndarray:
        # sum over d of (coeff |c| g_id) g_jd: einsum's products, in its order
        g = self.gradients
        wg = (coeff_values[self.cells].mean(axis=1) * self.measures)[:, None, None] * g
        local = wg[:, :, None, 0] * g[:, None, :, 0]
        for d in range(1, self.dim):
            local += wg[:, :, None, d] * g[:, None, :, d]
        return local

    def scatter(self, space, local) -> sp.csr_matrix:
        entries, slots, indices, indptr = self._patterns[space]
        data = np.bincount(slots, weights=local.ravel()[entries], minlength=len(indices))
        n = len(indptr) - 1
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def factorize(self, space, data) -> linalg.SpdSolver:
        """Factor the matrix with ``data`` on the space's pattern."""
        _, _, indices, indptr = self._patterns[space]
        if space not in self.layouts:
            self.layouts[space] = linalg.FactorLayout(indptr, indices)
        matrix = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
        return linalg.factorize(matrix, self.layouts[space])

    @cached_property
    def riesz_solver(self) -> linalg.SpdSolver:
        """Factorized full-H1 Riesz matrix M_V + K_V(1)."""
        return self.factorize(VH, self.mass[VH].data + self.stiffness.data)

    def gradient_maps(self, space) -> list[sp.csr_matrix]:
        """Per dimension, the map from the space's values to that component
        of the cellwise gradient: one row per cell, holding its vertices in
        local order.  Built per space on first use."""
        if space not in self._gradient_maps:
            dof = self.dofs[space][self.cells]
            # vertices outside the space carry zero: their entries are zero
            grads = np.where((dof >= 0)[..., None], self.gradients, 0.0)
            indptr = np.arange(0, dof.size + 1, dof.shape[1])
            shape = (len(self.cells), np.count_nonzero(self.dofs[space] >= 0))
            self._gradient_maps[space] = [
                sp.csr_matrix((grads[:, :, d].ravel(), np.maximum(dof, 0).ravel(), indptr),
                              shape=shape) for d in range(self.dim)]
        return self._gradient_maps[space]


def _pattern(cells, dof):
    """CSR pattern of one space's matrices: (entries, slots, indices, indptr).

    ``entries`` lists the flat local entries (cell, i, j) whose row and
    column dofs both lie in the space, and ``slots`` the CSR position each
    one adds into.  They are ordered as scipy's COO-to-CSR conversion sums
    duplicates (bucketed by row, then each row sorted by column), so a
    scatter gives the same bits as that conversion.
    """
    n = np.count_nonzero(dof >= 0)
    nloc = cells.shape[1]
    local = dof.astype(np.int32)[cells]
    rows = np.repeat(local, nloc, axis=1).ravel()
    cols = np.tile(local, (1, nloc)).ravel()
    kept = np.arange(rows.size, dtype=np.int32)[(rows >= 0) & (cols >= 0)]
    # the transpose of one entry per row is a stable counting sort by row
    by_row = sp.csr_matrix((kept, rows[kept], np.arange(len(kept) + 1, dtype=np.int32)),
                           shape=(len(kept), n)).tocsc()
    order = sp.csr_matrix((by_row.data, cols[by_row.data], by_row.indptr), shape=(n, n))
    order.sort_indices()  # std::sort on the same columns: the same order among duplicates
    entries, cols = order.data, order.indices
    first = np.diff(cols, prepend=np.int32(-1)) != 0  # first entry of each (row, column)
    first[order.indptr[:-1]] = True  # no row is empty: each holds its diagonal
    count = np.zeros(len(entries) + 1, dtype=np.int32)
    np.cumsum(first, dtype=np.int32, out=count[1:])
    return entries, count[1:] - 1, cols[first], count[order.indptr]


def geometry(mesh: Mesh) -> Geometry:
    """The mesh's P1 geometry, built on the first call."""
    geo = mesh.derived.get("p1")
    if geo is None:
        geo = mesh.derived["p1"] = Geometry(mesh)
    return geo


def _cell_basis_gradients(mesh):
    """Gradients of the nodal basis functions per cell, shape (n_cells, dim + 1, dim).

    Those of functions 1..dim are the columns of the inverse of the cell's
    edge matrix (rows p_i - p_0), and that of function 0 is minus their sum.
    """
    corners = mesh.vertices[mesh.cells]
    inverse = np.linalg.inv(corners[:, 1:] - corners[:, :1])
    return np.concatenate([-inverse.sum(axis=2)[:, None], inverse.transpose(0, 2, 1)], axis=1)


def assemble_mass(mesh: Mesh, space: str) -> sp.csr_matrix:
    """Mass matrix M_ij = integral of phi_i phi_j over the mesh."""
    geo = geometry(mesh)
    return geo.scatter(space, geo.local_mass())


def assemble_stiffness(mesh: Mesh, space: str, q: Field) -> sp.csr_matrix:
    """Stiffness matrix K_ij = integral of q grad(phi_i) . grad(phi_j).

    The coefficient ``q`` must be a V_h field on the same mesh with
    strictly positive, finite nodal values.
    """
    if q.mesh is not mesh or q.space != VH:
        raise ValueError("coefficient must be a V_h field on the same mesh")
    qmin, qmax = q.values.min(), q.values.max()
    if not 0.0 < qmin <= qmax < np.inf:
        raise InvalidCoefficientError("coefficient must be positive and finite, "
                                      f"range is [{qmin:.3g}, {qmax:.3g}]")
    return _stiffness_with_coeff(mesh, space, q.values)


def _stiffness_with_coeff(mesh, space, coeff_values):
    """Stiffness assembly without the positivity check (for search directions)."""
    geo = geometry(mesh)
    return geo.scatter(space, geo.local_stiffness(coeff_values))


def interpolate(mesh: Mesh, space: str, f) -> Field:
    """Lagrange nodal interpolation: evaluate ``f`` at the space's vertices."""
    vals = _eval_at(f, mesh.vertices)
    if space == XH:
        vals = vals[geometry(mesh).interior]
    return Field(mesh, space, vals)


def _eval_at(f, points):
    if np.isscalar(f):
        return np.full(len(points), float(f))
    coords = [points[:, k] for k in range(points.shape[1])]
    vals = np.asarray(f(*coords), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(points), float(vals))
    return vals


def load_vector(mesh: Mesh, space: str, f) -> np.ndarray:
    """Dual vector b_i = integral of f phi_i, by per-cell Gauss quadrature.

    ``f`` is a callable of the coordinates or a scalar.
    """
    lam, w = _QUAD_1D if mesh.dim == 1 else _QUAD_2D
    pts_phys = np.einsum("ql,cld->cqd", lam, mesh.vertices[mesh.cells])
    fvals = _eval_at(f, pts_phys.reshape(-1, mesh.dim)).reshape(pts_phys.shape[:2])
    geo = geometry(mesh)
    # contribution of cell c to its local vertex l: |c| * sum_q w_q f(x_q) lam_l(x_q)
    contrib = np.einsum("c,q,cq,ql->cl", geo.measures, w, fvals, lam)
    out = np.bincount(geo.dofs[space][mesh.cells].ravel() + 1, weights=contrib.ravel(),
                      minlength=n_dofs(mesh, space) + 1)
    return out[1:]  # slot 0 swallowed contributions of dropped boundary dofs


def l2_project(mesh: Mesh, f) -> Field:
    """L2 projection onto X_h: solve M x = (f, phi_i), factoring M for this solve alone."""
    geo = geometry(mesh)
    x = geo.factorize(XH, geo.mass[XH].data).solve(load_vector(mesh, XH, f))
    return Field(mesh, XH, x)


def march_data(mesh: Mesh, f, u0) -> tuple[np.ndarray, np.ndarray]:
    """The X_h load vector of ``f`` and the start vector P_h u0 of a march,
    as read-only arrays.

    ``f`` and ``u0`` are scalars or pure functions of the coordinates.  The
    mesh keeps one slot, for the last pair asked for (matched by identity),
    so the marches of an inversion integrate them once; another pair
    replaces it.
    """
    slot = mesh.derived.get("march")
    if slot is None or slot[0] is not f or slot[1] is not u0:
        load = load_vector(mesh, XH, f)
        start = l2_project(mesh, u0).values
        load.flags.writeable = start.flags.writeable = False
        slot = mesh.derived["march"] = (f, u0, load, start)
    return slot[2], slot[3]


def norm_l2(v: Field) -> float:
    """L2 norm via the mass matrix of the field's space."""
    m = geometry(v.mesh).mass[v.space]
    return float(np.sqrt(max(v.values @ (m @ v.values), 0.0)))


def seminorm_h1(v: Field) -> float:
    """H1 seminorm via the unit-coefficient stiffness matrix."""
    k = _stiffness_with_coeff(v.mesh, v.space, np.ones(v.mesh.n_vertices))
    return float(np.sqrt(max(v.values @ (k @ v.values), 0.0)))


def norm_linf(v: Field) -> float:
    """Max absolute nodal value (exact for P1)."""
    if v.values.size == 0:
        return 0.0
    return float(np.abs(v.values).max())


def seminorm_w1inf(v: Field) -> float:
    """Max over cells of |grad v| (gradients are cellwise constant)."""
    g = cell_gradient(v)
    return float(np.linalg.norm(g, axis=1).max())


def cell_gradient(v: Field) -> np.ndarray:
    """Cellwise constant gradient of a field, shape (n_cells, dim)."""
    return np.column_stack([op @ v.values
                            for op in geometry(v.mesh).gradient_maps(v.space)])


def cell_average_load(mesh: Mesh, cellwise: np.ndarray) -> np.ndarray:
    """V_h dual vector of a cellwise constant function: b_i = sum |c|/(dim+1) w_c."""
    w = geometry(mesh).measures * cellwise / (mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), weights=np.repeat(w, mesh.dim + 1),
                       minlength=mesh.n_vertices)


def evaluate_at_points(v: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 function at the rows of an (n, dim) array of points.

    In 2D a point is evaluated in the first cell, in cell order, with the
    largest minimum barycentric coordinate, clipped at zero: one just off
    the mesh (as in the sliver between the disk and its inscribed polygon)
    is evaluated in the nearest cell."""
    mesh = v.mesh
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != mesh.dim or not np.isfinite(points).all():
        raise ValueError(f"points must be an (n, {mesh.dim}) array of finite "
                         f"coordinates, got shape {points.shape}")
    nodal = v.extend()
    if mesh.dim == 1:
        x = mesh.vertices[:, 0]
        order = np.argsort(x)
        return np.interp(points[:, 0], x[order], nodal[order])
    grads, corners = geometry(mesh).gradients, mesh.vertices[mesh.cells]

    def coordinates(pts, cell):  # of pts in cell, e_0 + G_c (x - p_0), and their minimum
        r = pts - corners[cell, 0]
        lam = grads[cell, :, 0] * r[:, :1]
        for d in range(1, mesh.dim):
            lam += grads[cell, :, d] * r[:, d:d + 1]
        lam[:, 0] += 1.0
        return lam, lam.min(axis=1)

    near = _bucket_cells(corners, points)  # each point's row holds every cell holding it
    lam, low = coordinates(np.repeat(points, np.diff(near.indptr), axis=0), near.indices)
    out = np.empty(len(points))
    for i, (a, b) in enumerate(zip(near.indptr, near.indptr[1:])):
        lam_i, low_i, cells = lam[a:b], low[a:b], near.indices[a:b]
        if not (low_i >= 0.0).any():  # no bucket cell holds it: scan them all
            (lam_i, low_i), cells = coordinates(points[i], slice(None)), np.arange(mesh.n_cells)
        k = np.argmax(low_i)
        weights = np.clip(lam_i[k], 0.0, None)
        out[i] = weights / weights.sum() @ nodal[mesh.cells[cells[k]]]
    return out


def _bucket_cells(corners, points):
    """Per point, as a CSR row, the cells in ascending order listed in its
    bucket of a grid of about one bucket per cell: each cell is listed in
    every bucket that its bounding box, padded by a relative 1e-9, meets."""
    pad = 1e-9 * np.abs(corners).max()
    lo, hi = corners.min(axis=1) - pad, corners.max(axis=1) + pad
    n, origin = max(1, int(np.sqrt(len(corners)))), lo.min(axis=0)
    width = (hi.max(axis=0) - origin) / n

    def index(x):  # monotone, so a box's corners bound its points' buckets
        return np.clip((x - origin) / width, 0, n - 1).astype(np.int64).T

    (i0, j0), (i1, j1) = index(lo), index(hi)
    di, dj = np.indices(((i1 - i0).max() + 1, (j1 - j0).max() + 1)).reshape(2, -1, 1)
    d, c = np.nonzero((di <= i1 - i0) & (dj <= j1 - j0))
    rows = (i0[c] + di[d, 0]) * n + j0[c] + dj[d, 0]
    grid = sp.csr_matrix((np.ones(len(c), bool), (rows, c)), shape=(n * n, len(corners)))
    return grid[np.ravel_multi_index(index(points), (n, n))]


def save_field(field: Field, path, name="field", mesh_file="") -> None:
    """Write a field dump: header comments plus one 'vertex_index value' per line."""
    mesh = field.mesh
    idx = np.arange(mesh.n_vertices) if field.space == VH else geometry(mesh).interior
    with open(path, "w") as fh:
        fh.write(f"# field {name}\n# mesh {mesh_file}\n# space {field.space}\n")
        for i, val in zip(idx, field.values):
            fh.write(f"{i} {val:.17g}\n")


def load_field(path, mesh: Mesh) -> Field:
    """Read a field dump written by :func:`save_field`."""
    space = None
    pairs = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "space":
                    space = parts[1]
                continue
            if line:
                i, val = line.split()
                pairs.append((int(i), float(val)))
    if space not in (VH, XH):
        raise ValueError(f"field dump {path} lacks a valid '# space' header")
    idx = np.arange(mesh.n_vertices) if space == VH else geometry(mesh).interior
    if len(pairs) != len(idx) or any(i != j for (i, _), j in zip(pairs, idx)):
        raise ValueError(f"field dump {path} does not match the mesh dof layout")
    return Field(mesh, space, np.array([val for _, val in pairs]))
