"""Piecewise-linear finite element kernels.

Two nodal spaces live on every mesh: V_h (all vertices, used for the
diffusion coefficient) and X_h (interior vertices, zero on the boundary,
used for the state).  Mass and stiffness matrices are assembled exactly:
the coefficient enters the stiffness through its vertex average per cell,
which is exact for a piecewise-linear coefficient against the cellwise
constant gradients of P1 basis functions.  Data integrals use 2-point
Gauss (1D) / 3-point edge-midpoint (2D) quadrature.

What no coefficient changes (interior dofs, cell measures, basis
gradients, sparsity patterns, mass matrices and their factorizations) is
built once per mesh, by :func:`geometry`.
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


def zero_field(mesh: Mesh, space: str) -> Field:
    return Field(mesh, space, np.zeros(n_dofs(mesh, space)))


class Geometry:
    """The P1 data of one mesh that no coefficient changes.

    Built on first use by :func:`geometry` and stored on the mesh, so it
    lives exactly as long as the mesh.  Each space's matrices share one
    CSR pattern, and ``scatter`` sums per-cell local matrices into it with
    a single ``bincount``.  The factorizations are built on first use.
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
        self.gradients = _cell_basis_gradients(mesh, self.measures)
        self._patterns = {space: _pattern(self.cells, self.dofs[space])
                          for space in (VH, XH)}
        self.mass = {space: self.scatter(space, self.local_mass()) for space in (VH, XH)}
        self.stiffness = self.scatter(VH, self.local_stiffness(np.ones(mesh.n_vertices)))

    def local_mass(self) -> np.ndarray:
        # exact P1 mass: |c| (1 + delta_ij) / ((dim + 1) (dim + 2))
        ref = np.ones((self.dim + 1, self.dim + 1)) + np.eye(self.dim + 1)
        return self.measures[:, None, None] * (ref / ((self.dim + 1) * (self.dim + 2)))

    def local_stiffness(self, coeff_values) -> np.ndarray:
        coeff = coeff_values[self.cells].mean(axis=1)
        return np.einsum("c,c,cid,cjd->cij", coeff, self.measures,
                         self.gradients, self.gradients)

    def scatter(self, space, local) -> sp.csr_matrix:
        entries, slots, indices, indptr = self._patterns[space]
        data = np.bincount(slots, weights=local.ravel()[entries], minlength=len(indices))
        n = len(indptr) - 1
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    @cached_property
    def mass_solver(self) -> linalg.SpdSolver:
        """Factorized X_h mass matrix (L2 projection)."""
        return linalg.factorize(self.mass[XH])

    @cached_property
    def riesz_solver(self) -> linalg.SpdSolver:
        """Factorized full-H1 Riesz matrix M_V + K_V(1)."""
        return linalg.factorize(self.mass[VH] + self.stiffness)


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
    rows = np.repeat(dof[cells], nloc, axis=1).ravel()
    cols = np.tile(dof[cells], (1, nloc)).ravel()
    kept = np.flatnonzero((rows >= 0) & (cols >= 0))
    by_row = kept[np.argsort(rows[kept], kind="stable")]
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=n))])
    order = sp.csr_matrix((np.arange(len(by_row), dtype=float), cols[by_row], row_ptr),
                          shape=(n, n))
    order.sort_indices()  # the same sort, so the same order among duplicates
    entries = by_row[order.data.astype(np.int64)]
    keys = rows[entries] * n + cols[entries]
    first = np.diff(keys, prepend=-1) != 0  # first entry of each (row, column)
    unique = keys[first]
    slots = np.cumsum(first) - 1
    indptr = np.searchsorted(unique // n, np.arange(n + 1))
    return tuple(a.astype(np.int32) for a in (entries, slots, unique % n, indptr))


def geometry(mesh: Mesh) -> Geometry:
    """The mesh's P1 geometry, built on the first call."""
    geo = mesh.derived.get("p1")
    if geo is None:
        geo = mesh.derived["p1"] = Geometry(mesh)
    return geo


def _cell_basis_gradients(mesh, meas):
    """Gradients of the nodal basis functions per cell, shape (n_cells, nloc, dim)."""
    if mesh.dim == 1:
        grads = np.empty((mesh.n_cells, 2, 1))
        grads[:, 0, 0] = -1.0 / meas
        grads[:, 1, 0] = 1.0 / meas
        return grads
    p = mesh.vertices[mesh.cells]  # (n_c, 3, 2)
    grads = np.empty((mesh.n_cells, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        grads[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    grads /= (2.0 * meas)[:, None, None]
    return grads


def assemble_mass(mesh: Mesh, space: str) -> sp.csr_matrix:
    """Mass matrix M_ij = integral of phi_i phi_j over the mesh."""
    geo = geometry(mesh)
    return geo.scatter(space, geo.local_mass())


def assemble_stiffness(mesh: Mesh, space: str, q: Field) -> sp.csr_matrix:
    """Stiffness matrix K_ij = integral of q grad(phi_i) . grad(phi_j).

    The coefficient ``q`` must be a V_h field on the same mesh with
    strictly positive nodal values.
    """
    if q.mesh is not mesh or q.space != VH:
        raise ValueError("coefficient must be a V_h field on the same mesh")
    qmin = q.values.min()
    if qmin <= 0.0:
        raise InvalidCoefficientError(f"coefficient must be positive, min is {qmin:.3g}")
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

    ``f`` may be a callable of the coordinates, a scalar, or a Field on
    the same mesh (evaluated through its P1 representation, which makes
    the quadrature exact).
    """
    lam, w = _QUAD_1D if mesh.dim == 1 else _QUAD_2D
    pts_phys = np.einsum("ql,cld->cqd", lam, mesh.vertices[mesh.cells])
    if isinstance(f, Field):
        if f.mesh is not mesh:
            raise ValueError("field is on a different mesh")
        nodal = f.extend()
        fvals = np.einsum("ql,cl->cq", lam, nodal[mesh.cells])
    else:
        flat = pts_phys.reshape(-1, mesh.dim)
        fvals = _eval_at(f, flat).reshape(pts_phys.shape[:2])
    geo = geometry(mesh)
    # contribution of cell c to its local vertex l: |c| * sum_q w_q f(x_q) lam_l(x_q)
    contrib = np.einsum("c,q,cq,ql->cl", geo.measures, w, fvals, lam)
    out = np.bincount(geo.dofs[space][mesh.cells].ravel() + 1, weights=contrib.ravel(),
                      minlength=n_dofs(mesh, space) + 1)
    return out[1:]  # slot 0 swallowed contributions of dropped boundary dofs


def l2_project(mesh: Mesh, f) -> Field:
    """L2 projection onto X_h: solve M x = (f, phi_i)."""
    x = geometry(mesh).mass_solver.solve(load_vector(mesh, XH, f))
    return Field(mesh, XH, x)


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
    grads = geometry(v.mesh).gradients
    nodal = v.extend()
    return np.einsum("cl,cld->cd", nodal[v.mesh.cells], grads)


def cell_average_load(mesh: Mesh, cellwise: np.ndarray) -> np.ndarray:
    """V_h dual vector of a cellwise constant function: b_i = sum |c|/(dim+1) w_c."""
    w = geometry(mesh).measures * cellwise / (mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), weights=np.repeat(w, mesh.dim + 1),
                       minlength=mesh.n_vertices)


def evaluate_at_points(v: Field, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 function at arbitrary points.

    Points marginally outside the mesh (e.g. in the sliver between the
    disk and its inscribed polygon) are evaluated in the nearest cell
    with clipped barycentric coordinates.
    """
    mesh = v.mesh
    nodal = v.extend()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dim == 1:
        x = mesh.vertices[:, 0]
        order = np.argsort(x)
        return np.interp(points[:, 0], x[order], nodal[order])
    p0 = mesh.vertices[mesh.cells[:, 0]]
    e1 = mesh.vertices[mesh.cells[:, 1]] - p0
    e2 = mesh.vertices[mesh.cells[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    out = np.empty(len(points))
    for i, pt in enumerate(points):
        r = pt - p0
        l1 = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * r[:, 1] - e1[:, 1] * r[:, 0]) / det
        l0 = 1.0 - l1 - l2
        c = int(np.argmax(np.minimum(l0, np.minimum(l1, l2))))
        lam = np.clip([l0[c], l1[c], l2[c]], 0.0, None)
        lam /= lam.sum()
        out[i] = lam @ nodal[mesh.cells[c]]
    return out


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
