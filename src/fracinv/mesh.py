"""Simplicial meshes of the unit interval and the unit disk.

Meshes are immutable value objects: a vertex array, a cell connectivity
array, per-vertex boundary flags and the mesh size h (largest cell
diameter).  The disk is approximated by an inscribed polygon whose
boundary vertices lie exactly on the unit circle; uniform refinement
re-projects new boundary vertices onto the circle so the chord-to-arc
gap stays O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshFormatError, MeshValidationError

DEFAULT_RHO_MAX = 4.0


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial triangulation (interval cells in 1D, triangles in 2D).

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    vertices : ndarray, shape (n_vertices, dim)
        Vertex coordinates.
    cells : ndarray, shape (n_cells, dim + 1)
        Vertex indices per cell, positively oriented.
    boundary : ndarray of bool, shape (n_vertices,)
        True exactly for the vertices on the polygonal boundary.
    h : float
        Largest cell diameter.
    domain : str or None
        "interval", "disk", or None for meshes of unknown provenance.
    derived : dict
        Data other modules derive from the mesh on first use (the P1
        geometry of ``fem.geometry``), kept here so that it lives exactly
        as long as the mesh.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary: np.ndarray
    h: float
    domain: str | None = None
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Indices of interior vertices (the X_h degrees of freedom)."""
        return np.flatnonzero(~self.boundary)

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, n_vertices={self.n_vertices}, "
                f"n_cells={self.n_cells}, h={self.h:.4g}, domain={self.domain!r})")


def cell_measures(mesh: Mesh) -> np.ndarray:
    """Unsigned cell measures (lengths in 1D, areas in 2D)."""
    return _signed_measures(mesh.dim, mesh.vertices, mesh.cells)


def cell_diameters(mesh: Mesh) -> np.ndarray:
    """Cell diameters (longest edge per cell)."""
    return _diameters(mesh.dim, mesh.vertices, mesh.cells)


def _signed_measures(dim, vertices, cells):
    if dim == 1:
        return vertices[cells[:, 1], 0] - vertices[cells[:, 0], 0]
    p0 = vertices[cells[:, 0]]
    e1 = vertices[cells[:, 1]] - p0
    e2 = vertices[cells[:, 2]] - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _diameters(dim, vertices, cells):
    if dim == 1:
        return np.abs(vertices[cells[:, 1], 0] - vertices[cells[:, 0], 0])
    d01 = np.linalg.norm(vertices[cells[:, 1]] - vertices[cells[:, 0]], axis=1)
    d12 = np.linalg.norm(vertices[cells[:, 2]] - vertices[cells[:, 1]], axis=1)
    d20 = np.linalg.norm(vertices[cells[:, 0]] - vertices[cells[:, 2]], axis=1)
    return np.maximum(d01, np.maximum(d12, d20))


def _derive_boundary(dim, cells, n_vertices):
    """Boundary vertex mask from facet incidence; checks the face-to-face property."""
    if dim == 1:
        counts = np.bincount(cells.ravel(), minlength=n_vertices)
        if counts.min() == 0:
            raise MeshValidationError("mesh has vertices not referenced by any cell")
        if counts.max() > 2:
            raise MeshValidationError("mesh is not face-to-face: vertex shared by >2 cells")
        return counts == 1
    edges = np.sort(cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    if counts.max() > 2:
        raise MeshValidationError("mesh is not face-to-face: edge shared by >2 cells")
    referenced = np.zeros(n_vertices, dtype=bool)
    referenced[cells.ravel()] = True
    if not referenced.all():
        raise MeshValidationError("mesh has vertices not referenced by any cell")
    boundary = np.zeros(n_vertices, dtype=bool)
    boundary[uniq[counts == 1].ravel()] = True
    return boundary


def boundary_edges(mesh: Mesh) -> np.ndarray:
    """Edges incident to exactly one triangle, as sorted index pairs (2D only)."""
    edges = np.sort(mesh.cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return uniq[counts == 1]


def build_mesh(dim, vertices, cells, domain=None, rho_max=DEFAULT_RHO_MAX) -> Mesh:
    """Assemble and validate a Mesh, normalizing cell orientation.

    Cells with negative signed measure are flipped; zero-measure cells,
    dangling vertices, non-face-to-face connectivity and quasi-uniformity
    ratios above ``rho_max`` raise MeshValidationError.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float).reshape(-1, dim)
    cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, dim + 1)
    if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
        raise MeshValidationError("cell vertex index out of range")
    signed = _signed_measures(dim, vertices, cells)
    flip = signed < 0
    if flip.any():
        cells = cells.copy()
        cells[flip, -2], cells[flip, -1] = cells[flip, -1], cells[flip, -2].copy()
        signed = np.abs(signed)
    if signed.size == 0 or signed.min() <= 0.0:
        raise MeshValidationError("mesh contains a cell with nonpositive measure")
    boundary = _derive_boundary(dim, cells, len(vertices))
    diam = _diameters(dim, vertices, cells)
    ratio = diam.max() / diam.min()
    if ratio > rho_max:
        raise MeshValidationError(
            f"quasi-uniformity ratio {ratio:.3f} exceeds limit {rho_max:.3f}")
    return Mesh(dim, vertices, cells, boundary, float(diam.max()), domain)


def generate_interval_mesh(n_cells: int) -> Mesh:
    """Uniform partition of (0, 1) into ``n_cells`` cells."""
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 1:
        raise ValueError(f"n_cells must be a positive integer, got {n_cells!r}")
    x = np.arange(n_cells + 1, dtype=float) / n_cells
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return build_mesh(1, x[:, None], cells, domain="interval")


def generate_disk_mesh(target_h: float) -> Mesh:
    """Structured triangulation of the unit disk with mesh size <= 1.5 * target_h.

    Concentric rings of vertices at radii k/m carry 6k vertices each, so
    the angular spacing tracks the radial spacing and the triangulation is
    quasi-uniform by construction.  All outermost vertices lie on the unit
    circle, making the mesh an inscribed polygon.
    """
    if not (0.0 < target_h < 1.0):
        raise ValueError(f"target_h must lie in (0, 1), got {target_h!r}")
    m = max(1, math.ceil(1.5 / target_h))
    verts = [(0.0, 0.0)]
    rings = [[0]]
    for k in range(1, m + 1):
        angles = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        r = k / m
        start = len(verts)
        verts.extend(zip(r * np.cos(angles), r * np.sin(angles)))
        rings.append(list(range(start, start + 6 * k)))
    cells = []
    outer0 = rings[1]
    for j in range(6):
        cells.append((0, outer0[j], outer0[(j + 1) % 6]))
    for k in range(1, m):
        cells.extend(_zip_rings(rings[k], rings[k + 1]))
    mesh = build_mesh(2, np.asarray(verts), np.asarray(cells), domain="disk")
    # outermost ring is exact to rounding; snap to kill the last few ulps
    vertices = mesh.vertices.copy()
    rad = np.linalg.norm(vertices[mesh.boundary], axis=1)
    vertices[mesh.boundary] /= rad[:, None]
    return build_mesh(2, vertices, mesh.cells, domain="disk")


def _zip_rings(inner, outer):
    """Triangulate the band between two rings by merging them in angle order."""
    a, b = len(inner), len(outer)
    cells = []
    i = j = 0
    while i < a or j < b:
        adv_inner = (i + 1) / a <= (j + 1) / b
        if i < a and (adv_inner or j == b):
            cells.append((inner[i % a], outer[j % b], inner[(i + 1) % a]))
            i += 1
        else:
            cells.append((inner[i % a], outer[j % b], outer[(j + 1) % b]))
            j += 1
    return cells


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell into 2 (1D) or 4 (2D) children.

    Parent vertices keep their indices, so nodal values transfer between
    refinement levels by index.  On disk meshes, midpoints of boundary
    edges are projected radially back onto the unit circle.
    """
    if mesh.dim == 1:
        mids = 0.5 * (mesh.vertices[mesh.cells[:, 0]] + mesh.vertices[mesh.cells[:, 1]])
        verts = np.vstack([mesh.vertices, mids])
        mid_idx = mesh.n_vertices + np.arange(mesh.n_cells)
        left = np.column_stack([mesh.cells[:, 0], mid_idx])
        right = np.column_stack([mid_idx, mesh.cells[:, 1]])
        return build_mesh(1, verts, np.vstack([left, right]), domain=mesh.domain)

    edges = np.sort(mesh.cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    mids = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
    if mesh.domain == "disk":
        bnd = boundary_edges(mesh)
        bnd_set = set(map(tuple, bnd))
        on_bnd = np.array([tuple(e) in bnd_set for e in uniq])
        norms = np.linalg.norm(mids[on_bnd], axis=1)
        mids[on_bnd] /= norms[:, None]
    mid_idx = mesh.n_vertices + inverse.reshape(-1, 3)
    v0, v1, v2 = mesh.cells[:, 0], mesh.cells[:, 1], mesh.cells[:, 2]
    m01, m12, m20 = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    children = np.vstack([
        np.column_stack([v0, m01, m20]),
        np.column_stack([v1, m12, m01]),
        np.column_stack([v2, m20, m12]),
        np.column_stack([m01, m12, m20]),
    ])
    verts = np.vstack([mesh.vertices, mids])
    return build_mesh(2, verts, children, domain=mesh.domain)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text format (17 significant digits)."""
    lines = ["# fracinv mesh"]
    if mesh.domain is not None:
        lines.append(f"# domain {mesh.domain}")
    lines.append(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}")
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(i) for i in c))
    lines.append(" ".join("1" if b else "0" for b in mesh.boundary))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path, rho_max=DEFAULT_RHO_MAX) -> Mesh:
    """Read a mesh from the plain-text format, validating as it goes.

    Malformed lines raise MeshFormatError with the offending line number;
    structurally inconsistent data (indices out of range, nonpositively
    oriented cells, wrong boundary flags) raises MeshValidationError.
    """
    domain = None
    rows = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if stripped.startswith("#"):
                parts = stripped[1:].split()
                if len(parts) == 2 and parts[0] == "domain":
                    domain = parts[1]
                continue
            if stripped:
                rows.append((ln, stripped))
    if not rows:
        raise MeshFormatError("line 1: empty mesh file")

    ln, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise MeshFormatError(f"line {ln}: header must be 'dim n_vertices n_cells'")
    try:
        dim, n_v, n_c = (int(p) for p in parts)
    except ValueError:
        raise MeshFormatError(f"line {ln}: header fields must be integers") from None
    if dim not in (1, 2):
        raise MeshFormatError(f"line {ln}: dim must be 1 or 2, got {dim}")
    if len(rows) != 1 + n_v + n_c + 1:
        raise MeshFormatError(
            f"line {ln}: expected {n_v} vertex, {n_c} cell and 1 flag line, "
            f"found {len(rows) - 1} data lines")

    vertices = np.empty((n_v, dim))
    for i, (ln, line) in enumerate(rows[1:1 + n_v]):
        parts = line.split()
        if len(parts) != dim:
            raise MeshFormatError(f"line {ln}: expected {dim} coordinate(s)")
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad coordinate") from None

    cells = np.empty((n_c, dim + 1), dtype=np.int64)
    for i, (ln, line) in enumerate(rows[1 + n_v:1 + n_v + n_c]):
        parts = line.split()
        if len(parts) != dim + 1:
            raise MeshFormatError(f"line {ln}: expected {dim + 1} vertex indices")
        try:
            cells[i] = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad vertex index") from None

    ln, line = rows[1 + n_v + n_c]
    parts = line.split()
    if len(parts) != n_v or any(p not in ("0", "1") for p in parts):
        raise MeshFormatError(f"line {ln}: expected {n_v} boundary flags (0/1)")
    flags = np.array([p == "1" for p in parts])

    if cells.size and (cells.min() < 0 or cells.max() >= n_v):
        raise MeshValidationError("cell vertex index out of range")
    # files always store positively oriented cells; reversed cells mean corruption
    signed = _signed_measures(dim, vertices, cells)
    if signed.min() <= 0.0:
        raise MeshValidationError("file contains a cell with nonpositive signed measure")
    mesh = build_mesh(dim, vertices, cells, domain=domain, rho_max=rho_max)
    if not np.array_equal(mesh.boundary, flags):
        raise MeshValidationError("boundary flags do not match facet structure")
    return mesh
