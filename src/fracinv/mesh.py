"""Simplicial meshes of the unit interval and the unit disk.

Meshes are immutable value objects: a vertex array, a cell connectivity
array, per-vertex boundary flags and the mesh size h (largest cell
diameter).  The disk is approximated by an inscribed polygon whose
boundary vertices lie exactly on the unit circle.
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
        geometry of ``fem.geometry`` and the one march-data slot of
        ``fem.march_data``), kept here so that it lives exactly as long as
        the mesh.
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


def _signed_measures(dim, vertices, cells):
    if dim == 1:
        return vertices[cells[:, 1], 0] - vertices[cells[:, 0], 0]
    p0 = vertices[cells[:, 0]]
    e1 = vertices[cells[:, 1]] - p0
    e2 = vertices[cells[:, 2]] - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _diameters(vertices, cells):
    """Largest distance between two vertices of each cell."""
    k = cells.shape[1]
    return np.max([np.linalg.norm(vertices[cells[:, i]] - vertices[cells[:, j]], axis=1)
                   for i in range(k) for j in range(i + 1, k)], axis=0)


def _derive_boundary(cells, n_vertices):
    """Boundary vertex mask from facet incidence; checks the face-to-face property.

    A facet is a cell's vertices less one (a vertex in 1D, an edge in 2D),
    keyed by its sorted indices in base n_vertices.  In the sorted keys a
    facet in three cells shows as equal keys two apart, and a boundary
    facet, which lies in one cell, as a key equal to neither neighbour.
    """
    k = cells.shape[1]
    others = [[j for j in range(k) if j != i] for i in range(k)]
    facets = np.sort(cells[:, others], axis=2).reshape(-1, k - 1)
    shape = (n_vertices,) * (k - 1)
    keys = np.sort(np.ravel_multi_index(facets.T, shape))
    if (keys[2:] == keys[:-2]).any():
        raise MeshValidationError("mesh is not face-to-face: facet shared by >2 cells")
    if np.bincount(cells.ravel(), minlength=n_vertices).min() == 0:
        raise MeshValidationError("mesh has vertices not referenced by any cell")
    pad = np.concatenate(([-1], keys, [-1]))
    once = (keys != pad[:-2]) & (keys != pad[2:])
    boundary = np.zeros(n_vertices, dtype=bool)
    boundary[np.ravel(np.unravel_index(keys[once], shape))] = True
    return boundary


def build_mesh(dim, vertices, cells, domain=None) -> Mesh:
    """Assemble and validate a Mesh, normalizing cell orientation.

    Cells with negative signed measure are flipped; non-finite coordinates,
    zero-measure cells, dangling vertices, non-face-to-face connectivity and
    quasi-uniformity ratios above DEFAULT_RHO_MAX raise MeshValidationError.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float).reshape(-1, dim)
    cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, dim + 1)
    if not np.isfinite(vertices).all():
        raise MeshValidationError("mesh has a non-finite vertex coordinate")
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
    boundary = _derive_boundary(cells, len(vertices))
    diam = _diameters(vertices, cells)
    ratio = diam.max() / diam.min()
    if ratio > DEFAULT_RHO_MAX:
        raise MeshValidationError(
            f"quasi-uniformity ratio {ratio:.3f} exceeds limit {DEFAULT_RHO_MAX:.3f}")
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
    # outermost ring is exact to rounding; snap to kill the last few ulps
    vertices = np.asarray(verts)
    vertices[rings[m]] /= np.linalg.norm(vertices[rings[m]], axis=1)[:, None]
    return build_mesh(2, vertices, np.asarray(cells), domain="disk")


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


def load_mesh(path) -> Mesh:
    """Read a mesh from the plain-text format, validating as it goes.

    Malformed lines raise MeshFormatError with the offending line number.
    The data must pass :func:`build_mesh` unchanged: any mesh it rejects, a
    negatively oriented cell, or boundary flags other than the derived
    ones raise MeshValidationError.
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

    mesh = build_mesh(dim, vertices, cells, domain=domain)
    # files always store positively oriented cells; a cell build_mesh had to
    # flip means corruption
    if not np.array_equal(mesh.cells, cells):
        raise MeshValidationError("file contains a cell with negative signed measure")
    if not np.array_equal(mesh.boundary, flags):
        raise MeshValidationError("boundary flags do not match facet structure")
    return mesh
