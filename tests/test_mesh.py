import numpy as np
import pytest

from fracinv.errors import MeshValidationError
from fracinv.mesh import (build_mesh, cell_measures, generate_disk_mesh,
                          generate_interval_mesh, save_mesh)


def test_interval_mesh_basic():
    m = generate_interval_mesh(4)
    assert m.n_vertices == 5
    assert np.allclose(m.vertices[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.h == pytest.approx(0.25)
    assert m.boundary[0] and m.boundary[-1]
    assert m.boundary.sum() == 2


def test_mesh_repr():
    assert repr(generate_interval_mesh(4)) == \
        "Mesh(dim=1, n_vertices=5, n_cells=4, h=0.25, domain='interval')"


def test_interval_mesh_degenerate():
    m = generate_interval_mesh(1)
    assert m.n_vertices == 2 and m.n_cells == 1
    assert m.boundary.all()


def test_interval_mesh_fine_grid():
    m = generate_interval_mesh(1600)
    assert m.h == pytest.approx(1.0 / 1600.0)
    assert m.n_cells == 1600


def test_interval_mesh_rejects_zero():
    with pytest.raises(ValueError):
        generate_interval_mesh(0)


def test_disk_mesh_boundary_on_circle():
    m = generate_disk_mesh(0.5)
    r = np.linalg.norm(m.vertices[m.boundary], axis=1)
    assert np.abs(r - 1.0).max() <= 1e-12
    assert m.h <= 1.5 * 0.5


def test_disk_mesh_chord_gap():
    # largest distance from the circle to the inscribed polygon is the
    # sagitta of a boundary chord; must be below h^2
    m = generate_disk_mesh(0.5)
    # boundary edges: those incident to exactly one triangle
    edges = np.sort(m.cells[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    edges = uniq[counts == 1]
    chords = np.linalg.norm(m.vertices[edges[:, 0]] - m.vertices[edges[:, 1]], axis=1)
    sagitta = 1.0 - np.sqrt(1.0 - (chords / 2.0) ** 2)
    assert sagitta.max() <= m.h ** 2


def test_disk_mesh_coarse_experiment_level():
    # coarsest 2D experiment level: around 209 elements
    m = generate_disk_mesh(0.25)
    assert 180 <= m.n_cells <= 240


def test_disk_mesh_area_deficit_order():
    # |Omega| - |Omega_h| <= c h^2 with c <= 4 across a hierarchy of sizes
    for target_h in (0.4, 0.2, 0.1):
        m = generate_disk_mesh(target_h)
        deficit = np.pi - cell_measures(m).sum()
        assert 0.0 < deficit <= 4.0 * m.h ** 2


def test_disk_mesh_rejects_bad_target():
    with pytest.raises(ValueError):
        generate_disk_mesh(0.0)
    with pytest.raises(ValueError):
        generate_disk_mesh(1.5)


@pytest.mark.parametrize("mesh_factory", [
    lambda: generate_interval_mesh(7),
    lambda: generate_disk_mesh(0.3),
    lambda: generate_disk_mesh(0.15),
])
def test_face_to_face_and_area(mesh_factory):
    # build_mesh re-runs the full face-to-face validation on the same data
    m = mesh_factory()
    rebuilt = build_mesh(m.dim, m.vertices, m.cells, domain=m.domain)
    assert rebuilt.n_cells == m.n_cells
    assert cell_measures(m).min() > 0.0


@pytest.mark.parametrize("mesh_factory, domain", [
    pytest.param(lambda: generate_disk_mesh(0.3), "disk", id="disk"),
    pytest.param(lambda: generate_interval_mesh(5), "interval", id="interval"),
])
def test_save_mesh_writes_the_plain_text_format(tmp_path, mesh_factory, domain):
    # mesh files are written for outside readers, so the text is parsed here
    # by hand, without the library
    m = mesh_factory()
    path = tmp_path / "out.mesh"
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# fracinv mesh", f"# domain {domain}",
                         f"{m.dim} {m.n_vertices} {m.n_cells}"]
    rows = [line.split() for line in lines[3:]]
    assert len(rows) == m.n_vertices + m.n_cells + 1
    vertex_rows, cell_rows, flags = (rows[:m.n_vertices],
                                     rows[m.n_vertices:-1], rows[-1])
    # 17 significant digits parse back to the very same doubles
    assert all(len(row) == m.dim for row in vertex_rows)
    assert np.array_equal([[float(p) for p in row] for row in vertex_rows],
                          m.vertices)
    assert np.array_equal([[int(p) for p in row] for row in cell_rows], m.cells)
    assert flags == ["1" if b else "0" for b in m.boundary]


def test_build_mesh_rejects_zero_measure():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshValidationError):
        build_mesh(2, verts, np.array([[0, 1, 2]]))


def test_build_mesh_normalizes_orientation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = build_mesh(2, verts, np.array([[0, 2, 1]]))  # clockwise input
    assert cell_measures(m)[0] == pytest.approx(0.5)


@pytest.mark.parametrize("dim, vertices, cells", [
    pytest.param(1, [[0.0], [1.0]], [[0, 2]], id="1d-index-too-large"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, -1, 2]],
                 id="2d-negative-index"),
    pytest.param(1, [[0.0], [0.5], [1.0]], [[0, 1]], id="1d-unreferenced-vertex"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2]],
                 id="2d-unreferenced-vertex"),
    # vertex 0 is a facet of all three intervals
    pytest.param(1, [[0.0], [1.0], [-1.0], [0.5]], [[0, 1], [2, 0], [0, 3]],
                 id="1d-facet-in-three-cells"),
    # edge (0, 1) is a facet of all three triangles
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
                 [[0, 1, 2], [0, 3, 1], [0, 1, 4]], id="2d-facet-in-three-cells"),
    pytest.param(1, [[0.0], [1.0], [1.1]], [[0, 1], [1, 2]],
                 id="1d-diameter-ratio-above-4"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                     [2.0, 0.0], [2.1, 0.0], [2.0, 0.1]],
                 [[0, 1, 2], [3, 4, 5]], id="2d-diameter-ratio-above-4"),
    pytest.param(1, [[0.0], [np.nan], [1.0]], [[0, 1], [1, 2]], id="1d-nan-coordinate"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]],
                 [[0, 1, 2], [1, 3, 2]], id="2d-nan-coordinate"),
    pytest.param(1, [[0.0]], [], id="1d-no-cells"),
])
def test_build_mesh_rejections(dim, vertices, cells):
    with pytest.raises(MeshValidationError):
        build_mesh(dim, np.array(vertices), np.array(cells))


# the vertices and cells of the two bad mesh files the deleted reader was
# tested on; the message must name the fault
@pytest.mark.parametrize("dim, vertices, cells, message", [
    pytest.param(1, [[0.0], [1.0]], [[0, 7]], "index out of range",
                 id="index-out-of-range"),
    pytest.param(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]],
                 [[0, 1, 2], [1, 3, 2]], "non-finite", id="non-finite-coordinate"),
])
def test_build_mesh_rejection_names_the_fault(dim, vertices, cells, message):
    with pytest.raises(MeshValidationError, match=message):
        build_mesh(dim, np.array(vertices), np.array(cells))
