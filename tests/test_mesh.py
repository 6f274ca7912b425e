import numpy as np
import pytest

from fracinv.errors import MeshFormatError, MeshValidationError
from fracinv.mesh import (build_mesh, cell_measures, generate_disk_mesh,
                          generate_interval_mesh, load_mesh, save_mesh)


def test_interval_mesh_basic():
    m = generate_interval_mesh(4)
    assert m.n_vertices == 5
    assert np.allclose(m.vertices[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.h == pytest.approx(0.25)
    assert m.boundary[0] and m.boundary[-1]
    assert m.boundary.sum() == 2


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


def test_save_load_round_trip(tmp_path):
    m = generate_disk_mesh(0.3)
    path = tmp_path / "disk.mesh"
    save_mesh(m, path)
    loaded = load_mesh(path)
    assert loaded.dim == m.dim
    assert np.array_equal(loaded.vertices, m.vertices)
    assert np.array_equal(loaded.cells, m.cells)
    assert np.array_equal(loaded.boundary, m.boundary)
    assert loaded.domain == "disk"


def test_save_load_round_trip_interval(tmp_path):
    m = generate_interval_mesh(5)
    path = tmp_path / "line.mesh"
    save_mesh(m, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, m.vertices)
    assert loaded.h == m.h


def test_load_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("1 2 1\n0\n1\n0 7\n1 1\n")
    with pytest.raises(MeshValidationError):
        load_mesh(path)


def test_load_rejects_non_finite_coordinate(tmp_path):
    path = tmp_path / "nan.mesh"
    path.write_text("2 4 2\n0 0\n1 0\n0 1\nnan 1\n0 1 2\n1 3 2\n1 1 1 1\n")
    with pytest.raises(MeshValidationError, match="non-finite"):
        load_mesh(path)


def test_load_rejects_negative_area_cell(tmp_path):
    # clockwise triangle: negative signed area
    path = tmp_path / "cw.mesh"
    path.write_text("2 3 1\n0 0\n1 0\n0 1\n0 2 1\n1 1 1\n")
    with pytest.raises(MeshValidationError):
        load_mesh(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "broken.mesh"
    path.write_text("2 3\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(path)


def test_load_rejects_bad_coordinate_with_line_number(tmp_path):
    path = tmp_path / "coord.mesh"
    path.write_text("1 2 1\n0\nnope\n0 1\n1 1\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        load_mesh(path)


def test_load_rejects_wrong_boundary_flags(tmp_path):
    m = generate_interval_mesh(3)
    path = tmp_path / "flags.mesh"
    save_mesh(m, path)
    text = path.read_text().splitlines()
    text[-1] = "1 1 0 1"  # marks an interior vertex as boundary
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshValidationError):
        load_mesh(path)


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
])
def test_build_mesh_rejections(dim, vertices, cells):
    with pytest.raises(MeshValidationError):
        build_mesh(dim, np.array(vertices), np.array(cells))


@pytest.mark.parametrize("text, line", [
    pytest.param("", 1, id="empty-file"),
    pytest.param("# fracinv mesh\n# domain interval\n", 1, id="comments-only"),
    pytest.param("# fracinv mesh\n1 two 1\n0\n1\n0 1\n1 1\n", 2, id="header-not-integers"),
    pytest.param("3 1 0\n0 0 0\n1\n", 1, id="dim-3"),
    pytest.param("1 2 1\n0\n1\n0 1\n", 1, id="too-few-lines"),
    pytest.param("1 2 1\n0\n1\n0 1\n1 1\n0 1\n", 1, id="too-many-lines"),
    pytest.param("2 3 1\n0 0\n1\n0 1\n0 1 2\n1 1 1\n", 3, id="wrong-coordinate-count"),
    pytest.param("1 2 1\n0\n1\n0 1 1\n1 1\n", 4, id="wrong-index-count"),
    pytest.param("1 2 1\n0\n1\n\n0 x\n1 1\n", 5, id="index-not-integer"),
    pytest.param("1 2 1\n0\n1\n0 1.0\n1 1\n", 4, id="index-not-integral"),
    pytest.param("1 2 1\n0\n1\n0 1\n1 2\n", 5, id="flag-not-0-or-1"),
    pytest.param("1 2 1\n0\n1\n0 1\n1\n", 5, id="wrong-flag-count"),
])
def test_load_rejects_malformed_file_with_line_number(tmp_path, text, line):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=f"^line {line}: "):
        load_mesh(path)


def test_load_rejects_file_without_cells(tmp_path):
    path = tmp_path / "nocells.mesh"
    path.write_text("1 1 0\n0\n1\n")
    with pytest.raises(MeshValidationError):
        load_mesh(path)
