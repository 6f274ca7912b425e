import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from fracinv import fem
from fracinv.errors import InvalidCoefficientError
from fracinv.fem import VH, XH, Field
from fracinv.mesh import build_mesh, generate_disk_mesh, generate_interval_mesh


def ones_field(mesh):
    return Field(mesh, VH, np.ones(mesh.n_vertices))


def test_mass_interior_row_pattern_1d():
    m = generate_interval_mesh(8)
    h = 1.0 / 8.0
    mass = fem.assemble_mass(m, VH).toarray()
    np.testing.assert_allclose(mass[3, 2:5], [h / 6, 2 * h / 3, h / 6], rtol=1e-14)


def test_mass_sum_is_domain_measure():
    for mesh in (generate_interval_mesh(13), generate_disk_mesh(0.3)):
        mass = fem.assemble_mass(mesh, VH)
        from fracinv.mesh import cell_measures
        assert mass.sum() == pytest.approx(cell_measures(mesh).sum(), rel=1e-13)


def test_mass_reference_triangle():
    verts = np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]])
    m = build_mesh(2, verts, np.array([[0, 1, 2]]))  # unit area
    mass = fem.assemble_mass(m, VH).toarray()
    np.testing.assert_allclose(np.diag(mass), 1.0 / 6.0, rtol=1e-14)
    assert mass[0, 1] == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_stiffness_tridiagonal_1d():
    m = generate_interval_mesh(8)
    k = fem.assemble_stiffness(m, XH, ones_field(m)).toarray()
    np.testing.assert_allclose(np.diag(k), 16.0, rtol=1e-13)
    np.testing.assert_allclose(np.diag(k, 1), -8.0, rtol=1e-13)


def test_stiffness_linear_in_coefficient():
    m = generate_disk_mesh(0.4)
    q = Field(m, VH, 1.0 + 0.5 * np.linspace(0, 1, m.n_vertices))
    k1 = fem.assemble_stiffness(m, XH, q)
    k3 = fem.assemble_stiffness(m, XH, Field(m, VH, 3.0 * q.values))
    assert abs(3.0 * k1 - k3).max() <= 1e-13 * abs(k3).max()


def test_stiffness_full_row_sums_vanish():
    m = generate_disk_mesh(0.35)
    q = Field(m, VH, 1.0 + 0.2 * np.cos(m.vertices[:, 0]))
    k = fem.assemble_stiffness(m, VH, q)
    assert np.abs(np.asarray(k.sum(axis=1))).max() <= 1e-12


@pytest.mark.parametrize("mesh", [generate_interval_mesh(17), generate_disk_mesh(0.1)],
                         ids=["interval", "disk"])
def test_local_stiffness_equals_einsum(mesh):
    geo = fem.geometry(mesh)
    rng = np.random.default_rng(5)
    # a positive coefficient and a signed search direction
    for coeff in (0.5 + rng.random(mesh.n_vertices), rng.standard_normal(mesh.n_vertices)):
        cell = coeff[mesh.cells].mean(axis=1)
        oracle = np.einsum("c,c,cid,cjd->cij", cell, geo.measures,
                           geo.gradients, geo.gradients)
        assert np.array_equal(geo.local_stiffness(coeff), oracle)


def test_interval_basis_gradients_are_the_inverse_lengths():
    # uniform, and shuffled, unevenly spaced vertices whose cells are given
    # right to left
    x = np.random.default_rng(6).permutation(np.linspace(0.0, 1.0, 12) ** 1.3)
    order = np.argsort(x)
    uneven = build_mesh(1, x[:, None], np.column_stack([order[:-1], order[1:]])[:, ::-1])
    for mesh in (generate_interval_mesh(17), uneven):
        geo = fem.geometry(mesh)
        assert np.array_equal(geo.gradients[:, :, 0],
                              np.column_stack([-1.0 / geo.measures, 1.0 / geo.measures]))


@pytest.mark.parametrize("h", [0.3, 0.1])
def test_cell_gradient_recovers_a_linear_function(h):
    mesh = generate_disk_mesh(h)
    slope = np.random.default_rng(7).standard_normal(2)
    values = 0.3 + mesh.vertices @ slope
    # an X_h field is zero on the boundary, so only cells off it are linear
    inside = np.isin(mesh.cells, mesh.interior).all(axis=1)
    for field, cells in ((Field(mesh, VH, values), slice(None)),
                         (Field(mesh, XH, values[mesh.interior]), inside)):
        grad = fem.cell_gradient(field)
        assert grad.shape == (mesh.n_cells, 2)
        np.testing.assert_allclose(grad[cells], np.broadcast_to(slope, grad[cells].shape),
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("mesh", [generate_interval_mesh(17), generate_disk_mesh(0.1)],
                         ids=["interval", "disk"])
def test_basis_gradients_sum_to_zero_per_cell(mesh):
    grads = fem.geometry(mesh).gradients
    scale = np.abs(grads).max(axis=(1, 2))
    assert (np.abs(grads.sum(axis=1)).max(axis=1) <= 4 * np.finfo(float).eps * scale).all()


def test_stiffness_rejects_nonpositive_coefficient():
    m = generate_interval_mesh(4)
    q = Field(m, VH, np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(InvalidCoefficientError):
        fem.assemble_stiffness(m, XH, q)


def test_stiffness_rejects_nan_coefficient():
    m = generate_interval_mesh(4)
    with pytest.raises(InvalidCoefficientError):
        fem.assemble_stiffness(m, XH, Field(m, VH, np.full(5, np.nan)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stiffness_rejects_one_nonfinite_nodal_value(bad):
    m = generate_interval_mesh(4)
    with pytest.raises(InvalidCoefficientError, match="positive and finite"):
        fem.assemble_stiffness(m, XH, Field(m, VH, np.array([1.0, 1.0, bad, 1.0, 1.0])))


@pytest.mark.parametrize("build, message", [
    (lambda m: Field(m, "W_h", np.zeros(m.n_vertices)), "unknown space"),
    (lambda m: Field(m, VH, np.zeros(m.n_vertices + 1)), "value length"),
    (lambda m: fem.assemble_stiffness(m, XH, ones_field(generate_interval_mesh(4))),
     "V_h field on the same mesh"),
    (lambda m: fem.assemble_stiffness(m, XH, Field(m, XH, np.ones(3))),
     "V_h field on the same mesh")],
    ids=["unknown-space", "wrong-length", "other-mesh", "x_h-coefficient"])
def test_mismatched_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(generate_interval_mesh(4))


def test_matrices_symmetric():
    m = generate_disk_mesh(0.3)
    q = Field(m, VH, 1.0 + 0.1 * m.vertices[:, 0] ** 2)
    for mat in (fem.assemble_mass(m, XH), fem.assemble_stiffness(m, XH, q)):
        asym = abs(mat - mat.T).max()
        assert asym <= 1e-14 * abs(mat).max()


def test_interpolate_constant_and_clipped_truth():
    m = generate_interval_mesh(2)
    ones = fem.interpolate(m, VH, lambda x: np.ones_like(x))
    assert np.array_equal(ones.values, np.ones(3))
    twos = fem.interpolate(m, VH, lambda x: 2.0)  # a scalar result is broadcast
    assert np.array_equal(twos.values, np.full(3, 2.0))
    # clipped sine coefficient: the cap binds at the midpoint
    from fracinv.problems import get_problem
    q = get_problem("1d-sine").q_true
    mid = fem.interpolate(m, VH, q).values[1]
    assert mid == pytest.approx(319.0 / 256.0, abs=0.0)


def test_interpolation_l2_order_two():
    errs = []
    for n in (8, 16, 32, 64):
        mesh = generate_interval_mesh(n)
        v = fem.interpolate(mesh, XH, lambda x: np.sin(np.pi * x))
        # oracle: dense quadrature of (sin - interp)^2 on each cell
        xs = mesh.vertices[:, 0]
        err2 = 0.0
        for c in mesh.cells:
            a, b = sorted((xs[c[0]], xs[c[1]]))
            t = np.linspace(0.0, 1.0, 33)
            x = a + t * (b - a)
            nodal = v.extend()
            lin = nodal[c[0]] + (nodal[c[1]] - nodal[c[0]]) * (x - xs[c[0]]) / (xs[c[1]] - xs[c[0]])
            err2 += np.trapezoid((np.sin(np.pi * x) - lin) ** 2, x)
        errs.append(np.sqrt(err2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.2)


def test_l2_project_identity_on_xh():
    m = generate_disk_mesh(0.35)
    rng = np.random.default_rng(0)
    v = Field(m, XH, rng.standard_normal(len(m.interior)))
    # v's P1 representation, evaluated at the quadrature points: the
    # quadrature is exact for P1 x P1, so the projection returns v
    p = fem.l2_project(m, lambda x, y: fem.evaluate_at_points(v, np.column_stack([x, y])))
    assert np.abs(p.values - v.values).max() <= 1e-10


def test_l2_project_constant_boundary_pollution():
    # projecting 1 onto X_h: interior values approach 1 away from the
    # boundary, with a visible boundary layer; oracle is a dense solve of
    # the same mass system built from the known stencil
    n = 64
    m = generate_interval_mesh(n)
    p = fem.l2_project(m, lambda x: np.ones_like(x))
    h = 1.0 / n
    mass = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        mass[i, i] = 2 * h / 3
        if i > 0:
            mass[i, i - 1] = mass[i - 1, i] = h / 6
    oracle = np.linalg.solve(mass, np.full(n - 1, h))
    np.testing.assert_allclose(p.values, oracle, atol=1e-12)
    middle = p.values[n // 2 - 8: n // 2 + 8]
    np.testing.assert_allclose(middle, 1.0, atol=1e-10)
    assert abs(p.values[0] - 1.0) > 0.1


def test_l2_project_order_two():
    # true L2 error of the projection by dense per-cell quadrature
    u0 = lambda x: x * (1.0 - x)
    errs = []
    for n in (8, 16, 32, 64):
        mesh = generate_interval_mesh(n)
        p = fem.l2_project(mesh, u0)
        nodal = p.extend()
        xs = mesh.vertices[:, 0]
        err2 = 0.0
        for c in mesh.cells:
            t = np.linspace(0.0, 1.0, 33)
            x = xs[c[0]] + t * (xs[c[1]] - xs[c[0]])
            lin = nodal[c[0]] + (nodal[c[1]] - nodal[c[0]]) * t
            err2 += np.trapezoid((u0(x) - lin) ** 2, x)
        errs.append(np.sqrt(err2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.2)


def test_norms_zero_field():
    m = generate_disk_mesh(0.4)
    z = Field(m, XH, np.zeros(len(m.interior)))
    assert fem.norm_l2(z) == 0.0
    assert fem.seminorm_h1(z) == 0.0
    assert fem.norm_linf(z) == 0.0
    assert fem.seminorm_w1inf(z) == 0.0
    empty = Field(generate_interval_mesh(1), XH, np.zeros(0))  # no interior vertex
    assert fem.norm_linf(empty) == 0.0


def test_norms_linear_function():
    m = generate_interval_mesh(16)
    v = fem.interpolate(m, VH, lambda x: x)
    assert fem.seminorm_h1(v) == pytest.approx(1.0, rel=1e-12)
    assert fem.seminorm_w1inf(v) == pytest.approx(1.0, rel=1e-12)
    assert fem.norm_linf(v) == pytest.approx(1.0)


def test_norm_l2_sine():
    errs = []
    for n in (16, 32, 64):
        mesh = generate_interval_mesh(n)
        v = fem.interpolate(mesh, VH, lambda x: np.sin(np.pi * x))
        errs.append(abs(fem.norm_l2(v) - np.sqrt(0.5)))
    assert errs[-1] <= 1e-3
    assert errs[0] > errs[-1]


@pytest.mark.parametrize("mesh", [generate_interval_mesh(1), generate_interval_mesh(9),
                                  generate_disk_mesh(0.25)],
                         ids=["interval-1", "interval-9", "disk"])
def test_assembly_is_bit_identical_to_coo_reference(mesh):
    # the fixed pattern sums each entry's cell contributions in the order
    # scipy's COO-to-CSR conversion does, so no result changes by a bit
    geo = fem.geometry(mesh)
    q = 0.5 + np.random.default_rng(3).random(mesh.n_vertices)
    for space in (VH, XH):
        dof = geo.dofs[space]
        rows = np.repeat(dof[mesh.cells], mesh.dim + 1, axis=1).ravel()
        cols = np.tile(dof[mesh.cells], (1, mesh.dim + 1)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        n = fem.n_dofs(mesh, space)
        for got, local in ((fem.assemble_mass(mesh, space), geo.local_mass()),
                           (fem._stiffness_with_coeff(mesh, space, q),
                            geo.local_stiffness(q))):
            ref = sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                                shape=(n, n)).tocsr()
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)


def reference_pattern(cells, dof):
    # the pattern built from int64 keys and a float64 position key, as
    # fem._pattern first built it
    n = np.count_nonzero(dof >= 0)
    nloc = cells.shape[1]
    rows = np.repeat(dof[cells], nloc, axis=1).ravel()
    cols = np.tile(dof[cells], (1, nloc)).ravel()
    kept = np.flatnonzero((rows >= 0) & (cols >= 0))
    by_row = kept[np.argsort(rows[kept], kind="stable")]
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=n))])
    order = sp.csr_matrix((np.arange(len(by_row), dtype=float), cols[by_row], row_ptr),
                          shape=(n, n))
    order.sort_indices()
    entries = by_row[order.data.astype(np.int64)]
    keys = rows[entries] * n + cols[entries]
    first = np.diff(keys, prepend=-1) != 0
    unique = keys[first]
    slots = np.cumsum(first) - 1
    indptr = np.searchsorted(unique // n, np.arange(n + 1))
    return tuple(a.astype(np.int32) for a in (entries, slots, unique % n, indptr))


@pytest.mark.parametrize("mesh", [generate_interval_mesh(n) for n in (1, 9, 1600)]
                         + [generate_disk_mesh(h) for h in (0.3, 0.1, 0.05, 0.035)],
                         ids=lambda mesh: f"{mesh.domain}-{mesh.n_vertices}")
def test_pattern_matches_reference(mesh):
    # disk rows hold about 18 entries, past the 16 up to which std::sort
    # keeps ties in order, so the order among duplicates is scipy's own
    for space in (VH, XH):
        dof = fem.geometry(mesh).dofs[space]
        got = fem._pattern(mesh.cells, dof)
        for a, b in zip(got, reference_pattern(mesh.cells, dof)):
            assert a.dtype == np.int32
            assert np.array_equal(a, b)


def test_geometry_peaks_within_twice_what_it_keeps():
    mesh = generate_disk_mesh(0.05)
    fem.geometry(generate_disk_mesh(0.3))  # first-call allocations of numpy and scipy
    tracemalloc.start()
    try:
        geo = fem.Geometry(mesh)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert geo.mass[XH].shape == (len(mesh.interior),) * 2
    assert peak <= 2 * kept


def test_geometry_lives_as_long_as_its_mesh():
    mesh = generate_disk_mesh(0.4)
    geo = weakref.ref(fem.geometry(mesh))
    assert fem.geometry(mesh) is geo()
    fem.l2_project(mesh, 1.0)  # builds the X_h factor layout too
    del mesh
    assert geo() is None


def test_field_dump_round_trip(tmp_path):
    m = generate_disk_mesh(0.4)
    rng = np.random.default_rng(2)
    for space in (VH, XH):
        v = Field(m, space, rng.standard_normal(fem.n_dofs(m, space)))
        path = tmp_path / f"{space}.field"
        fem.save_field(v, path, name="test", mesh_file="m.mesh")
        back = fem.load_field(path, m)
        assert back.space == space
        assert np.array_equal(back.values, v.values)


@pytest.mark.parametrize("header", ["", "# space W_h\n", "# space\n"])
def test_field_dump_without_a_valid_space_header_rejected(tmp_path, header):
    m = generate_interval_mesh(2)
    path = tmp_path / "bad.field"
    path.write_text(f"# field u\n{header}0 1.0\n1 2.0\n2 3.0\n")
    with pytest.raises(ValueError, match="lacks a valid '# space' header"):
        fem.load_field(path, m)


def test_evaluate_at_points_matches_vertices():
    for mesh in (generate_interval_mesh(10), generate_disk_mesh(0.3)):
        rng = np.random.default_rng(3)
        v = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
        vals = fem.evaluate_at_points(v, mesh.vertices)
        np.testing.assert_allclose(vals, v.values, atol=1e-12)


def test_evaluate_at_points_linear_exact():
    m = generate_disk_mesh(0.3)
    v = fem.interpolate(m, VH, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
    pts = np.array([[0.1, 0.2], [-0.3, 0.5], [0.0, 0.0]])
    vals = fem.evaluate_at_points(v, pts)
    np.testing.assert_allclose(vals, 2 * pts[:, 0] - 3 * pts[:, 1] + 1.0, atol=1e-12)


def reference_scan(v, points):
    # every cell tried for every point, as fem.evaluate_at_points first did,
    # with the barycentric coordinates e_0 + G_c (x - p_0) from the cell's
    # basis gradients G_c
    mesh, nodal = v.mesh, v.extend()
    p0, grads = mesh.vertices[mesh.cells[:, 0]], fem.geometry(mesh).gradients
    out = np.empty(len(points))
    for i, pt in enumerate(points):
        r = pt - p0
        lam = grads[:, :, 0] * r[:, :1] + grads[:, :, 1] * r[:, 1:]
        lam[:, 0] += 1.0
        c = int(np.argmax(lam.min(axis=1)))
        lam = np.clip(lam[c], 0.0, None)
        lam /= lam.sum()
        out[i] = lam @ nodal[mesh.cells[c]]
    return out


def test_evaluate_at_points_is_the_full_scan_bit_for_bit():
    # the sweep's transfer: the fine disk's states at the coarse vertices;
    # on the fine vertices cells tie, and random points leave the disk, where
    # no bucket cell holds them and the search scans every cell
    fine, coarse = generate_disk_mesh(0.05), generate_disk_mesh(0.1)
    v = Field(fine, XH, np.random.default_rng(4).standard_normal(len(fine.interior)))
    for points in (coarse.vertices[coarse.interior], coarse.vertices, fine.vertices,
                   np.random.default_rng(5).uniform(-1.05, 1.05, (400, 2))):
        assert np.array_equal(fem.evaluate_at_points(v, points), reference_scan(v, points))


@pytest.mark.parametrize("mesh", [generate_interval_mesh(10), generate_disk_mesh(0.3)],
                         ids=["interval", "disk"])
def test_evaluate_at_points_checks_its_input(mesh):
    v = Field(mesh, VH, np.ones(mesh.n_vertices))
    empty = fem.evaluate_at_points(v, np.empty((0, mesh.dim)))
    assert empty.shape == (0,)
    for bad in (np.zeros((2, mesh.dim + 1)), np.zeros((2, 3 - mesh.dim)), np.zeros(2),
                np.zeros(0), np.full((1, mesh.dim), np.nan), np.full((1, mesh.dim), np.inf)):
        with pytest.raises(ValueError, match=rf"shape \({len(bad)}"):
            fem.evaluate_at_points(v, bad)


def test_galerkin_orthogonality_poisson():
    # discrete Poisson solve: residual of the weak form vanishes on X_h
    from fracinv import linalg
    m = generate_interval_mesh(32)
    q = Field(m, VH, 1.0 + 0.3 * m.vertices[:, 0])
    k = fem.assemble_stiffness(m, XH, q)
    f_load = fem.load_vector(m, XH, lambda x: np.ones_like(x))
    u = linalg.factorize(k).solve(f_load)
    residual = k @ u - f_load
    assert np.abs(residual).max() <= 1e-12 * np.abs(f_load).max()
