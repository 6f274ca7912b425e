import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse import csgraph

from fracinv import fem, linalg
from fracinv.errors import NotSpdError
from fracinv.fem import VH, XH, Field
from fracinv.mesh import generate_disk_mesh, generate_interval_mesh


def test_identity_solve():
    solver = linalg.factorize(sp.identity(7, format="csr"))
    b = np.arange(7.0)
    np.testing.assert_array_equal(solver.solve(b), b)


def test_zero_rhs():
    a = sp.diags([2.0, 3.0, 4.0]).tocsr()
    x = linalg.factorize(a).solve(np.zeros(3))
    assert np.array_equal(x, np.zeros(3))


def test_discrete_poisson_against_analytic():
    # K(1) u = M (pi^2 sin(pi x)) reproduces sin(pi x) to O(h^2)
    m = generate_interval_mesh(8)
    k = fem.assemble_stiffness(m, XH, Field(m, VH, np.ones(m.n_vertices)))
    rhs = fem.load_vector(m, XH, lambda x: np.pi ** 2 * np.sin(np.pi * x))
    u = linalg.factorize(k).solve(rhs)
    exact = fem.interpolate(m, XH, lambda x: np.sin(np.pi * x)).values
    assert np.abs(u - exact).max() <= 0.5 * m.h ** 2 * np.pi ** 2


def test_indefinite_matrix_rejected():
    a = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(NotSpdError):
        linalg.factorize(a)
    # symmetric with a positive diagonal, so only the factorization finds it singular
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotSpdError, match="factorization broke down"):
        linalg.factorize(singular)


def test_nonsquare_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        linalg.factorize(sp.csr_matrix(np.ones((2, 3))))


def test_nonsymmetric_matrix_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(NotSpdError):
        linalg.factorize(a)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_symmetry_threshold_is_relative(scale):
    def skewed(rel):
        return sp.csr_matrix(scale * np.array([[4.0, 1.0 + rel], [1.0, 4.0]]))
    linalg.factorize(skewed(1e-13))
    with pytest.raises(NotSpdError, match="not symmetric"):
        linalg.factorize(skewed(1e-11))


def test_random_spd_residual_contract():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, 50))
    spd = sp.csr_matrix(a.T @ a + 50 * np.eye(50))
    solver = linalg.factorize(spd)
    for _ in range(5):
        b = rng.standard_normal(50)
        x = solver.solve(b)
        assert np.linalg.norm(spd @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_direct_determinism():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20))
    spd = sp.csr_matrix(a.T @ a + 20 * np.eye(20))
    b = rng.standard_normal(20)
    x1 = linalg.factorize(spd).solve(b)
    x2 = linalg.factorize(spd).solve(b)
    assert np.array_equal(x1, x2)


def test_factorization_reuse_matches_fresh():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((30, 30))
    spd = sp.csr_matrix(a.T @ a + 30 * np.eye(30))
    solver = linalg.factorize(spd)
    for _ in range(8):
        b = rng.standard_normal(30)
        np.testing.assert_allclose(solver.solve(b),
                                   linalg.factorize(spd).solve(b),
                                   rtol=0, atol=1e-12)


def test_manufactured_solution_recovery():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 40))
    spd = sp.csr_matrix(a.T @ a + 40 * np.eye(40))
    x0 = rng.standard_normal(40)
    x = linalg.factorize(spd).solve(spd @ x0)
    assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)


def test_permuted_tridiagonal_matrix_is_band_factored():
    # wider than tridiagonal in its own order, bandwidth 1 in the band order
    rng = np.random.default_rng(8)
    tri = sp.diags([-np.ones(29), 4.0 * np.ones(30), -np.ones(29)], [-1, 0, 1])
    perm = sp.identity(30, format="csr")[rng.permutation(30)]
    a = sp.csr_matrix((perm @ tri @ perm.T).toarray())  # canonical
    layout = linalg.FactorLayout(a.indptr, a.indices)
    assert layout.order is not None and layout.kd == 1
    b = rng.standard_normal(30)
    x = linalg.factorize(a, layout).solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_dimension_mismatch():
    solver = linalg.factorize(sp.identity(3, format="csr"))
    with pytest.raises(ValueError):
        solver.solve(np.ones(4))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_entry_rejected(bad):
    with pytest.raises(NotSpdError, match="non-finite"):
        linalg.factorize(sp.diags([bad, 1.0]))
    a = np.array([[4.0, bad], [bad, 4.0]])
    with pytest.raises(NotSpdError, match="non-finite"):
        linalg.factorize(sp.csr_matrix(a))


def _system_data(mesh, q, scale):
    k = fem.assemble_stiffness(mesh, XH, Field(mesh, VH, q))
    return scale * fem.geometry(mesh).mass[XH].data + k.data


def _on_xh_pattern(mesh, data):
    matrix = fem.geometry(mesh).mass[XH].copy()
    matrix.data = data
    return matrix


@pytest.mark.parametrize("make_mesh", [lambda: generate_interval_mesh(40),
                                       lambda: generate_disk_mesh(0.15)],
                         ids=["interval", "disk"])
def test_layout_solutions_equal_plain_splu(make_mesh, monkeypatch):
    # the first factorization on the X_h pattern builds its layout, and
    # later ones reuse it.  The interval's tridiagonal pattern gets a
    # SuperLU splu per factorization, and every solution stays bit for
    # bit that of a default splu.  The disk's is
    # ordered once by reverse Cuthill-McKee and band-factored, and every
    # solution matches a dense solve
    orderings = []
    ordering = csgraph.reverse_cuthill_mckee
    monkeypatch.setattr(csgraph, "reverse_cuthill_mckee",
                        lambda *args, **kw: orderings.append(args) or ordering(*args, **kw))
    mesh = make_mesh()
    rng = np.random.default_rng(3)
    geo = fem.geometry(mesh)
    assert XH not in geo.layouts
    datas = [_system_data(mesh, 0.5 + 2.0 * rng.random(mesh.n_vertices), s)
             for s in (1.0, 37.0, 1e4)] + [geo.mass[XH].data]
    for data in datas:
        b = rng.standard_normal(len(geo.interior))
        solver = geo.factorize(XH, data)
        layout = geo.layouts[XH]
        if mesh.dim == 1:
            assert layout.order is None
            plain = spla.splu(_on_xh_pattern(mesh, data).tocsc())
            assert np.array_equal(solver.solve(b), plain.solve(b))
        else:
            assert layout.order is not None
            dense = np.linalg.solve(_on_xh_pattern(mesh, data).toarray(), b)
            assert np.linalg.norm(solver.solve(b) - dense) <= 1e-12 * np.linalg.norm(dense)
    assert geo.layouts[XH] is layout
    assert len(orderings) == (0 if mesh.dim == 1 else 1)


def test_layout_path_rejections():
    mesh = generate_disk_mesh(0.3)
    geo = fem.geometry(mesh)
    good = _on_xh_pattern(mesh, _system_data(mesh, np.ones(mesh.n_vertices), 10.0))
    geo.factorize(XH, good.data)
    layout = geo.layouts[XH]
    skewed = good.copy()
    off_diagonal = np.flatnonzero(layout.transpose[:-1] != np.arange(good.nnz))
    skewed.data[off_diagonal[0]] *= 1.0 + 1e-9
    with pytest.raises(NotSpdError, match="not symmetric"):
        linalg.factorize(skewed, layout)
    negative = good.copy()
    negative.data[layout.diagonal[2]] = -1.0
    with pytest.raises(NotSpdError, match="nonpositive diagonal"):
        linalg.factorize(negative, layout)
    indefinite = geo.mass[XH].copy()  # diagonal minimum 0.017, eigenvalue minimum -0.037
    indefinite.data[off_diagonal] *= -3.0
    with pytest.raises(NotSpdError, match="not positive definite"):
        linalg.factorize(indefinite, layout)
    with pytest.raises(ValueError, match="pattern"):
        linalg.factorize(geo.mass[VH], layout)
    with pytest.raises(ValueError, match="pattern"):
        linalg.factorize(sp.diags(good.diagonal()), layout)


def test_structurally_missing_diagonal_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    a.eliminate_zeros()
    assert a.nnz == 6  # no stored entry at (1, 1)
    with pytest.raises(NotSpdError, match="nonpositive diagonal"):
        linalg.factorize(a)
    layout = linalg.FactorLayout(a.indptr, a.indices)
    assert layout.diagonal[1] == -1  # the slot standing for an absent entry
    with pytest.raises(NotSpdError, match="nonpositive diagonal"):
        linalg.factorize(a, layout)


def test_layout_lives_with_its_mesh():
    mesh = generate_interval_mesh(20)
    fem.l2_project(mesh, 1.0)
    ref = weakref.ref(fem.geometry(mesh).layouts[XH])
    del mesh
    gc.collect()
    assert ref() is None


def _lower_band(dense, kd):
    n = len(dense)
    ab = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        ab[d, :n - d] = np.diagonal(dense, -d)
    return ab


def _dense_lower(ab):
    # L from lower band storage: entry (d, r) is L[r + d, r]
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for d in range(ab.shape[0]):
        dense[np.arange(d, n), np.arange(n - d)] = ab[d, :n - d]
    return dense


def _dense_upper(ab):
    # U from upper band storage: entry (kd - s, c) is U[c - s, c]
    kd, n = ab.shape[0] - 1, ab.shape[1]
    dense = np.zeros((n, n))
    for s in range(kd + 1):
        dense[np.arange(n - s), np.arange(s, n)] = ab[kd - s, s:]
    return dense


def _full_spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _permuted_tridiagonal():
    tri = sp.diags([-np.ones(29), 4.0 * np.ones(30), -np.ones(29)], [-1, 0, 1])
    perm = sp.identity(30, format="csr")[np.random.default_rng(8).permutation(30)]
    return sp.csr_matrix((perm @ tri @ perm.T).toarray())


def _disk_system():
    mesh = generate_disk_mesh(0.15)
    return _on_xh_pattern(mesh, _system_data(mesh, 1.0 + np.random.default_rng(4).random(
        mesh.n_vertices), 37.0))


@pytest.mark.parametrize("n, kd", [(2, 1), (6, 5), (9, 4), (9, 1)])
def test_band_read_out_gives_the_transposed_factor(n, kd):
    # lower entry (d, r) moves to upper entry (kd - d, r + d), for an even
    # and an odd number of band rows and for full bands (kd = n - 1); a 2x2
    # matrix is tridiagonal, so factorize hands it to SuperLU instead
    dense = _full_spd(n, kd)
    dense[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kd] = 0.0
    lower, info = lapack.dpbtrf(_lower_band(dense, kd), lower=1)
    assert info == 0
    upper = linalg._upper_from_lower(lower.copy(order="F"))
    assert upper.flags.f_contiguous
    assert np.array_equal(_dense_upper(upper), _dense_lower(lower).T)
    b = np.random.default_rng(n).standard_normal(n)
    x, info = lapack.dpbtrs(upper, b, lower=0)
    assert info == 0
    exact = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("make_matrix", [_permuted_tridiagonal,
                                         lambda: sp.csr_matrix(_full_spd(6, 9)),
                                         _disk_system],
                         ids=["permuted-tridiagonal", "full-6", "disk-0.15"])
def test_band_solver_holds_the_upper_transpose_of_the_lower_factor(make_matrix):
    # the solver keeps dpbtrf's lower factor L of the reordered matrix, bit
    # for bit, as L^T in upper band storage, and solves from it
    a = make_matrix()
    layout = linalg.FactorLayout(a.indptr, a.indices)
    assert layout.order is not None
    solver = linalg.factorize(a, layout)
    reordered = a.toarray()[np.ix_(layout.order, layout.order)]
    lower, info = lapack.dpbtrf(_lower_band(reordered, layout.kd), lower=1)
    assert info == 0
    assert solver._factor.shape == (layout.kd + 1, a.shape[0])
    assert np.array_equal(_dense_upper(solver._factor), _dense_lower(lower).T)
    b = np.random.default_rng(2).standard_normal(a.shape[0])
    exact = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(solver.solve(b) - exact) <= 1e-12 * np.linalg.norm(exact)
