import numpy as np
import pytest
import scipy.sparse as sp

from fracinv import fem, linalg
from fracinv.errors import NotSpdError
from fracinv.fem import VH, XH, Field
from fracinv.mesh import generate_interval_mesh


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


def test_nonsymmetric_matrix_rejected():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(NotSpdError):
        linalg.factorize(a)


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


def test_dimension_mismatch():
    solver = linalg.factorize(sp.identity(3, format="csr"))
    with pytest.raises(ValueError):
        solver.solve(np.ones(4))
