import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.special import binom

from fracinv import fem, linalg, timestep
from fracinv.fem import VH, XH, Field
from fracinv.mesh import generate_disk_mesh, generate_interval_mesh
from fracinv.timestep import (TimeGrid, cq_weights, discrete_frac_derivative,
                              solve_adjoint, solve_forward, solve_sensitivity)


# While collecting, hypothesis caches the literals it finds in local modules
# under .hypothesis/, example database or not; keep that out of the tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "fracinv-hypothesis")


def unit_coefficient(mesh):
    return Field(mesh, VH, np.ones(mesh.n_vertices))


def u0_parabola(x):
    return x * (1.0 - x)


class TestCqWeights:
    def test_alpha_one_is_first_difference(self):
        w = cq_weights(1.0, 3)
        np.testing.assert_array_equal(w.b, [1.0, -1.0, 0.0, 0.0])

    def test_half_order_closed_form(self):
        w = cq_weights(0.5, 3)
        np.testing.assert_allclose(w.b, [1.0, -0.5, -0.125, -0.0625], rtol=1e-15)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_recurrence_matches_binomial(self, alpha):
        n = 200
        w = cq_weights(alpha, n)
        j = np.arange(n + 1)
        closed = (-1.0) ** j * binom(alpha, j)
        np.testing.assert_allclose(w.b, closed, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_signs_and_partial_sums(self, alpha):
        w = cq_weights(alpha, 200)
        assert w.b[0] == 1.0
        assert (w.b[1:] < 0.0).all()
        s = w.partial_sums
        assert (s > 0.0).all()
        assert (np.diff(s) < 0.0).all()

    def test_partial_sums_decay(self):
        s2 = cq_weights(0.5, 2).partial_sums[-1]
        s20 = cq_weights(0.5, 20).partial_sums[-1]
        s200 = cq_weights(0.5, 200).partial_sums[-1]
        assert s200 < s20 < s2

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            cq_weights(0.0, 3)
        with pytest.raises(ValueError):
            cq_weights(1.5, 3)


class TestForward:
    def test_zero_data_zero_solution(self):
        mesh = generate_interval_mesh(8)
        traj = solve_forward(mesh, unit_coefficient(mesh), 0.0, 0.0, 0.5,
                             TimeGrid(1.0, 5))
        assert np.abs(traj.values).max() == 0.0

    def test_heat_equation_analytic(self):
        # alpha = 1, q = 1, f = 0: u(T) = exp(-pi^2 T) sin(pi x)
        mesh = generate_interval_mesh(200)
        T = 0.1
        errs = []
        for n in (10, 20, 40):
            traj = solve_forward(mesh, unit_coefficient(mesh),
                                 lambda x: np.sin(np.pi * x), 0.0, 1.0,
                                 TimeGrid(T, n))
            exact = fem.interpolate(mesh, XH,
                                    lambda x: np.exp(-np.pi ** 2 * T) * np.sin(np.pi * x))
            errs.append(fem.norm_l2(Field(mesh, XH,
                                          traj.terminal.values - exact.values)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 0.9)

    def test_alpha_one_matches_independent_backward_euler(self):
        # independent oracle: classical backward Euler coded from scratch
        mesh = generate_interval_mesh(40)
        q = Field(mesh, VH, 1.0 + 0.5 * mesh.vertices[:, 0])
        grid = TimeGrid(0.5, 16)
        traj = solve_forward(mesh, q, u0_parabola, 1.0, 1.0, grid)

        mass = fem.assemble_mass(mesh, XH)
        stiff = fem.assemble_stiffness(mesh, XH, q)
        load = fem.load_vector(mesh, XH, 1.0)
        lu = sp.linalg.splu((mass / grid.tau + stiff).tocsc())
        u = fem.l2_project(mesh, u0_parabola).values
        for n in range(1, grid.N + 1):
            u = lu.solve(load + mass @ u / grid.tau)
            scale = max(np.abs(u).max(), 1e-300)
            assert np.abs(traj.values[n] - u).max() <= 1e-13 * scale

    def test_stability_probe(self):
        # f = 0: the L2 norm never exceeds the initial one
        mesh = generate_interval_mesh(50)
        mass = fem.assemble_mass(mesh, XH)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            traj = solve_forward(mesh, unit_coefficient(mesh),
                                 lambda x: np.sin(3 * np.pi * x) + x * (1 - x),
                                 0.0, alpha, TimeGrid(2.0, 60))
            norms = np.sqrt(np.einsum("ni,ni->n", traj.values,
                                      traj.values @ mass.toarray()))
            assert (norms <= norms[0] * (1.0 + 1e-10)).all()

    def test_exactly_n_linear_solves(self, monkeypatch):
        calls = []
        original = linalg.SpdSolver.solve

        def counting(self, b):
            calls.append(self)
            return original(self, b)

        monkeypatch.setattr(linalg.SpdSolver, "solve", counting)
        mesh = generate_interval_mesh(16)
        n_steps = 9
        solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, 0.5,
                      TimeGrid(1.0, n_steps))
        # one projection solve for U^0, then one solve per time step
        stepper = calls[-1]
        assert sum(1 for s in calls if s is stepper) == n_steps

    def test_rejects_bad_coefficient(self):
        mesh = generate_interval_mesh(8)
        q = Field(mesh, VH, np.full(mesh.n_vertices, -1.0))
        from fracinv.errors import InvalidCoefficientError
        with pytest.raises(InvalidCoefficientError):
            solve_forward(mesh, q, u0_parabola, 1.0, 0.5, TimeGrid(1.0, 4))


class TestSensitivity:
    def setup_method(self):
        self.mesh = generate_interval_mesh(40)
        rng = np.random.default_rng(4)
        self.q = Field(self.mesh, VH, 1.0 + 0.3 * rng.random(self.mesh.n_vertices))
        self.alpha = 0.5
        self.grid = TimeGrid(1.0, 12)
        self.traj = solve_forward(self.mesh, self.q, u0_parabola, 1.0,
                                  self.alpha, self.grid)

    def test_zero_direction(self):
        d = fem.zero_field(self.mesh, VH)
        sens = solve_sensitivity(self.traj, d, self.alpha, self.grid)
        assert np.abs(sens.values).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        d = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))
        w1 = solve_sensitivity(self.traj, d, self.alpha, self.grid)
        d2 = Field(self.mesh, VH, 2.0 * d.values)
        w2 = solve_sensitivity(self.traj, d2, self.alpha, self.grid)
        np.testing.assert_allclose(w2.values, 2.0 * w1.values, atol=1e-12)

    def test_central_difference_oracle(self):
        rng = np.random.default_rng(6)
        d = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))
        sens = solve_sensitivity(self.traj, d, self.alpha, self.grid)
        errs = []
        for eps in (1e-3, 1e-4):
            qp = Field(self.mesh, VH, self.q.values + eps * d.values)
            qm = Field(self.mesh, VH, self.q.values - eps * d.values)
            up = solve_forward(self.mesh, qp, u0_parabola, 1.0, self.alpha, self.grid)
            um = solve_forward(self.mesh, qm, u0_parabola, 1.0, self.alpha, self.grid)
            fd = (up.terminal.values - um.terminal.values) / (2.0 * eps)
            errs.append(fem.norm_l2(Field(self.mesh, XH,
                                          fd - sens.terminal.values)))
        # central differences converge at second order in eps
        assert errs[1] <= errs[0] * 1e-2 * 1.5

    def test_grid_mismatch_rejected(self):
        d = fem.zero_field(self.mesh, VH)
        with pytest.raises(ValueError):
            solve_sensitivity(self.traj, d, self.alpha, TimeGrid(1.0, 13))


class TestAdjoint:
    def setup_method(self):
        self.mesh = generate_interval_mesh(30)
        rng = np.random.default_rng(7)
        self.q = Field(self.mesh, VH, 1.0 + 0.4 * rng.random(self.mesh.n_vertices))
        self.alpha = 0.4
        self.grid = TimeGrid(1.0, 10)
        self.traj = solve_forward(self.mesh, self.q, u0_parabola, 1.0,
                                  self.alpha, self.grid)
        self.rng = rng

    def test_zero_residual(self):
        adj = solve_adjoint(self.traj, self.alpha, self.grid,
                            fem.zero_field(self.mesh, XH))
        assert np.abs(adj.states.values).max() == 0.0
        assert np.abs(adj.misfit_gradient.values).max() == 0.0

    @settings(database=None, derandomize=True, max_examples=40, deadline=None)
    @given(disk=st.booleans(), size=st.integers(2, 24),
           alpha=st.floats(0.0, 1.0, exclude_min=True), n_steps=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_duality_identity(self, disk, size, alpha, n_steps, seed):
        # (r, W^N(d)) equals the adjoint-assembled dual vector paired with d,
        # on interval and disk meshes, for any order and step count
        mesh = generate_disk_mesh(1.0 / min(size, 5)) if disk else generate_interval_mesh(size)
        rng = np.random.default_rng(seed)
        q = Field(mesh, VH, 1.0 + 0.4 * rng.random(mesh.n_vertices))
        grid = TimeGrid(1.0, n_steps)
        u0 = lambda *x: 1.0 - sum(c * c for c in x)
        traj = solve_forward(mesh, q, u0, 1.0, alpha, grid)
        r = Field(mesh, XH, rng.standard_normal(len(mesh.interior)))
        adj = solve_adjoint(traj, alpha, grid, r)
        mass = fem.assemble_mass(mesh, XH)
        for _ in range(3):
            d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
            sens = solve_sensitivity(traj, d, alpha, grid)
            lhs = float(r.values @ (mass @ sens.terminal.values))
            rhs = float(adj.misfit_gradient.values @ d.values)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_reused_factor_must_match_the_march(self):
        r = fem.zero_field(self.mesh, XH)
        d = fem.zero_field(self.mesh, VH)
        with pytest.raises(ValueError, match="alpha"):
            solve_adjoint(self.traj, 0.5, self.grid, r)
        with pytest.raises(ValueError, match="alpha"):
            solve_sensitivity(self.traj, d, 0.5, self.grid)
        sens = solve_sensitivity(self.traj, d, self.alpha, self.grid)
        with pytest.raises(ValueError, match="factorized system"):
            solve_adjoint(sens, self.alpha, self.grid, r)

    def test_alpha_one_matches_classical_adjoint(self):
        # independent oracle: backward-in-time parabolic adjoint recursion
        grid = TimeGrid(0.8, 12)
        traj = solve_forward(self.mesh, self.q, u0_parabola, 1.0, 1.0, grid)
        r = Field(self.mesh, XH, self.rng.standard_normal(len(self.mesh.interior)))
        adj = solve_adjoint(traj, 1.0, grid, r)

        mass = fem.assemble_mass(self.mesh, XH)
        stiff = fem.assemble_stiffness(self.mesh, XH, self.q)
        lu = sp.linalg.splu((mass / grid.tau + stiff).tocsc())
        v = lu.solve(mass @ r.values)
        for n in range(grid.N, 0, -1):
            np.testing.assert_allclose(adj.states.values[n], v, rtol=0,
                                       atol=1e-12 * max(np.abs(v).max(), 1e-300))
            v = lu.solve(mass @ v / grid.tau)


class TestFracDerivative:
    def test_constant_trajectory_zero(self):
        mesh = generate_interval_mesh(10)
        grid = TimeGrid(1.0, 6)
        u0 = fem.l2_project(mesh, u0_parabola)
        values = np.tile(u0.values, (grid.N + 1, 1))
        traj = timestep.Trajectory(mesh, XH, grid, values)
        for d in discrete_frac_derivative(traj, 0.5):
            assert np.abs(d.values).max() <= 1e-14

    def test_alpha_one_is_backward_difference(self):
        mesh = generate_interval_mesh(12)
        grid = TimeGrid(1.0, 8)
        traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0,
                             1.0, grid)
        derivs = discrete_frac_derivative(traj, 1.0)
        for n in range(1, grid.N + 1):
            expect = (traj.values[n] - traj.values[n - 1]) / grid.tau
            np.testing.assert_allclose(derivs[n - 1].values, expect, atol=1e-10)

    def test_scheme_residual_vanishes(self):
        # re-evaluating the scheme after the solve gives zero residual
        mesh = generate_interval_mesh(20)
        q = Field(mesh, VH, 1.0 + 0.2 * mesh.vertices[:, 0])
        grid = TimeGrid(1.0, 9)
        alpha = 0.6
        traj = solve_forward(mesh, q, u0_parabola, 1.0, alpha, grid)
        mass = fem.assemble_mass(mesh, XH)
        stiff = fem.assemble_stiffness(mesh, XH, q)
        load = fem.load_vector(mesh, XH, 1.0)
        derivs = discrete_frac_derivative(traj, alpha)
        for n in range(1, grid.N + 1):
            res = mass @ derivs[n - 1].values + stiff @ traj.values[n] - load
            assert np.abs(res).max() <= 1e-10 * np.abs(load).max()


def test_time_grid_validation():
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TimeGrid(T, 5)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 8)
    assert g.tau == pytest.approx(0.25)
    assert len(g.times) == 9
