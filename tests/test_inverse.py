import numpy as np
import pytest

from fracinv import fem, linalg, timestep
from fracinv.errors import DegenerateDirectionError
from fracinv.fem import VH, XH, Field
from fracinv.inverse import (InverseSpec, StoppingRule, cg_direction,
                             gradient, objective, project_admissible,
                             run_inversion, smooth_direction, step_size)
from fracinv.mesh import generate_interval_mesh
from fracinv.timestep import TimeGrid


def u0(x):
    return x * (1.0 - x)


def make_spec(mesh, alpha=0.5, gamma=1e-8, z=None, n_steps=10, **kw):
    grid = TimeGrid(1.0, n_steps)
    if z is None:
        z = fem.zero_field(mesh, XH)
    return InverseSpec(mesh=mesh, alpha=alpha, grid=grid, u0=u0, f=1.0,
                       z_delta=z, gamma=gamma, **kw)


@pytest.fixture(scope="module")
def setup():
    mesh = generate_interval_mesh(40)
    rng = np.random.default_rng(10)
    q = Field(mesh, VH, 1.0 + 0.2 * rng.random(mesh.n_vertices))
    grid = TimeGrid(1.0, 10)
    traj = timestep.solve_forward(mesh, q, u0, 1.0, 0.5, grid)
    return mesh, q, traj


def test_objective_consistent_data_zero(setup):
    mesh, q, traj = setup
    spec = make_spec(mesh, gamma=0.0, z=traj.terminal)
    J, misfit, penalty = objective(spec, q)
    assert J <= 1e-20
    assert penalty == 0.0


def test_objective_constant_coefficient_zero_penalty(setup):
    mesh, q, traj = setup
    spec = make_spec(mesh, gamma=0.5, z=traj.terminal)
    q_const = Field(mesh, VH, np.full(mesh.n_vertices, 2.0))
    _, _, penalty = objective(spec, q_const)
    assert abs(penalty) <= 1e-12  # constants lie in the stiffness kernel


def test_objective_penalty_linear_in_gamma(setup):
    mesh, q, traj = setup
    spec1 = make_spec(mesh, gamma=1e-4, z=traj.terminal)
    spec2 = make_spec(mesh, gamma=2e-4, z=traj.terminal)
    J1, m1, p1 = objective(spec1, q)
    J2, m2, p2 = objective(spec2, q)
    assert m1 == m2
    assert p2 == pytest.approx(2.0 * p1, rel=1e-14)


def test_gradient_zero_at_consistent_minimum(setup):
    mesh, q, traj = setup
    spec = make_spec(mesh, gamma=0.0, z=traj.terminal)
    g = gradient(spec, q)
    assert np.abs(g.values).max() <= 1e-12


def test_gradient_regularization_vanishes_for_constants(setup):
    mesh, q, traj = setup
    spec = make_spec(mesh, gamma=1.0, z=traj.terminal)
    q_const = Field(mesh, VH, np.full(mesh.n_vertices, 1.5))
    g_reg = gradient(spec, q_const)
    spec0 = make_spec(mesh, gamma=0.0, z=traj.terminal)
    g_mis = gradient(spec0, q_const)
    # penalty contribution = difference of the two; constants lie in the
    # kernel of the stiffness form
    assert np.abs(g_reg.values - g_mis.values).max() <= 1e-12


def test_gradient_matches_central_difference(setup):
    mesh, q, traj = setup
    rng = np.random.default_rng(11)
    z = Field(mesh, XH, traj.terminal.values
              + 0.01 * rng.standard_normal(len(mesh.interior)))
    spec = make_spec(mesh, gamma=1e-8, z=z)
    g = gradient(spec, q)
    for _ in range(5):
        d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
        eps = 1e-4
        qp = Field(mesh, VH, q.values + eps * d.values)
        qm = Field(mesh, VH, q.values - eps * d.values)
        fd = (objective(spec, qp)[0] - objective(spec, qm)[0]) / (2 * eps)
        adj = float(g.values @ d.values)
        assert abs(fd - adj) <= 1e-5 * abs(fd)


def test_smooth_direction_zero_and_energy_identity(setup):
    mesh, q, traj = setup
    zero = fem.zero_field(mesh, VH)
    assert np.abs(smooth_direction(mesh, zero).values).max() == 0.0
    rng = np.random.default_rng(12)
    raw = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
    g = smooth_direction(mesh, raw)
    # (-raw, g) equals the full H1 inner product of g with itself: >= 0
    energy = float(-raw.values @ g.values)
    mass = fem.assemble_mass(mesh, VH)
    stiff = fem._stiffness_with_coeff(mesh, VH, np.ones(mesh.n_vertices))
    expect = float(g.values @ (mass @ g.values) + g.values @ (stiff @ g.values))
    assert energy == pytest.approx(expect, rel=1e-10)
    assert energy >= 0.0


def test_smooth_direction_reduces_oscillation(setup):
    # smoothed descent direction oscillates less than the mass-preconditioned
    # raw gradient on a noisy-data instance
    mesh, q, traj = setup
    rng = np.random.default_rng(13)
    z = Field(mesh, XH, traj.terminal.values
              + 0.05 * rng.standard_normal(len(mesh.interior)))
    spec = make_spec(mesh, gamma=0.0, z=z)
    raw = gradient(spec, spec.q_init)
    g = smooth_direction(mesh, raw)
    from fracinv import linalg
    mass = fem.assemble_mass(mesh, VH)
    precond = linalg.factorize(mass).solve(-raw.values)

    def total_variation(v):
        return np.abs(np.diff(v / max(np.abs(v).max(), 1e-300))).sum()

    assert total_variation(g.values) < total_variation(precond)


class TestCgDirection:
    def setup_method(self):
        self.mesh = generate_interval_mesh(16)
        rng = np.random.default_rng(14)
        self.g = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))
        self.d = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))

    def test_first_iteration_is_gradient(self):
        assert cg_direction(self.g, None, None, 0) is self.g

    def test_equal_gradients_gives_beta_one(self):
        d = cg_direction(self.g, self.g, self.d, 3)
        np.testing.assert_allclose(d.values, self.d.values + self.g.values,
                                   rtol=1e-12)

    def test_zero_previous_gradient_restarts(self):
        zero = fem.zero_field(self.mesh, VH)
        assert cg_direction(self.g, zero, self.d, 2) is self.g

    def test_growing_gradient_restarts(self):
        small = Field(self.mesh, VH, 0.1 * self.g.values)
        assert cg_direction(self.g, small, self.d, 2) is self.g


class TestStepSize:
    def test_consistent_data_zero_step(self, setup):
        mesh, q, traj = setup
        spec = make_spec(mesh, gamma=0.0, z=traj.terminal)
        rng = np.random.default_rng(15)
        d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
        s = step_size(spec, q, d, traj)
        assert abs(s) <= 1e-8

    def test_penalty_dominated_limit(self, setup):
        # constant q with huge gamma: numerator keeps only the misfit term,
        # denominator grows with gamma, so s -> 0
        mesh, q, traj = setup
        rng = np.random.default_rng(16)
        z = Field(mesh, XH, traj.terminal.values + 0.01)
        q_const = Field(mesh, VH, np.full(mesh.n_vertices, 1.2))
        d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
        traj_c = timestep.solve_forward(mesh, q_const, u0, 1.0, 0.5,
                                        TimeGrid(1.0, 10))
        s_small = step_size(make_spec(mesh, gamma=1.0, z=z), q_const, d, traj_c)
        s_large = step_size(make_spec(mesh, gamma=1e6, z=z), q_const, d, traj_c)
        assert abs(s_large) < abs(s_small) * 1e-3

    def test_degenerate_direction_raises(self):
        # zero trajectory: every direction has zero sensitivity, and with
        # gamma = 0 the model denominator vanishes
        mesh = generate_interval_mesh(16)
        grid = TimeGrid(1.0, 5)
        q = Field(mesh, VH, np.ones(mesh.n_vertices))
        traj = timestep.solve_forward(mesh, q, 0.0, 0.0, 0.5, grid)
        spec = InverseSpec(mesh=mesh, alpha=0.5, grid=grid, u0=0.0, f=0.0,
                           z_delta=Field(mesh, XH,
                                         np.ones(len(mesh.interior))),
                           gamma=0.0)
        d = Field(mesh, VH, np.ones(mesh.n_vertices))
        with pytest.raises(DegenerateDirectionError):
            step_size(spec, q, d, traj)

    def test_model_step_decreases_objective(self, setup):
        mesh, q, traj = setup
        rng = np.random.default_rng(17)
        z = Field(mesh, XH, traj.terminal.values
                  + 0.01 * rng.standard_normal(len(mesh.interior)))
        spec = make_spec(mesh, gamma=1e-8, z=z)
        q0 = spec.q_init
        traj0 = timestep.solve_forward(mesh, q0, u0, 1.0, 0.5, spec.grid)
        raw = gradient(spec, q0)
        d = smooth_direction(mesh, raw)
        s = step_size(spec, q0, d, traj0)
        q1 = project_admissible(Field(mesh, VH, q0.values + s * d.values),
                                spec.c0, spec.c1)
        assert objective(spec, q1)[0] < objective(spec, q0)[0]


class TestProjection:
    def test_inside_unchanged(self):
        mesh = generate_interval_mesh(4)
        q = Field(mesh, VH, np.linspace(1.0, 2.0, 5))
        p = project_admissible(q, 0.5, 5.0)
        assert np.array_equal(p.values, q.values)

    def test_clamps_to_bounds(self):
        mesh = generate_interval_mesh(4)
        q = Field(mesh, VH, np.array([6.0, 0.1, 1.0, 5.0, 0.5]))
        p = project_admissible(q, 0.5, 5.0)
        np.testing.assert_array_equal(p.values, [5.0, 0.5, 1.0, 5.0, 0.5])

    def test_idempotent(self):
        mesh = generate_interval_mesh(4)
        q = Field(mesh, VH, np.array([6.0, 0.1, 1.0, 5.0, 0.5]))
        once = project_admissible(q, 0.5, 5.0)
        twice = project_admissible(once, 0.5, 5.0)
        assert np.array_equal(once.values, twice.values)


class TestRunInversion:
    def test_consistent_data_terminates_immediately(self, setup):
        mesh, q, traj = setup
        spec = make_spec(mesh, gamma=0.0, z=traj.terminal,
                         q_init=q, max_iters=50)
        result = run_inversion(spec)
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.q.values, q.values)

    def test_feasibility_of_all_iterates(self, setup):
        mesh, q, traj = setup
        rng = np.random.default_rng(18)
        z = Field(mesh, XH, traj.terminal.values
                  + 0.02 * rng.standard_normal(len(mesh.interior)))
        spec = make_spec(mesh, gamma=1e-9, z=z, max_iters=15,
                         c0=0.9, c1=1.4)
        result = run_inversion(spec)
        for it in result.history:
            assert it.q.values.min() >= 0.9
            assert it.q.values.max() <= 1.4

    def test_monotone_objective(self, setup):
        mesh, q, traj = setup
        rng = np.random.default_rng(19)
        z = Field(mesh, XH, traj.terminal.values
                  + 0.02 * rng.standard_normal(len(mesh.interior)))
        spec = make_spec(mesh, gamma=1e-9, z=z, max_iters=20)
        result = run_inversion(spec)
        js = [it.J for it in result.history]
        assert all(js[i + 1] <= js[i] for i in range(len(js) - 1))

    def test_max_iters_returns_not_converged(self, setup):
        mesh, q, traj = setup
        rng = np.random.default_rng(20)
        z = Field(mesh, XH, traj.terminal.values
                  + 0.05 * rng.standard_normal(len(mesh.interior)))
        spec = make_spec(mesh, gamma=1e-10, z=z, max_iters=2)
        result = run_inversion(spec)
        assert not result.converged
        assert result.reason in ("max_iters", "stalled")

    def test_discrepancy_stopping(self, setup):
        mesh, q, traj = setup
        rng = np.random.default_rng(21)
        noise = 0.01 * rng.standard_normal(len(mesh.interior))
        z = Field(mesh, XH, traj.terminal.values + noise)
        mass = fem.assemble_mass(mesh, XH)
        delta = float(np.sqrt(noise @ (mass @ noise)))
        spec = make_spec(mesh, gamma=1e-10, z=z, max_iters=200,
                         stop=StoppingRule(noise_level=delta))
        result = run_inversion(spec)
        assert result.converged and result.reason == "discrepancy"
        final_res = np.sqrt(2.0 * result.history[-1].misfit) if result.history \
            else None
        if final_res is not None:
            assert final_res <= 1.1 * delta * (1.0 + 1e-9)

    def test_scale_invariance_of_first_direction(self):
        # scaling data and observation together scales the misfit by c^2 and
        # keeps the location of the first search direction's extremum
        mesh = generate_interval_mesh(30)
        rng = np.random.default_rng(22)
        q_true = Field(mesh, VH, 1.0 + 0.2 * rng.random(mesh.n_vertices))
        grid = TimeGrid(1.0, 8)

        def pieces(c):
            u0c = lambda x: c * x * (1.0 - x)
            traj = timestep.solve_forward(mesh, q_true, u0c, c, 0.5, grid)
            z = Field(mesh, XH, traj.terminal.values * 0.95)
            spec = InverseSpec(mesh=mesh, alpha=0.5, grid=grid, u0=u0c, f=c,
                               z_delta=z, gamma=0.0)
            J, misfit, _ = objective(spec, spec.q_init)
            g = smooth_direction(mesh, gradient(spec, spec.q_init))
            return misfit, np.argmax(np.abs(g.values))

        # misfit scales quadratically, argmax location is scale-free
        m1, i1 = pieces(1.0)
        m3, i3 = pieces(3.0)
        assert m3 == pytest.approx(9.0 * m1, rel=1e-9)
        assert i1 == i3


def test_each_marched_coefficient_is_factorized_once(monkeypatch):
    # the sensitivity and adjoint marches reuse the factorization of the
    # forward march they follow, so the loop factorizes one system per
    # coefficient it marches and nothing twice
    mesh = generate_interval_mesh(30)
    rng = np.random.default_rng(23)
    q_true = Field(mesh, VH, 1.0 + 0.2 * rng.random(mesh.n_vertices))
    traj = timestep.solve_forward(mesh, q_true, u0, 1.0, 0.5, TimeGrid(1.0, 10))
    z = Field(mesh, XH, traj.terminal.values
              + 0.02 * rng.standard_normal(len(mesh.interior)))
    spec = make_spec(mesh, gamma=1e-9, z=z, max_iters=8)
    # the mesh's own mass and Riesz factorizations are built once per mesh
    fem.geometry(mesh).mass_solver, fem.geometry(mesh).riesz_solver
    factorize, solve_forward = linalg.factorize, timestep.solve_forward
    factored, marched = [], []

    def counting_factorize(matrix):
        m = matrix.tocsr()
        factored.append((m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()))
        return factorize(matrix)

    def recording_forward(mesh, q, *args):
        marched.append(q.values.tobytes())
        return solve_forward(mesh, q, *args)

    monkeypatch.setattr(linalg, "factorize", counting_factorize)
    monkeypatch.setattr(timestep, "solve_forward", recording_forward)
    result = run_inversion(spec)
    assert result.iterations >= 3
    assert len(set(factored)) == len(factored) == len(set(marched))


def test_spec_validation():
    mesh = generate_interval_mesh(8)
    z = fem.zero_field(mesh, XH)
    for gamma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            make_spec(mesh, gamma=gamma, z=z)
    for bad in (np.nan, np.inf):
        values = np.zeros(len(mesh.interior))
        values[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_spec(mesh, z=Field(mesh, XH, values))
    with pytest.raises(ValueError):
        make_spec(mesh, z=z, c0=2.0, c1=1.0)
    with pytest.raises(ValueError):
        make_spec(mesh, z=z, q_init=Field(mesh, VH,
                                          np.full(mesh.n_vertices, 10.0)))
