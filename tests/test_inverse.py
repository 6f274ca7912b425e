import dataclasses

import numpy as np
import pytest

from fracinv import fem, inverse, linalg, timestep
from fracinv.errors import DegenerateDirectionError
from fracinv.experiments import add_noise, exact_data
from fracinv.fem import VH, XH, Field
from fracinv.inverse import (InverseSpec, cg_direction,
                             gradient, objective, project_admissible,
                             run_inversion, smooth_direction, step_size)
from fracinv.mesh import generate_interval_mesh
from fracinv.problems import get_problem, problem_mesh
from fracinv.timestep import TimeGrid


def u0(x):
    return x * (1.0 - x)


def make_spec(mesh, alpha=0.5, gamma=1e-8, z=None, n_steps=10, **kw):
    grid = TimeGrid(1.0, n_steps)
    if z is None:
        z = Field(mesh, XH, np.zeros(fem.n_dofs(mesh, XH)))
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
    zero = Field(mesh, VH, np.zeros(fem.n_dofs(mesh, VH)))
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
        assert cg_direction(self.g, None, None) is self.g

    def test_equal_gradients_gives_beta_one(self):
        d = cg_direction(self.g, self.g, self.d)
        np.testing.assert_allclose(d.values, self.d.values + self.g.values,
                                   rtol=1e-12)

    def test_zero_previous_gradient_restarts(self):
        zero = Field(self.mesh, VH, np.zeros(fem.n_dofs(self.mesh, VH)))
        assert cg_direction(self.g, zero, self.d) is self.g

    def test_growing_gradient_restarts(self):
        small = Field(self.mesh, VH, 0.1 * self.g.values)
        assert cg_direction(self.g, small, self.d) is self.g


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
                         noise_level=delta)
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


def test_degenerate_cg_direction_retries_steepest_descent(monkeypatch):
    # a conjugate direction the step model cannot use is replaced by the
    # smoothed gradient itself, so a zero direction at every iteration gives
    # exactly the steepest-descent run
    mesh = generate_interval_mesh(30)
    rng = np.random.default_rng(24)
    q_true = Field(mesh, VH, 1.0 + 0.2 * rng.random(mesh.n_vertices))
    traj = timestep.solve_forward(mesh, q_true, u0, 1.0, 0.5, TimeGrid(1.0, 10))
    z = Field(mesh, XH, traj.terminal.values
              + 0.02 * rng.standard_normal(len(mesh.interior)))
    spec = make_spec(mesh, gamma=1e-9, z=z, max_iters=4)
    real_step_size = inverse.step_size
    degenerate = []

    def recording_step_size(*args):
        try:
            return real_step_size(*args)
        except DegenerateDirectionError:
            degenerate.append(args[2])
            raise

    monkeypatch.setattr(inverse, "step_size", recording_step_size)
    monkeypatch.setattr(inverse, "cg_direction", lambda g, g_prev, d_prev: g)
    steepest = run_inversion(spec)
    assert not degenerate
    monkeypatch.setattr(inverse, "cg_direction", lambda g, g_prev, d_prev: Field(
        g.mesh, g.space, np.zeros_like(g.values)))
    retried = run_inversion(spec)
    assert len(degenerate) == retried.iterations == steepest.iterations == 4
    assert all(not d.values.any() for d in degenerate)
    assert [(it.J, it.step) for it in retried.history] == \
        [(it.J, it.step) for it in steepest.history]
    assert np.array_equal(retried.q.values, steepest.q.values)


def test_step_that_leaves_q_unchanged_stops_stalled():
    # q_init sits on the upper bound and the data come from q = 2, so the
    # projected step clamps q back onto itself
    mesh = generate_interval_mesh(30)
    q_data = Field(mesh, VH, np.full(mesh.n_vertices, 2.0))
    traj = timestep.solve_forward(mesh, q_data, u0, 1.0, 0.5, TimeGrid(1.0, 10))
    spec = make_spec(mesh, z=traj.terminal, c0=0.5, c1=1.0, max_iters=20)
    result = run_inversion(spec)
    assert (result.reason, result.converged, result.iterations) == ("stalled", False, 1)
    assert np.array_equal(result.q.values, spec.q_init.values)
    assert result.history[0].step > 0.0


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
    # the mesh's own Riesz factorization is built once per mesh
    fem.geometry(mesh).riesz_solver
    factorize, solve_forward = linalg.factorize, timestep.solve_forward
    factored, marched = [], []

    def counting_factorize(matrix, *layout):
        m = matrix.tocsr()
        factored.append((m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()))
        return factorize(matrix, *layout)

    def recording_forward(mesh, q, *args):
        marched.append(q.values.tobytes())
        return solve_forward(mesh, q, *args)

    monkeypatch.setattr(linalg, "factorize", counting_factorize)
    monkeypatch.setattr(timestep, "solve_forward", recording_forward)
    result = run_inversion(spec)
    assert result.iterations >= 3
    assert len(set(factored)) == len(factored) == len(set(marched))


def test_discrepancy_met_on_the_last_allowed_step_converges():
    # the rule was tested only before each step, so a run whose final
    # allowed step met the target reported "max_iters"
    mesh = generate_interval_mesh(30)
    x = mesh.vertices[:, 0]
    q_true = Field(mesh, VH, 1.0 + 0.3 * np.sin(np.pi * x))
    traj = timestep.solve_forward(mesh, q_true, u0, 1.0, 0.5, TimeGrid(1.0, 10))
    noise = 1e-4 * np.random.default_rng(0).standard_normal(len(mesh.interior))
    z = Field(mesh, XH, traj.terminal.values + noise)
    delta = float(np.sqrt(noise @ (fem.assemble_mass(mesh, XH) @ noise)))
    stop = dict(noise_level=delta, discrepancy_factor=1.1)
    free = run_inversion(make_spec(mesh, z=z, max_iters=600, **stop))
    assert (free.reason, free.converged) == ("discrepancy", True)
    assert free.iterations >= 1
    cut = run_inversion(make_spec(mesh, z=z, max_iters=free.iterations, **stop))
    assert (cut.reason, cut.converged, cut.iterations) == \
        ("discrepancy", True, free.iterations)
    assert np.array_equal(cut.q.values, free.q.values)
    start = run_inversion(make_spec(mesh, z=z, max_iters=0, **stop,
                                    q_init=free.q))
    assert (start.reason, start.converged, start.iterations) == ("discrepancy", True, 0)


def _noisy_sine_data(level):
    """Observation of q = 1 + 0.3 sin(pi x) on 30 cells with seeded noise of
    the given size, and its noise level."""
    mesh = generate_interval_mesh(30)
    q_true = Field(mesh, VH, 1.0 + 0.3 * np.sin(np.pi * mesh.vertices[:, 0]))
    traj = timestep.solve_forward(mesh, q_true, u0, 1.0, 0.5, TimeGrid(1.0, 10))
    noise = level * np.random.default_rng(0).standard_normal(len(mesh.interior))
    delta = float(np.sqrt(noise @ (fem.assemble_mass(mesh, XH) @ noise)))
    return mesh, Field(mesh, XH, traj.terminal.values + noise), delta


def test_a_capped_step_lands_inside_the_sphere_and_stops_the_run(monkeypatch):
    # a step capped onto the sphere itself once ended at ratio 1 + 3e-10, so
    # two more capped steps crept to 1 - 6e-14 before the stop test fired
    mesh, z, delta = _noisy_sine_data(1e-4)
    capped = []

    def recording(spec, q, d, forward):
        s = step_size(spec, q, d, forward)
        free = step_size(dataclasses.replace(spec, noise_level=None), q, d, forward)
        capped.append(s < free)
        return s
    monkeypatch.setattr(inverse, "step_size", recording)
    result = run_inversion(make_spec(mesh, z=z, max_iters=600, noise_level=delta,
                                     discrepancy_factor=1.1))
    assert (result.reason, result.converged) == ("discrepancy", True)
    assert capped[-1] and not any(capped[:-1])
    ratio = np.sqrt(2.0 * result.history[-1].misfit) / (1.1 * delta)
    assert 1.0 - 1e-7 < ratio < 1.0


@pytest.mark.parametrize("level", [1e-4, 1e-2])
def test_rounding_of_the_data_leaves_the_iteration_count(level):
    # a 1e-13 relative change of the data once moved these counts, from 173
    # to 174 and from 5 to 4, by moving capped steps across the sphere
    mesh, z, delta = _noisy_sine_data(level)
    wobble = np.cos(np.arange(len(z.values)))
    counts = {run_inversion(make_spec(
        mesh, z=Field(mesh, XH, z.values * (1.0 + eps * wobble)), max_iters=600,
        noise_level=delta, discrepancy_factor=1.1)).iterations
        for eps in (0.0, 1e-13, -1e-13)}
    assert len(counts) == 1


def test_an_overshooting_step_is_halved_until_j_falls(monkeypatch):
    # 64 times the model step overshoots at every iteration, so each one
    # halves its step 5-6 times before the objective falls
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 20.0)
    u_ref, linf = exact_data(problem, problem_mesh(problem, 1.0 / 80.0), mesh, 0.5,
                             TimeGrid(1.0, 40))
    z, delta = add_noise(u_ref, linf, 1e-2, 1)
    spec = InverseSpec(mesh=mesh, alpha=0.5, grid=TimeGrid(1.0, 10), u0=problem.u0,
                       f=problem.f, z_delta=z, gamma=4e-8, noise_level=delta,
                       discrepancy_factor=1.05)
    model, evaluate = inverse.step_size, inverse._evaluate
    steps = []  # [model step, forward marches after it]

    def overshooting(*args):
        steps.append([model(*args), 0])
        return 64.0 * steps[-1][0]

    def counting(*args):
        if steps:
            steps[-1][1] += 1
        return evaluate(*args)

    monkeypatch.setattr(inverse, "step_size", overshooting)
    monkeypatch.setattr(inverse, "_evaluate", counting)
    result = run_inversion(spec)
    assert (result.reason, result.converged) == ("discrepancy", True)
    assert len(steps) == result.iterations >= 10
    assert all(trials >= 6 for _, trials in steps)
    assert [it.step for it in result.history] == \
        [64.0 * s * 0.5 ** (trials - 1) for s, trials in steps]


def test_a_trial_that_raises_j_by_a_hair_is_halved(monkeypatch):
    # the safeguard takes no slack: a first trial whose objective lies a
    # relative 1e-9 above J_0 is rejected and its step halved
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 20.0)
    u_ref, linf = exact_data(problem, problem_mesh(problem, 1.0 / 80.0), mesh, 0.5,
                             TimeGrid(1.0, 40))
    z, delta = add_noise(u_ref, linf, 1e-2, 1)
    spec = InverseSpec(mesh=mesh, alpha=0.5, grid=TimeGrid(1.0, 10), u0=problem.u0,
                       f=problem.f, z_delta=z, gamma=4e-8, noise_level=delta,
                       discrepancy_factor=1.05, max_iters=1)
    model, evaluate = inverse.step_size, inverse._evaluate
    steps, values = [], []  # model steps; J of each evaluation, as returned

    def recording(*args):
        steps.append(model(*args))
        return steps[-1]

    def raising_the_first_trial(*args):
        traj, parts = evaluate(*args)
        if len(values) == 1:
            parts = (values[0] * (1.0 + 1e-9), *parts[1:])
        values.append(parts[0])
        return traj, parts

    monkeypatch.setattr(inverse, "step_size", recording)
    monkeypatch.setattr(inverse, "_evaluate", raising_the_first_trial)
    result = run_inversion(spec)
    assert len(values) == 3 and len(steps) == 1
    assert result.history[0].step == steps[0] / 2
    assert result.history[0].J == values[2] <= values[0]


def test_non_integer_max_iters_rejected():
    # a float count once built a spec that run_inversion's loop then
    # rejected with a TypeError
    mesh = generate_interval_mesh(8)
    z = Field(mesh, XH, np.zeros(fem.n_dofs(mesh, XH)))
    for bad in (2.5, 3.0, "5", None):
        with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
            make_spec(mesh, z=z, max_iters=bad)
    assert make_spec(mesh, z=z, max_iters=np.int64(3)).max_iters == 3


def test_spec_rejects_an_initial_coefficient_off_its_mesh_or_space():
    # an X_h one, and a V_h one on another mesh of the same size, fail only
    # at the first march with a message that does not name q_init
    mesh = generate_interval_mesh(8)
    other = generate_interval_mesh(8)
    for q in (Field(mesh, XH, np.ones(fem.n_dofs(mesh, XH))),
              Field(other, VH, np.ones(other.n_vertices))):
        with pytest.raises(ValueError, match="initial coefficient must be a V_h field"):
            make_spec(mesh, q_init=q)


def test_spec_validation():
    mesh = generate_interval_mesh(8)
    z = Field(mesh, XH, np.zeros(fem.n_dofs(mesh, XH)))
    for gamma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            make_spec(mesh, gamma=gamma, z=z)
    for bad in (np.nan, np.inf):
        values = np.zeros(len(mesh.interior))
        values[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_spec(mesh, z=Field(mesh, XH, values))
    for alpha in (0.0, 1.5, np.nan, -0.5):
        with pytest.raises(ValueError, match="alpha must lie in"):
            make_spec(mesh, alpha=alpha, z=z)
    other = generate_interval_mesh(8)
    for obs in (Field(other, XH, np.zeros(fem.n_dofs(other, XH))),
                Field(mesh, VH, np.zeros(mesh.n_vertices))):
        with pytest.raises(ValueError, match="observation must be an X_h field"):
            make_spec(mesh, z=obs)
    with pytest.raises(ValueError):
        make_spec(mesh, z=z, c0=2.0, c1=1.0)
    with pytest.raises(ValueError):
        make_spec(mesh, z=z, q_init=Field(mesh, VH,
                                          np.full(mesh.n_vertices, 10.0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            make_spec(mesh, z=z, q_init=Field(mesh, VH, np.full(mesh.n_vertices, bad)))
    with pytest.raises(ValueError, match="max_iters"):
        make_spec(mesh, z=z, max_iters=-1)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="discrepancy factor"):
            make_spec(mesh, z=z, discrepancy_factor=bad)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="gradient tolerance"):
            make_spec(mesh, z=z, gradient_tol=bad)
        with pytest.raises(ValueError, match="noise level"):
            make_spec(mesh, z=z, noise_level=bad)
