import ast
import gc
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg.blas import dgemm
from scipy.special import binom

from fracinv import fem, linalg, timestep
from fracinv.fem import VH, XH, Field
from fracinv.mesh import generate_disk_mesh, generate_interval_mesh
from fracinv.timestep import (TimeGrid, cq_weights, discrete_frac_derivative,
                              solve_adjoint, solve_forward, solve_sensitivity)

LEAF = timestep._LEAF
CHUNK = timestep._CHUNK


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
        np.testing.assert_array_equal(w, [1.0, -1.0, 0.0, 0.0])

    def test_half_order_closed_form(self):
        w = cq_weights(0.5, 3)
        np.testing.assert_allclose(w, [1.0, -0.5, -0.125, -0.0625], rtol=1e-15)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_recurrence_matches_binomial(self, alpha):
        n = 200
        w = cq_weights(alpha, n)
        j = np.arange(n + 1)
        closed = (-1.0) ** j * binom(alpha, j)
        np.testing.assert_allclose(w, closed, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_signs_and_partial_sums(self, alpha):
        w = cq_weights(alpha, 200)
        assert w[0] == 1.0
        assert (w[1:] < 0.0).all()
        s = np.cumsum(w)
        assert (s > 0.0).all()
        assert (np.diff(s) < 0.0).all()

    def test_partial_sums_decay(self):
        s2 = np.cumsum(cq_weights(0.5, 2))[-1]
        s20 = np.cumsum(cq_weights(0.5, 20))[-1]
        s200 = np.cumsum(cq_weights(0.5, 200))[-1]
        assert s200 < s20 < s2

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            cq_weights(0.0, 3)
        with pytest.raises(ValueError):
            cq_weights(1.5, 3)

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="N must be nonnegative"):
            cq_weights(0.5, -1)


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

    def test_rejects_infinite_coefficient(self):
        # one infinite nodal value is rejected at assembly, not by the factorization
        mesh = generate_interval_mesh(8)
        q = Field(mesh, VH, np.ones(mesh.n_vertices))
        q.values[3] = np.inf
        from fracinv.errors import InvalidCoefficientError
        with pytest.raises(InvalidCoefficientError, match="finite"):
            solve_forward(mesh, q, u0_parabola, 1.0, 0.5, TimeGrid(1.0, 4))


class TestMarchData:
    def test_marches_on_one_mesh_integrate_once(self, monkeypatch):
        calls = []
        original = fem.load_vector

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fem, "load_vector", counting)
        mesh = generate_interval_mesh(16)
        for alpha in (0.25, 0.5, 1.0):
            solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, alpha,
                          TimeGrid(1.0, 5))
        # one for the load, one inside the projection of u0
        assert len(calls) == 2

    def test_marches_on_one_mesh_factor_the_mass_matrix_once(self, monkeypatch):
        factored, solvers = [], []
        original = linalg.factorize

        def counting(matrix, *layout):
            # the data factored, and how many earlier factors are still alive
            factored.append((matrix.data.copy(), sum(s() is not None for s in solvers)))
            solver = original(matrix, *layout)
            solvers.append(weakref.ref(solver))
            return solver

        monkeypatch.setattr(linalg, "factorize", counting)
        mesh = generate_disk_mesh(0.3)
        mass = fem.geometry(mesh).mass[XH].data
        trajs = []  # each keeps its march's factor alive
        for alpha in (0.5, 1.0):
            trajs.append(solve_forward(mesh, unit_coefficient(mesh), 1.0, 1.0, alpha,
                                       TimeGrid(1.0, 4)))
        # the projection of u0, then one system per march; the projection's
        # factor is gone before the first march factors its own
        assert [np.array_equal(data, mass) for data, _ in factored] == [True, False, False]
        assert [alive for _, alive in factored] == [0, 0, 1]

    def test_switching_data_gives_a_fresh_mesh_bits(self):
        def source(x):
            return np.cos(x)

        mesh = generate_interval_mesh(24)
        grid = TimeGrid(1.0, 6)
        for f, u0 in ((1.0, u0_parabola), (source, u0_parabola), (source, 0.5),
                      (1.0, u0_parabola)):
            fresh = generate_interval_mesh(24)
            expect = solve_forward(fresh, unit_coefficient(fresh), u0, f, 0.5, grid)
            got = solve_forward(mesh, unit_coefficient(mesh), u0, f, 0.5, grid)
            assert np.array_equal(got.values, expect.values)

    def test_cached_arrays_are_read_only(self):
        mesh = generate_interval_mesh(8)
        for array in fem.march_data(mesh, 1.0, u0_parabola):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_mesh_is_freed_without_the_collector(self):
        from fracinv.experiments import solve_truth
        from fracinv.problems import get_problem, problem_mesh
        problem = get_problem("1d-sine")
        mesh = problem_mesh(problem, 0.05)
        gc.disable()
        try:
            traj = solve_truth(problem, mesh, 0.5, TimeGrid(1.0, 4))
            assert "march" in mesh.derived
            freed = weakref.ref(mesh)
            del traj, mesh
            assert freed() is None
        finally:
            gc.enable()


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
        d = Field(self.mesh, VH, np.zeros(fem.n_dofs(self.mesh, VH)))
        sens = solve_sensitivity(self.traj, d, self.grid)
        assert np.abs(sens.values).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        d = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))
        w1 = solve_sensitivity(self.traj, d, self.grid)
        d2 = Field(self.mesh, VH, 2.0 * d.values)
        w2 = solve_sensitivity(self.traj, d2, self.grid)
        np.testing.assert_allclose(w2.values, 2.0 * w1.values, atol=1e-12)

    def test_central_difference_oracle(self):
        rng = np.random.default_rng(6)
        d = Field(self.mesh, VH, rng.standard_normal(self.mesh.n_vertices))
        sens = solve_sensitivity(self.traj, d, self.grid)
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
        d = Field(self.mesh, VH, np.zeros(fem.n_dofs(self.mesh, VH)))
        with pytest.raises(ValueError):
            solve_sensitivity(self.traj, d, TimeGrid(1.0, 13))

    @pytest.mark.parametrize("mesh, space", [(generate_interval_mesh(40), VH), (None, XH)],
                             ids=["other-mesh", "x_h"])
    def test_direction_off_the_forward_mesh_rejected(self, mesh, space):
        mesh = mesh or self.mesh
        d = Field(mesh, space, np.zeros(fem.n_dofs(mesh, space)))
        with pytest.raises(ValueError, match="direction must be a V_h field"):
            solve_sensitivity(self.traj, d, self.grid)

    def test_misshapen_state_array_rejected(self):
        with pytest.raises(ValueError, match="state array has shape"):
            timestep.Trajectory(self.mesh, self.grid, self.traj.values[1:], self.alpha)


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
        zero = Field(self.mesh, XH, np.zeros(fem.n_dofs(self.mesh, XH)))
        adj = solve_adjoint(self.traj, self.grid, zero)
        assert np.abs(adj.states.values).max() == 0.0
        assert np.abs(adj.misfit_gradient.values).max() == 0.0

    @settings(database=None, derandomize=True, max_examples=40, deadline=None)
    @given(disk=st.booleans(), size=st.integers(2, 24),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           n_steps=st.integers(1, 2 * LEAF + 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_duality_identity(self, disk, size, alpha, n_steps, seed):
        # (r, W^N(d)) equals the adjoint-assembled dual vector paired with d,
        # on interval and disk meshes, for any order and step count, direct
        # (N <= LEAF) and blocked history alike
        mesh = generate_disk_mesh(1.0 / min(size, 5)) if disk else generate_interval_mesh(size)
        rng = np.random.default_rng(seed)
        q = Field(mesh, VH, 1.0 + 0.4 * rng.random(mesh.n_vertices))
        grid = TimeGrid(1.0, n_steps)
        u0 = lambda *x: 1.0 - sum(c * c for c in x)
        traj = solve_forward(mesh, q, u0, 1.0, alpha, grid)
        r = Field(mesh, XH, rng.standard_normal(len(mesh.interior)))
        adj = solve_adjoint(traj, grid, r)
        mass = fem.assemble_mass(mesh, XH)
        for _ in range(3):
            d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
            sens = solve_sensitivity(traj, d, grid)
            lhs = float(r.values @ (mass @ sens.terminal.values))
            rhs = float(adj.misfit_gradient.values @ d.values)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize("mesh, space", [(generate_interval_mesh(30), XH), (None, VH)],
                             ids=["other-mesh", "v_h"])
    def test_residual_off_the_forward_mesh_rejected(self, mesh, space):
        mesh = mesh or self.mesh
        r = Field(mesh, space, np.zeros(fem.n_dofs(mesh, space)))
        with pytest.raises(ValueError, match="terminal residual must be an X_h field"):
            solve_adjoint(self.traj, self.grid, r)

    def test_reused_factor_must_match_the_march(self):
        r = Field(self.mesh, XH, np.zeros(fem.n_dofs(self.mesh, XH)))
        d = Field(self.mesh, VH, np.zeros(fem.n_dofs(self.mesh, VH)))
        sens = solve_sensitivity(self.traj, d, self.grid)
        with pytest.raises(ValueError, match="factorized system"):
            solve_adjoint(sens, self.grid, r)

    def test_alpha_one_matches_classical_adjoint(self):
        # independent oracle: backward-in-time parabolic adjoint recursion
        grid = TimeGrid(0.8, 12)
        traj = solve_forward(self.mesh, self.q, u0_parabola, 1.0, 1.0, grid)
        r = Field(self.mesh, XH, self.rng.standard_normal(len(self.mesh.interior)))
        adj = solve_adjoint(traj, grid, r)

        mass = fem.assemble_mass(self.mesh, XH)
        stiff = fem.assemble_stiffness(self.mesh, XH, self.q)
        lu = sp.linalg.splu((mass / grid.tau + stiff).tocsc())
        v = lu.solve(mass @ r.values)
        for n in range(grid.N, 0, -1):
            np.testing.assert_allclose(adj.states.values[n], v, rtol=0,
                                       atol=1e-12 * max(np.abs(v).max(), 1e-300))
            v = lu.solve(mass @ v / grid.tau)


def direct_marches(forward, d, r, alpha, grid):
    """Forward, sensitivity and adjoint states and the misfit-gradient dual
    vector, by the direct history sum and a per-step gradient pairing, on
    the forward trajectory's own factorized system."""
    mesh, n_steps = forward.mesh, grid.N
    b = cq_weights(alpha, n_steps)
    s = np.cumsum(b)
    mass = fem.assemble_mass(mesh, XH)
    stiff_d = fem._stiffness_with_coeff(mesh, XH, d.values)
    load = fem.load_vector(mesh, XH, 1.0)
    scale = grid.tau ** -alpha
    solve = forward.solver.solve
    u, w, v = (np.zeros_like(forward.values) for _ in range(3))
    u[0] = forward.values[0]
    for n in range(1, n_steps + 1):
        u[n] = solve(load + scale * (mass @ (s[n] * u[0] - b[n:0:-1] @ u[:n])))
        w[n] = solve(-(stiff_d @ u[n]) - scale * (mass @ (b[n:0:-1] @ w[:n])))
    v[n_steps] = solve(mass @ r.values)
    for n in range(n_steps - 1, 0, -1):  # oldest first in the march's own order
        v[n] = solve(-scale * (mass @ (b[n_steps - n:0:-1] @ v[n_steps:n:-1])))
    pair = np.zeros(mesh.n_cells)
    for n in range(1, n_steps + 1):
        pair += np.einsum("cd,cd->c", fem.cell_gradient(Field(mesh, XH, u[n])),
                          fem.cell_gradient(Field(mesh, XH, v[n])))
    return u, w, v, -fem.cell_average_load(mesh, pair)


def relative_gap(got, expect):
    return np.abs(got - expect).max() / max(np.abs(expect).max(), 1e-300)


class TestBlockedHistory:
    # LEAF + 1 = 33 steps: the first march of several leaves; 39-41 steps:
    # the edge of a sixth 8-row leaf; 1100 steps: blocks of up to 1024 rows,
    # the last clipped to 77
    @pytest.mark.parametrize("n_steps", [1, LEAF - 1, LEAF, LEAF + 1, 39, 40, 41, 63, 64, 65,
                                         161, 300, 1100])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("disk", [False, True], ids=["interval", "disk"])
    def test_marches_match_the_direct_sum(self, disk, alpha, n_steps):
        mesh = generate_disk_mesh(0.3) if disk else generate_interval_mesh(30)
        rng = np.random.default_rng(n_steps)
        q = Field(mesh, VH, 1.0 + 0.4 * rng.random(mesh.n_vertices))
        d = Field(mesh, VH, rng.standard_normal(mesh.n_vertices))
        r = Field(mesh, XH, rng.standard_normal(len(mesh.interior)))
        grid = TimeGrid(1.0, n_steps)
        traj = solve_forward(mesh, q, lambda *x: 1.0 - sum(c * c for c in x), 1.0,
                             alpha, grid)
        sens = solve_sensitivity(traj, d, grid)
        adj = solve_adjoint(traj, grid, r)
        u, w, v, dual = direct_marches(traj, d, r, alpha, grid)
        assert relative_gap(traj.values, u) <= 1e-12
        assert relative_gap(sens.values, w) <= 1e-12
        assert relative_gap(adj.states.values, v) <= 1e-12
        assert relative_gap(adj.misfit_gradient.values, dual) <= 1e-12
        if n_steps <= LEAF:  # one leaf: the direct sum itself, bit for bit
            for got, expect in ((traj.values, u), (sens.values, w),
                                (adj.states.values, v), (adj.misfit_gradient.values, dual)):
                np.testing.assert_array_equal(got, expect)

    def test_batched_pairing_is_the_per_step_loop(self):
        mesh = generate_disk_mesh(0.2)
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal((2, 2 * LEAF, len(mesh.interior)))
        pair = np.zeros(mesh.n_cells)
        for un, vn in zip(u, v):
            pair += np.einsum("cd,cd->c", fem.cell_gradient(Field(mesh, XH, un)),
                              fem.cell_gradient(Field(mesh, XH, vn)))
        np.testing.assert_array_equal(timestep._gradient_pairing(mesh, u, v), pair)

    def test_march_memory_stays_near_its_state_array(self):
        # a forward-1d-sized march: 1599 dofs, 1280 steps
        mesh = generate_interval_mesh(1600)
        q = unit_coefficient(mesh)
        fem.march_data(mesh, 1.0, u0_parabola)
        tracemalloc.start()
        try:
            traj = solve_forward(mesh, q, u0_parabola, 1.0, 0.5, TimeGrid(1.0, 1280))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - traj.values.nbytes <= 2 * 2 ** 20

    def test_block_products_are_added_into_the_states(self, monkeypatch):
        # dgemm writes into its c argument only when that is already in the
        # Fortran order it reads; otherwise it returns a copy
        shared = []

        def spy(*args, **kwargs):
            sums = dgemm(*args, **kwargs)
            shared.append(np.shares_memory(sums, args[4]))
            return sums
        monkeypatch.setattr(timestep, "dgemm", spy)
        mesh = generate_interval_mesh(30)
        grid = TimeGrid(1.0, 3 * LEAF)
        traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, 0.5, grid)
        forward = len(shared)
        r = Field(mesh, XH, np.ones(len(mesh.interior)))
        solve_adjoint(traj, grid, r)
        discrete_frac_derivative(traj)
        assert 0 < forward < len(shared) - forward and all(shared)

    def test_march_leaves_no_reference_cycle(self):
        mesh = generate_interval_mesh(20)
        gc.disable()
        try:
            traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, 0.5,
                                 TimeGrid(1.0, 3 * LEAF))
            states = weakref.ref(traj.values)
            del traj
            assert states() is None
        finally:
            gc.enable()

    def test_terminal_state_does_not_keep_the_march_alive(self):
        # run_sweep keeps a truth march's terminal state through the transfer
        mesh = generate_interval_mesh(20)
        traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, 0.5,
                             TimeGrid(1.0, 8))
        states, terminal = weakref.ref(traj.values), traj.terminal
        np.testing.assert_array_equal(terminal.values, traj.values[-1])
        del traj
        assert states() is None

    def test_marches_repeat_bytes_and_agree_across_blas_threads_to_eps(self):
        # the block products are GEMMs, which may run on several BLAS threads;
        # each thread count repeats its own bytes, and the counts differ only
        # in rounding (two coefficients, since whether any byte differs
        # depends on the coefficient)
        src = Path(timestep.__file__).resolve().parent.parent
        script = (
            "import sys, numpy as np\n"
            "from fracinv import fem, timestep\n"
            "from fracinv.mesh import generate_interval_mesh\n"
            "mesh = generate_interval_mesh(400)\n"
            "grid = timestep.TimeGrid(1.0, 300)\n"
            "r = fem.Field(mesh, fem.XH, np.sin(np.arange(len(mesh.interior))))\n"
            "for c in (1.0, 0.9):\n"
            "    q = fem.Field(mesh, fem.VH, 1.0 + c * mesh.vertices[:, 0])\n"
            "    traj = timestep.solve_forward(mesh, q, lambda x: x * (1 - x), 1.0, 0.5, grid)\n"
            "    adj = timestep.solve_adjoint(traj, grid, r)\n"
            "    sys.stdout.buffer.write(traj.values.tobytes() + adj.states.values.tobytes())\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        runs = [subprocess.run([sys.executable, "-c", script], env=e, capture_output=True,
                               check=True).stdout
                for e in (env, env, dict(env, OPENBLAS_NUM_THREADS="1"))]
        assert runs[0] == runs[1]
        default, single = (np.frombuffer(run).reshape(4, 301, 399) for run in runs[1:])
        for got, expect in zip(single, default):  # forward and adjoint, per coefficient
            assert np.abs(got - expect).max() <= 2.2e-16 * np.abs(expect).max()

    def test_no_module_uses_an_fft(self):
        # the block products are GEMMs; scipy.sparse loads numpy.fft on its own,
        # so sys.modules cannot tell, and the sources are read instead
        package = Path(timestep.__file__).resolve().parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                assert not any("fft" in name.lower() for name in names), \
                    f"{path.name}:{node.lineno} uses {names}"

    def test_shipped_coarse_marches_are_one_leaf(self, monkeypatch):
        # the default and benchmark inversions march on the direct sum alone,
        # which keeps them bit for bit through changes to the blocked path
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads
        from fracinv.problems import PROBLEMS
        steps = {name: problem.n_steps for name, problem in PROBLEMS.items()}
        steps.update((name, w.n_steps) for name, w in workloads.WORKLOADS.items()
                     if isinstance(w, workloads.Sweep))
        assert "sweep-2d" in steps and max(steps.values()) <= LEAF, steps


def convolve_by_loop(rows, b, out):
    expect = out.copy()
    for i in range(len(out)):
        for j in range(len(rows)):
            expect[i] += b[len(rows) + i - j] * rows[j]
    return expect


class TestConvolve:
    @settings(database=None, derandomize=True, max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 70), n_out=st.integers(1, 3 * CHUNK + 5),
           spare=st.integers(0, 3), cols=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_rows=40, n_out=CHUNK + 1, spare=0, cols=3, seed=0)
    @example(n_rows=40, n_out=2 * CHUNK + 7, spare=0, cols=2, seed=1)
    @example(n_rows=64, n_out=2 * CHUNK + 1, spare=0, cols=3, seed=2)
    def test_matches_the_double_loop(self, n_rows, n_out, spare, cols, seed):
        # out follows rows in one state array, as in the march
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n_rows + n_out + spare)
        states = rng.standard_normal((n_rows + n_out, cols))
        rows, out = states[:n_rows], states[n_rows:]
        expect = convolve_by_loop(rows, b, out)
        timestep._convolve(rows, b, out)
        np.testing.assert_allclose(out, expect, rtol=0,
                                   atol=1e-13 * n_rows * max(1.0, np.abs(expect).max()))

    def test_products_are_added_in_place(self):
        # a CHUNK x cols product temporary would be CHUNK rows of out; the
        # Toeplitz block is CHUNK x 8 entries
        rng = np.random.default_rng(5)
        cols = 20000
        states = rng.standard_normal((8 + CHUNK, cols))
        rows, out = states[:8], states[8:]
        b = rng.standard_normal(8 + CHUNK)
        expect = convolve_by_loop(rows, b, out)
        tracemalloc.start()
        try:
            timestep._convolve(rows, b, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cols
        np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-12)


class TestFracDerivative:
    def test_constant_trajectory_zero(self):
        mesh = generate_interval_mesh(10)
        grid = TimeGrid(1.0, 6)
        u0 = fem.l2_project(mesh, u0_parabola)
        values = np.tile(u0.values, (grid.N + 1, 1))
        traj = timestep.Trajectory(mesh, grid, values, 0.5)
        for d in discrete_frac_derivative(traj):
            assert np.abs(d.values).max() <= 1e-14

    def test_alpha_one_is_backward_difference(self):
        mesh = generate_interval_mesh(12)
        grid = TimeGrid(1.0, 8)
        traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0,
                             1.0, grid)
        derivs = discrete_frac_derivative(traj)
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
        derivs = discrete_frac_derivative(traj)
        for n in range(1, grid.N + 1):
            res = mass @ derivs[n - 1].values + stiff @ traj.values[n] - load
            assert np.abs(res).max() <= 1e-10 * np.abs(load).max()

    @pytest.mark.parametrize("n_steps", [1, 7, 131])
    def test_history_convolution_matches_the_direct_sum(self, n_steps):
        mesh = generate_disk_mesh(0.3)
        grid = TimeGrid(1.0, n_steps)
        values = np.random.default_rng(n_steps).standard_normal(
            (n_steps + 1, len(mesh.interior)))
        traj = timestep.Trajectory(mesh, grid, values, 0.3)
        b = cq_weights(0.3, n_steps)
        s = np.cumsum(b)
        derivs = discrete_frac_derivative(traj)
        for n in range(1, n_steps + 1):
            expect = grid.tau ** -0.3 * (b[n::-1] @ values[:n + 1] - s[n] * values[0])
            assert relative_gap(derivs[n - 1].values, expect) <= 1e-12

    def test_derivative_memory_stays_near_its_state_array(self):
        # a forward-1d-sized trajectory: 1599 dofs, 1280 steps
        mesh = generate_interval_mesh(1600)
        traj = solve_forward(mesh, unit_coefficient(mesh), u0_parabola, 1.0, 0.5,
                             TimeGrid(1.0, 1280))
        tracemalloc.start()
        try:
            discrete_frac_derivative(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - traj.values.nbytes <= 2 * 2 ** 20


def test_time_grid_validation():
    for T in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            TimeGrid(T, 5)
    for N in (0, 2.5, 8.0, "8"):
        with pytest.raises(ValueError):
            TimeGrid(1.0, N)
    assert TimeGrid(1.0, np.int64(8)).tau == 0.125
    g = TimeGrid(2.0, 8)
    assert g.tau == pytest.approx(0.25)
    assert len(g.times) == 9


def test_time_grid_rejects_a_step_whose_power_overflows():
    # a subnormal step: tau**-1 once overflowed in the march
    for T, N in ((1e-310, 1), (1e-300, 10 ** 9)):
        with pytest.raises(ValueError, match="time step"):
            TimeGrid(T, N)
    assert np.isfinite(TimeGrid(sys.float_info.min, 1).tau ** -1.0)
