"""The library against the dense reference pipeline of reference_pipeline.py:
states, gradient and the first inversion iterates on a 16-cell interval and
the h = 0.3 disk, for a short march (one direct-sum leaf) and a long one
(blocked history)."""

import numpy as np
import pytest

from fracinv import inverse, timestep
from fracinv.fem import VH, XH, Field
from fracinv.mesh import generate_disk_mesh, generate_interval_mesh
from reference_pipeline import Reference, run_inversion

T = 1.0
ITERATES = 5


def u0(*x):
    return 1.0 - sum(c * c for c in x)


def coefficient(mesh, amplitude):
    x = mesh.vertices
    return 1.0 + amplitude * np.sin(3.0 * x[:, 0] + x[:, -1] ** 2)


@pytest.fixture(scope="module", params=["interval", "disk"])
def reference(request):
    mesh = generate_interval_mesh(16) if request.param == "interval" else generate_disk_mesh(0.3)
    return Reference(mesh)


def relative_gap(got, expect):
    return np.abs(got - expect).max() / np.abs(expect).max()


@pytest.mark.parametrize("n_steps", [20, 150])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_marches_and_gradient_match(reference, alpha, n_steps):
    mesh, grid = reference.mesh, timestep.TimeGrid(T, n_steps)
    rng = np.random.default_rng(n_steps)
    q = coefficient(mesh, 0.4)
    d = rng.standard_normal(mesh.n_vertices)
    r = rng.standard_normal(len(reference.free))
    traj = timestep.solve_forward(mesh, Field(mesh, VH, q), u0, 1.0, alpha, grid)
    sens = timestep.solve_sensitivity(traj, Field(mesh, VH, d), grid)
    adj = timestep.solve_adjoint(traj, grid, Field(mesh, XH, r))

    U = reference.forward(q, u0, 1.0, alpha, T, n_steps)
    W = reference.sensitivity_operator(q, U, alpha, T)
    V = reference.adjoint(q, r, alpha, T, n_steps)
    gradient = W[-1].T @ reference.M @ r  # the transpose of d -> W^N(d), applied to M r
    assert relative_gap(traj.values, U) <= 1e-12
    assert relative_gap(sens.values, W @ d) <= 1e-12
    assert relative_gap(adj.states.values, V) <= 1e-12
    assert relative_gap(adj.misfit_gradient.values, gradient) <= 1e-10
    # the reference's transposed march is the transpose of its own march
    assert relative_gap(reference.paired_gradient(U, V), gradient) <= 1e-12


@pytest.mark.parametrize("n_steps", [20, 150])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_first_iterates_match(reference, alpha, n_steps):
    mesh, grid = reference.mesh, timestep.TimeGrid(T, n_steps)
    truth = timestep.solve_forward(mesh, Field(mesh, VH, coefficient(mesh, 0.8)), u0, 1.0,
                                   alpha, grid).terminal.values
    rng = np.random.default_rng(n_steps)
    z = truth + 1e-3 * np.abs(truth).max() * rng.standard_normal(len(truth))
    settings = dict(gamma=1e-7, c0=0.5, c1=5.0, max_iters=ITERATES, noise_level=1e-6,
                    discrepancy_factor=1.1)
    result = inverse.run_inversion(inverse.InverseSpec(
        mesh, alpha, grid, u0, 1.0, Field(mesh, XH, z), **settings))
    expect = run_inversion(reference, alpha, T, n_steps, u0, 1.0, z,
                           q_init=np.ones(mesh.n_vertices), **settings)
    assert len(result.history) == len(expect) == ITERATES
    for got, (q, J, step) in zip(result.history, expect):
        assert relative_gap(got.q.values, q) <= 1e-9
        assert abs(got.J - J) <= 1e-9 * abs(J)
        assert abs(got.step - step) <= 1e-9 * abs(step)
