"""Forward solver tour: accuracy of the time march on the 1D benchmark.

Solves the variable-coefficient (sub)diffusion problem on (0, 1) with the
benchmark's clipped-sine coefficient, then checks the two discretization
orders against self-converged references: first order in the time step,
second order in the mesh size.  Finally cross-checks the alpha = 1 limit
against the exact heat-kernel decay of a sine initial state.
"""

import numpy as np

import fracinv as fi
from fracinv import fem
from fracinv.fem import VH, XH, Field
from fracinv.problems import get_problem, problem_mesh
from fracinv.timestep import TimeGrid

problem = get_problem("1d-sine")
alpha = 0.5

print("== temporal refinement (fixed mesh h = 1/200) ==")
mesh = problem_mesh(problem, 1 / 200)
ref = fi.solve_truth(problem, mesh, alpha, TimeGrid(1.0, 1280)).terminal
prev = None
for n in (10, 20, 40, 80):
    traj = fi.solve_truth(problem, mesh, alpha, TimeGrid(1.0, n))
    err = fi.norm_l2(Field(mesh, XH, traj.terminal.values - ref.values))
    rate = f"{np.log2(prev / err):5.2f}" if prev else "   --"
    print(f"  N = {n:4d}   error = {err:.3e}   order = {rate}")
    prev = err

print("== spatial refinement (fixed N = 1280) ==")
fine = problem_mesh(problem, 1 / 1600)
u_ref = fi.solve_truth(problem, fine, alpha, TimeGrid(1.0, 1280)).terminal
prev = None
for n in (25, 50, 100):
    mesh = problem_mesh(problem, 1.0 / n)
    traj = fi.solve_truth(problem, mesh, alpha, TimeGrid(1.0, 1280))
    on_fine = fem.evaluate_at_points(traj.terminal, fine.vertices[fine.interior])
    err = fi.norm_l2(Field(fine, XH, on_fine - u_ref.values))
    rate = f"{np.log2(prev / err):5.2f}" if prev else "   --"
    print(f"  h = 1/{n:<4d} error = {err:.3e}   order = {rate}")
    prev = err

print("== alpha = 1 sanity: exp(-pi^2 T) sine decay ==")
mesh = problem_mesh(problem, 1 / 200)
ones = fem.interpolate(mesh, VH, lambda x: np.ones_like(x))
T = 0.1
traj = fi.solve_forward(mesh, ones, lambda x: np.sin(np.pi * x), 0.0, 1.0,
                        TimeGrid(T, 400))
exact = fem.interpolate(mesh, XH,
                        lambda x: np.exp(-np.pi ** 2 * T) * np.sin(np.pi * x))
err = fi.norm_l2(Field(mesh, XH, traj.terminal.values - exact.values))
print(f"  ||U^N - exact||_L2 = {err:.3e} at T = {T}")
