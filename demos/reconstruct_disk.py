"""2D reconstruction on the unit disk.

Same pipeline as the 1D demo, on the radially symmetric benchmark: the
coarse inversion mesh has 216 triangles (the coarsest experiment level)
and the truth is generated on a much finer disk triangulation, so the
data is not committed to the inversion grid.
"""

import numpy as np

import fracinv as fi
from fracinv import fem
from fracinv.experiments import (ExperimentConfig, add_noise, make_meshes,
                                 solve_truth, transfer_terminal)
from fracinv.fem import VH, Field
from fracinv.inverse import InverseSpec, StoppingRule, run_inversion
from fracinv.timestep import TimeGrid

alpha, T, eps, gamma = 0.5, 2.0, 1e-2, 1e-6
config = ExperimentConfig(problem="2d-disk", h=0.25, n_steps=10,
                          h_ref=0.07, n_steps_ref=80, seed=1)
problem, coarse, fine = make_meshes(config)
print(f"coarse mesh: {coarse.n_cells} cells, {coarse.n_vertices} vertices")
print(f"fine mesh:   {fine.n_cells} cells, {fine.n_vertices} vertices")

u_fine = solve_truth(problem, fine, alpha, TimeGrid(T, config.n_steps_ref)).terminal
u_ref = transfer_terminal(u_fine, coarse)
z, delta = add_noise(u_ref, fi.norm_linf(u_fine), eps, seed=1)

spec = InverseSpec(mesh=coarse, alpha=alpha, grid=TimeGrid(T, config.n_steps),
                   u0=problem.u0, f=problem.f, z_delta=z, gamma=gamma,
                   stop=StoppingRule(noise_level=delta, discrepancy_factor=1.05))
result = run_inversion(spec)

q_dag = fem.interpolate(coarse, VH, problem.q_true)
e_q = fi.norm_l2(Field(coarse, VH, result.q.values - q_dag.values))
print(f"converged={result.converged} after {result.iterations} iterations")
print(f"e_q = {e_q:.3e}")

# radial profile of truth vs reconstruction, for a quick eyeball
r = np.linalg.norm(coarse.vertices, axis=1)
order = np.argsort(r)
print(" r      q_true   q_recon")
for i in order[:: max(1, len(order) // 12)]:
    print(f" {r[i]:.3f}  {q_dag.values[i]:.4f}   {result.q.values[i]:.4f}")
