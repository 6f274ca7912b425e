"""End-to-end 1D reconstruction from noisy terminal data.

Generates exact data on a fine space-time grid, pollutes it with 1%
pointwise Gaussian noise, and recovers the diffusion coefficient on the
coarse grid by the projected conjugate gradient iteration with the
discrepancy stopping rule.  Prints the iteration history and the final
errors, and dumps the reconstruction next to the script.
"""

from pathlib import Path

import fracinv as fi
from fracinv import fem
from fracinv.experiments import ExperimentConfig, add_noise, exact_data, make_meshes
from fracinv.fem import VH, XH, Field
from fracinv.inverse import InverseSpec, run_inversion
from fracinv.timestep import TimeGrid

alpha, T, eps = 0.5, 1.0, 1e-2
config = ExperimentConfig(problem="1d-sine", seed=1)  # the problem's own grids
problem, coarse, fine = make_meshes(config)

print(f"truth solve on {fine.n_cells} cells x {config.n_steps_ref} steps ...")
u_ref, linf = exact_data(problem, fine, coarse, alpha, TimeGrid(T, config.n_steps_ref))
z, delta = add_noise(u_ref, linf, eps, seed=1)
print(f"noise level delta = {delta:.3e}")

spec = InverseSpec(mesh=coarse, alpha=alpha, grid=TimeGrid(T, config.n_steps),
                   u0=problem.u0, f=problem.f, z_delta=z, gamma=4e-8,
                   noise_level=delta, discrepancy_factor=1.05)
result = run_inversion(spec)

print(f"stopped after {result.iterations} iterations ({result.reason})")
for it in result.history:
    print(f"  k={it.k:3d}  J={it.J:.4e}  misfit={it.misfit:.4e}  "
          f"|g|={it.grad_norm:.2e}  s={it.step:.2e}")

q_dag = fem.interpolate(coarse, VH, problem.q_true)
e_q = fi.norm_l2(Field(coarse, VH, result.q.values - q_dag.values))
u_term = fi.solve_forward(coarse, result.q, problem.u0, problem.f, alpha,
                          spec.grid).terminal
e_u = fi.norm_l2(Field(coarse, XH, u_term.values - u_ref.values))
print(f"e_q = {e_q:.3e}   e_u = {e_u:.3e}")

out = Path(__file__).resolve().parent / "out-1d"
out.mkdir(exist_ok=True)
fi.save_mesh(coarse, out / "mesh.txt")
fem.save_field(result.q, out / "q_reconstructed.field",
               name="q_reconstructed", mesh_file="mesh.txt")
fem.save_field(Field(coarse, VH, q_dag.values - result.q.values),
               out / "q_error.field", name="q_error", mesh_file="mesh.txt")
print(f"field dumps written to {out}")
