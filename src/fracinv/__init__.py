"""Time-fractional diffusion with a variable coefficient: forward solves by
P1 finite elements and backward-Euler convolution quadrature, and
coefficient recovery from noisy terminal data by Tikhonov-regularized,
adjoint-driven projected conjugate gradients."""

from .errors import (DegenerateDirectionError, FracinvError,
                     InvalidCoefficientError, MeshFormatError,
                     MeshValidationError, NotSpdError)
from .fem import (VH, XH, Field, assemble_mass, assemble_stiffness,
                  evaluate_at_points, interpolate, l2_project, load_field,
                  load_vector, norm_l2, norm_linf, save_field, seminorm_h1,
                  seminorm_w1inf)
from .inverse import (InverseSpec, InversionResult, IterateState, StoppingRule,
                      cg_direction, gradient, objective, project_admissible,
                      run_inversion, smooth_direction, step_size)
from .linalg import SpdSolver, factorize
from .mesh import (Mesh, generate_disk_mesh, generate_interval_mesh, load_mesh,
                   save_mesh)
from .problems import PROBLEMS, Problem, get_problem, problem_mesh
from .experiments import (ExperimentConfig, RunRecord, RunReport, add_noise,
                          bump_perturbations, check_positivity, compute_errors,
                          compute_rate, run_sweep, solve_truth,
                          stability_quotient, transfer_terminal, verify_decay)
from .timestep import (AdjointSolution, TimeGrid, Trajectory, cq_weights,
                       discrete_frac_derivative, save_trajectory, solve_adjoint,
                       solve_forward, solve_sensitivity)

__version__ = "0.1.0"
