"""Regularized recovery of the diffusion coefficient from terminal data.

The reconstruction minimizes the output least-squares objective with an
H1-seminorm penalty over the box-constrained admissible set, by projected
conjugate gradients.  Each iteration solves one forward problem, one
adjoint problem for the gradient, and one sensitivity problem for the
linearized step size; the raw dual-space gradient is smoothed through the
full-H1 Riesz map before entering the update.

Conventions: ``gradient`` returns the dual (load) vector whose plain dot
product with nodal direction values is the directional derivative; the
inner products in the conjugate-direction and step formulas are
mass-matrix L2 products of the smoothed, primal objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import fem, timestep
from .errors import DegenerateDirectionError
from .fem import VH, XH, Field
from .mesh import Mesh
from .timestep import TimeGrid

MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class StoppingRule:
    """Stopping parameters: discrepancy when the noise level is known,
    otherwise a gradient-norm tolerance."""

    noise_level: float | None = None
    discrepancy_factor: float = 1.1
    gradient_tol: float = 1e-8


@dataclass(frozen=True, eq=False)
class InverseSpec:
    """One reconstruction problem: data, regularization and constraints."""

    mesh: Mesh
    alpha: float
    grid: TimeGrid
    u0: object
    f: object
    z_delta: Field
    gamma: float
    c0: float = 0.5
    c1: float = 5.0
    q_init: Field | None = None
    max_iters: int = 200
    stop: StoppingRule = dataclass_field(default_factory=StoppingRule)

    def __post_init__(self):
        if not (0.0 < self.c0 < self.c1):
            raise ValueError(f"bounds must satisfy 0 < c0 < c1, got ({self.c0}, {self.c1})")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if self.z_delta.mesh is not self.mesh or self.z_delta.space != XH:
            raise ValueError("observation must be an X_h field on the spec mesh")
        if not np.isfinite(self.z_delta.values).all():
            raise ValueError("observation has non-finite entries")
        if self.q_init is None:
            object.__setattr__(self, "q_init",
                               Field(self.mesh, VH, np.ones(self.mesh.n_vertices)))
        q0 = self.q_init.values
        if q0.min() < self.c0 or q0.max() > self.c1:
            raise ValueError("initial coefficient violates the admissible bounds")


@dataclass(frozen=True, eq=False)
class IterateState:
    """Per-iteration record of the conjugate gradient loop."""

    k: int
    q: Field
    J: float
    misfit: float
    penalty: float
    g: Field
    d: Field
    step: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class InversionResult:
    q: Field
    history: list
    converged: bool
    reason: str
    iterations: int


def project_admissible(q: Field, c0: float, c1: float) -> Field:
    """Nodal clamp of the coefficient to [c0, c1]."""
    return Field(q.mesh, q.space, np.clip(q.values, c0, c1))


def objective(spec: InverseSpec, q: Field):
    """Objective value as (J, misfit, penalty); runs one forward solve."""
    return _evaluate(spec, q)[1][:3]


def _evaluate(spec, q):
    """Forward march at q and the objective parts (J, misfit, penalty, residual)."""
    traj = timestep.solve_forward(spec.mesh, q, spec.u0, spec.f, spec.alpha, spec.grid)
    geo = fem.geometry(spec.mesh)
    r = traj.values[-1] - spec.z_delta.values
    misfit = 0.5 * float(r @ (geo.mass[XH] @ r))
    penalty = 0.5 * spec.gamma * float(q.values @ (geo.stiffness @ q.values))
    return traj, (misfit + penalty, misfit, penalty, r)


def gradient(spec: InverseSpec, q: Field) -> Field:
    """Dual-space gradient of the objective: adjoint misfit part plus the
    weak form of the Laplacian penalty with natural boundary conditions."""
    traj, parts = _evaluate(spec, q)
    return _raw_gradient(spec, q, traj, parts[3])


def _raw_gradient(spec, q, traj, residual):
    adj = timestep.solve_adjoint(traj, spec.alpha, spec.grid,
                                 Field(spec.mesh, XH, residual))
    reg = spec.gamma * (fem.geometry(spec.mesh).stiffness @ q.values)
    return Field(spec.mesh, VH, adj.misfit_gradient.values + reg)


def smooth_direction(mesh: Mesh, raw_gradient: Field) -> Field:
    """Descent direction from the full-H1 Riesz map: (M + K) g = -raw."""
    return Field(mesh, VH, fem.geometry(mesh).riesz_solver.solve(-raw_gradient.values))


def cg_direction(g_k: Field, g_prev: Field | None, d_prev: Field | None,
                 k: int) -> Field:
    """Fletcher-Reeves update d_k = beta_k d_{k-1} + g_k with L2 norms of the
    smoothed directions; restarts (beta = 0) at k = 0 or on a vanished g_prev.

    The recursion also restarts whenever beta would exceed one, i.e. when
    the smoothed gradient norm failed to decrease: past that point the
    two-term recursion amplifies the stale direction at every step and the
    iteration stagnates far from the discrepancy target.
    """
    if k == 0 or g_prev is None or d_prev is None:
        return g_k
    mass = fem.geometry(g_k.mesh).mass[g_k.space]
    denom = float(g_prev.values @ (mass @ g_prev.values))
    if denom == 0.0:
        return g_k
    beta = float(g_k.values @ (mass @ g_k.values)) / denom
    if beta > 1.0:
        return g_k
    return Field(g_k.mesh, g_k.space, beta * d_prev.values + g_k.values)


def step_size(spec: InverseSpec, q: Field, d: Field,
              forward: timestep.Trajectory) -> float:
    """Exact minimizer of the objective under the linearized forward map."""
    return _model_step(spec, q, d, forward)


def _model_step(spec, q, d, forward, cap_at_discrepancy=False):
    sens = timestep.solve_sensitivity(forward, d, spec.alpha, spec.grid)
    geo = fem.geometry(spec.mesh)
    mass_x = geo.mass[XH]
    w_term = sens.values[-1]
    r = forward.values[-1] - spec.z_delta.values
    kd = geo.stiffness @ d.values
    rw = float(r @ (mass_x @ w_term))
    ww = float(w_term @ (mass_x @ w_term))
    numer = -(rw + spec.gamma * float(q.values @ kd))
    denom = ww + spec.gamma * float(d.values @ kd)
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateDirectionError(
            "search direction lies in the null space of the linearized model")
    s = numer / denom
    if (cap_at_discrepancy and spec.stop.noise_level is not None
            and s > 0.0 and ww > 0.0):
        # do not step through the discrepancy sphere: if the linearized
        # residual at s would undershoot the stopping target, land on it
        rr = float(r @ (mass_x @ r))
        target = (spec.stop.discrepancy_factor * spec.stop.noise_level) ** 2
        if rr > target and rr + 2.0 * s * rw + s * s * ww < target:
            disc = rw * rw - ww * (rr - target)
            if disc >= 0.0:
                s_hit = (-rw - math.sqrt(disc)) / ww
                if 0.0 < s_hit < s:
                    s = s_hit
    return s


def run_inversion(spec: InverseSpec) -> InversionResult:
    """Projected conjugate gradient loop with a monotone-misfit safeguard.

    Stops on the discrepancy principle when the noise level is known, on a
    vanished smoothed gradient otherwise, or after ``max_iters`` steps (in
    which case the best iterate so far is returned with converged=False).
    If a model step fails to decrease the objective, the step is halved up
    to MAX_BACKTRACKS times and the conjugate recursion restarts from
    steepest descent.  When the noise level is known, model steps are also
    capped so the predicted residual lands on, rather than crosses, the
    discrepancy sphere.
    """
    mesh = spec.mesh
    mass_full = fem.geometry(mesh).mass[VH]
    q = project_admissible(spec.q_init, spec.c0, spec.c1)
    traj, (J, misfit, penalty, residual) = _evaluate(spec, q)

    history: list[IterateState] = []
    g_prev = None
    d_prev = None
    converged = False
    reason = "max_iters"

    for k in range(spec.max_iters):
        # discrepancy rule when the noise level is known; otherwise the
        # gradient test below is the stopping rule
        if spec.stop.noise_level is not None:
            if math.sqrt(2.0 * misfit) <= spec.stop.discrepancy_factor * spec.stop.noise_level:
                converged, reason = True, "discrepancy"
                break
        g = smooth_direction(mesh, _raw_gradient(spec, q, traj, residual))
        grad_norm = math.sqrt(max(float(g.values @ (mass_full @ g.values)), 0.0))
        if spec.stop.noise_level is None and grad_norm <= spec.stop.gradient_tol:
            converged, reason = True, "gradient"
            break

        d = cg_direction(g, g_prev, d_prev, k)
        accepted = None
        for direction in (d, g) if d is not g else (d,):
            try:
                s = _model_step(spec, q, direction, traj, cap_at_discrepancy=True)
            except DegenerateDirectionError:
                continue
            for _ in range(MAX_BACKTRACKS + 1):
                q_try = project_admissible(
                    Field(mesh, VH, q.values + s * direction.values), spec.c0, spec.c1)
                traj_try, parts = _evaluate(spec, q_try)
                if parts[0] <= J:
                    accepted = (q_try, traj_try, parts, direction, s)
                    break
                s *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            reason = "stalled"
            break

        # the old trajectory, and with it its factorization, is released here
        q_new, traj, (J, misfit, penalty, residual), d_used, s_used = accepted
        stalled = np.array_equal(q_new.values, q.values)
        q = q_new
        history.append(IterateState(k, q, J, misfit, penalty, g, d_used, s_used,
                                    grad_norm))
        if stalled:
            reason = "stalled"
            break
        g_prev, d_prev = g, d_used

    iterations = len(history)
    return InversionResult(q, history, converged, reason, iterations)
