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
from dataclasses import dataclass

import numpy as np

from . import fem, timestep
from .errors import DegenerateDirectionError
from .fem import VH, XH, Field
from .mesh import Mesh
from .timestep import TimeGrid

MAX_BACKTRACKS = 20


@dataclass(frozen=True, eq=False)
class InverseSpec:
    """One reconstruction problem: data, regularization, constraints and the
    stopping rule, the discrepancy principle when the noise level is known
    and otherwise a gradient-norm tolerance."""

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
    noise_level: float | None = None
    discrepancy_factor: float = 1.1
    gradient_tol: float = 1e-8

    def __post_init__(self):
        check_settings(self.alpha, self.gamma, self.c0, self.c1, self.max_iters,
                       self.discrepancy_factor, self.gradient_tol, self.noise_level)
        if self.z_delta.mesh is not self.mesh or self.z_delta.space != XH:
            raise ValueError("observation must be an X_h field on the spec mesh")
        if not np.isfinite(self.z_delta.values).all():
            raise ValueError("observation has non-finite entries")
        if self.q_init is None:
            object.__setattr__(self, "q_init",
                               Field(self.mesh, VH, np.ones(self.mesh.n_vertices)))
        if self.q_init.mesh is not self.mesh or self.q_init.space != VH:
            raise ValueError("initial coefficient must be a V_h field on the spec mesh")
        q0 = self.q_init.values
        if not np.isfinite(q0).all():
            raise ValueError("initial coefficient has non-finite entries")
        if not ((q0 >= self.c0) & (q0 <= self.c1)).all():
            raise ValueError("initial coefficient violates the admissible bounds")


def check_settings(alpha, gamma, c0, c1, max_iters, discrepancy_factor,
                   gradient_tol=InverseSpec.gradient_tol, noise_level=None):
    """ValueError unless the scalar settings of an :class:`InverseSpec` are
    admissible; the one place their rules are written."""
    timestep.cq_weights(alpha, 0)
    if noise_level is not None:
        check_noise_level(noise_level)
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    if not 0.0 < c0 < c1:
        raise ValueError(f"bounds must satisfy 0 < c0 < c1, got ({c0}, {c1})")
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"max_iters must be a nonnegative integer, got {max_iters!r}")
    if not 0.0 < discrepancy_factor < math.inf:
        raise ValueError("discrepancy factor must be positive and finite, "
                         f"got {discrepancy_factor}")
    if not 0.0 <= gradient_tol < math.inf:
        raise ValueError("gradient tolerance must be nonnegative and finite, "
                         f"got {gradient_tol}")


def check_noise_level(level):
    """ValueError unless level is a noise level: nonnegative and finite."""
    if not 0.0 <= level < math.inf:
        raise ValueError(f"noise level must be nonnegative and finite, got {level}")


@dataclass(frozen=True, eq=False)
class IterateState:
    """Per-iteration record of the conjugate gradient loop."""

    k: int
    q: Field
    J: float
    misfit: float
    penalty: float
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
    adj = timestep.solve_adjoint(traj, spec.grid, Field(spec.mesh, XH, residual))
    reg = spec.gamma * (fem.geometry(spec.mesh).stiffness @ q.values)
    return Field(spec.mesh, VH, adj.misfit_gradient.values + reg)


def smooth_direction(mesh: Mesh, raw_gradient: Field) -> Field:
    """Descent direction from the full-H1 Riesz map: (M + K) g = -raw."""
    return Field(mesh, VH, fem.geometry(mesh).riesz_solver.solve(-raw_gradient.values))


def cg_direction(g_k: Field, g_prev: Field | None, d_prev: Field | None) -> Field:
    """Fletcher-Reeves update d_k = beta_k d_{k-1} + g_k with L2 norms of the
    smoothed directions; restarts (beta = 0) without a previous direction
    (the first iteration) or on a vanished g_prev.

    The recursion also restarts whenever beta would exceed one, i.e. when
    the smoothed gradient norm failed to decrease: past that point the
    two-term recursion amplifies the stale direction at every step and the
    iteration stagnates far from the discrepancy target.
    """
    if g_prev is None or d_prev is None:
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
    """Exact minimizer of the objective under the linearized forward map;
    with a known noise level, a positive step is capped so the linearized
    residual lands a relative 1e-8 inside, not across, the discrepancy sphere."""
    sens = timestep.solve_sensitivity(forward, d, spec.grid)
    geo = fem.geometry(spec.mesh)
    mass_x = geo.mass[XH]
    w_term = sens.values[-1]
    r = forward.values[-1] - spec.z_delta.values
    kd = geo.stiffness @ d.values
    mw = mass_x @ w_term
    rw, ww = float(r @ mw), float(w_term @ mw)
    numer = -(rw + spec.gamma * float(q.values @ kd))
    denom = ww + spec.gamma * float(d.values @ kd)
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateDirectionError(
            "search direction lies in the null space of the linearized model")
    s = numer / denom
    if spec.noise_level is not None and s > 0.0 and ww > 0.0:
        # aim the linearized residual just inside the discrepancy sphere, not
        # through it, nor onto it, where rounding would decide the stop test
        rr = float(r @ (mass_x @ r))
        target = ((1.0 - 1e-8) * spec.discrepancy_factor * spec.noise_level) ** 2
        if rr > target and rr + 2.0 * s * rw + s * s * ww < target:
            disc = rw * rw - ww * (rr - target)
            if disc >= 0.0:
                s_hit = (-rw - math.sqrt(disc)) / ww
                if 0.0 < s_hit < s:
                    s = s_hit
    return s


def run_inversion(spec: InverseSpec) -> InversionResult:
    """Projected conjugate gradient loop with a monotone-misfit safeguard.

    Stops on the discrepancy principle when the noise level is known (the
    last iterate included), on a vanished smoothed gradient otherwise, or
    after ``max_iters`` steps (in which case the best iterate so far is
    returned with converged=False).
    If a model step fails to decrease the objective, the step is halved up
    to MAX_BACKTRACKS times and the conjugate recursion restarts from
    steepest descent.  Model steps come from :func:`step_size`.
    """
    mesh = spec.mesh
    q = project_admissible(spec.q_init, spec.c0, spec.c1)
    traj, (J, misfit, penalty, residual) = _evaluate(spec, q)

    history: list[IterateState] = []
    g_prev = None
    d_prev = None
    converged = False
    reason = "max_iters"

    for k in range(spec.max_iters + 1):
        # discrepancy rule when the noise level is known; otherwise the
        # gradient test below is the stopping rule.  The misfit is known
        # without a further march, so the last iterate is tested too.
        if spec.noise_level is not None:
            if math.sqrt(2.0 * misfit) <= spec.discrepancy_factor * spec.noise_level:
                converged, reason = True, "discrepancy"
                break
        if k == spec.max_iters:
            break
        g = smooth_direction(mesh, _raw_gradient(spec, q, traj, residual))
        grad_norm = fem.norm_l2(g)
        if spec.noise_level is None and grad_norm <= spec.gradient_tol:
            converged, reason = True, "gradient"
            break

        d = cg_direction(g, g_prev, d_prev)
        accepted = None
        for direction in (d, g) if d is not g else (d,):
            try:
                s = step_size(spec, q, direction, traj)
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
        history.append(IterateState(k, q, J, misfit, penalty, s_used, grad_norm))
        if stalled:
            reason = "stalled"
            break
        g_prev, d_prev = g, d_used

    iterations = len(history)
    return InversionResult(q, history, converged, reason, iterations)
