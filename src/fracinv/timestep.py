"""Backward-Euler convolution quadrature in time.

The fractional derivative of order alpha in (0, 1] is discretized on a
uniform grid by the convolution weights of the series expansion of
(1 - z)**alpha.  One implicit solve per step advances the state; the
system matrix tau**(-alpha) * M + K(q) is fixed over the whole march and
is factorized once; the sensitivity and adjoint marches along a forward
trajectory reuse that factorization.  The history term is evaluated in
the rearranged form with partial sums multiplying the initial state,
which is how the quadrature acts on differences from the initial value
and avoids cancellation for long histories.

The sensitivity solver differentiates the discrete forward march along a
coefficient direction, and the adjoint solver is its exact algebraic
transpose, so adjoint directional derivatives match sensitivity pairings
to solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem, linalg
from .fem import XH, Field
from .mesh import Mesh


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        if self.N < 1:
            raise ValueError(f"step count must be >= 1, got {self.N}")

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.N + 1)


@dataclass(frozen=True, eq=False)
class CQWeights:
    """Convolution quadrature weights b_0..b_N for a given order."""

    alpha: float
    b: np.ndarray

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.b)


def cq_weights(alpha: float, N: int) -> CQWeights:
    """Weights of (1 - z)**alpha via the stable ratio recurrence.

    b_0 = 1 and b_j = b_{j-1} (j - 1 - alpha) / j; every factor has
    magnitude below one, so the recurrence loses no accuracy even for
    thousands of weights.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    b = np.empty(N + 1)
    b[0] = 1.0
    if N > 0:
        j = np.arange(1, N + 1, dtype=float)
        b[1:] = np.cumprod((j - 1.0 - alpha) / j)
    return CQWeights(alpha, b)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States U^0..U^N of one march, stored as an (N+1, n_dofs) array.

    A forward march also carries its factorized system tau**-alpha M + K(q)
    and its order alpha, which the sensitivity and adjoint marches along
    that trajectory reuse.
    """

    mesh: Mesh
    space: str
    grid: TimeGrid
    values: np.ndarray
    alpha: float | None = None
    solver: linalg.SpdSolver | None = None

    def __post_init__(self):
        expect = (self.grid.N + 1, fem.n_dofs(self.mesh, self.space))
        if self.values.shape != expect:
            raise ValueError(f"state array has shape {self.values.shape}, "
                             f"expected {expect}")

    def __len__(self) -> int:
        return self.grid.N + 1

    def field(self, n: int) -> Field:
        return Field(self.mesh, self.space, self.values[n])

    @property
    def terminal(self) -> Field:
        return self.field(self.grid.N)


@dataclass(frozen=True, eq=False)
class AdjointSolution:
    """Adjoint states V^1..V^N (slot 0 of the trajectory is zero) and the
    assembled misfit-gradient dual vector on V_h.

    The dual vector g satisfies g . d = (terminal_residual, W^N(d)) for
    every coefficient direction d, with W the sensitivity trajectory.
    """

    states: Trajectory
    misfit_gradient: Field


def solve_forward(mesh: Mesh, q: Field, u0, f, alpha: float, grid: TimeGrid,
                  ) -> Trajectory:
    """March the fully discrete scheme from U^0 = P_h u0.

    Each step solves (tau**-alpha * M + K(q)) U^n = F + tau**-alpha *
    M (s_n U^0 - sum_{j=1..n} b_j U^{n-j}) with s_n the partial weight sum.
    """
    weights = cq_weights(alpha, grid.N)
    b, s = weights.b, weights.partial_sums
    mass = fem.geometry(mesh).mass[XH]
    scale = grid.tau ** -alpha
    solver = linalg.factorize(scale * mass + fem.assemble_stiffness(mesh, XH, q))
    load = fem.load_vector(mesh, XH, f)
    states = np.empty((grid.N + 1, fem.n_dofs(mesh, XH)))
    states[0] = fem.l2_project(mesh, u0).values
    for n in range(1, grid.N + 1):
        hist = b[n:0:-1] @ states[:n]
        states[n] = solver.solve(load + scale * (mass @ (s[n] * states[0] - hist)))
    return Trajectory(mesh, XH, grid, states, alpha, solver)


def solve_sensitivity(forward: Trajectory, d: Field, alpha: float,
                      grid: TimeGrid) -> Trajectory:
    """Derivative of the discrete forward map along the coefficient direction d.

    W^0 = 0 and each step carries the load -(d grad U^n, grad phi_i) plus
    the quadrature history of W; the map is linear in d.
    """
    solver = _forward_system(forward, alpha, grid)
    mesh = forward.mesh
    if d.mesh is not mesh or d.space != fem.VH:
        raise ValueError("direction must be a V_h field on the forward mesh")
    b = cq_weights(alpha, grid.N).b
    mass = fem.geometry(mesh).mass[XH]
    stiff_d = fem._stiffness_with_coeff(mesh, XH, d.values)
    scale = grid.tau ** -alpha
    states = np.zeros((grid.N + 1, fem.n_dofs(mesh, XH)))
    for n in range(1, grid.N + 1):
        hist = b[n:0:-1] @ states[:n]
        states[n] = solver.solve(-(stiff_d @ forward.values[n]) - scale * (mass @ hist))
    return Trajectory(mesh, XH, grid, states)


def solve_adjoint(forward: Trajectory, alpha: float, grid: TimeGrid,
                  terminal_residual: Field) -> AdjointSolution:
    """Transpose of the sensitivity map applied to the terminal residual.

    Runs backwards from A V^N = M r, each earlier state collecting the
    transposed quadrature history of the later ones, and accumulates the
    per-step pairings of grad U^n with grad V^n into the misfit-gradient
    dual vector.
    """
    solver = _forward_system(forward, alpha, grid)
    mesh = forward.mesh
    if terminal_residual.mesh is not mesh or terminal_residual.space != XH:
        raise ValueError("terminal residual must be an X_h field on the forward mesh")
    b = cq_weights(alpha, grid.N).b
    mass = fem.geometry(mesh).mass[XH]
    scale = grid.tau ** -alpha
    n_steps = grid.N
    states = np.zeros((n_steps + 1, fem.n_dofs(mesh, XH)))
    states[n_steps] = solver.solve(mass @ terminal_residual.values)
    for n in range(n_steps - 1, 0, -1):
        hist = b[1:n_steps - n + 1] @ states[n + 1:]
        states[n] = solver.solve(-scale * (mass @ hist))
    adj = Trajectory(mesh, XH, grid, states)
    pair = np.zeros(mesh.n_cells)
    for n in range(1, n_steps + 1):
        gu = fem.cell_gradient(forward.field(n))
        gv = fem.cell_gradient(adj.field(n))
        pair += np.einsum("cd,cd->c", gu, gv)
    dual = Field(mesh, fem.VH, -fem.cell_average_load(mesh, pair))
    return AdjointSolution(adj, dual)


def discrete_frac_derivative(traj: Trajectory, alpha: float) -> list[Field]:
    """The quadrature derivative applied to a trajectory, for n = 1..N."""
    grid = traj.grid
    weights = cq_weights(alpha, grid.N)
    b, s = weights.b, weights.partial_sums
    scale = grid.tau ** -alpha
    out = []
    for n in range(1, grid.N + 1):
        hist = b[n::-1] @ traj.values[:n + 1]
        out.append(Field(traj.mesh, traj.space,
                         scale * (hist - s[n] * traj.values[0])))
    return out


def _forward_system(forward: Trajectory, alpha: float, grid: TimeGrid):
    """The factorized system a forward trajectory carries, checked against
    the order and grid of the march that is to reuse it."""
    if forward.grid != grid:
        raise ValueError(f"trajectory grid {forward.grid} does not match {grid}")
    if forward.solver is None:
        raise ValueError("trajectory carries no factorized system; "
                         "march it with solve_forward")
    if forward.alpha != alpha:
        raise ValueError(f"trajectory order alpha={forward.alpha} does not match {alpha}")
    return forward.solver


def save_trajectory(traj: Trajectory, directory, name="u", mesh_file="") -> None:
    """Dump every state as one field file per step index."""
    from pathlib import Path
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    width = len(str(traj.grid.N))
    for n in range(traj.grid.N + 1):
        fem.save_field(traj.field(n), out / f"{name}_{n:0{width}d}.field",
                       name=f"{name}@t={traj.grid.times[n]:.12g}",
                       mesh_file=mesh_file)
