"""Backward-Euler convolution quadrature in time.

The fractional derivative of order alpha in (0, 1] is discretized on a
uniform grid by the convolution weights of the series expansion of
(1 - z)**alpha.  One implicit solve per step advances the state; the
system matrix tau**(-alpha) * M + K(q) is fixed over the whole march and
is factorized once, on the X_h factor layout its mesh builds once; the
sensitivity and adjoint marches along a forward trajectory reuse that
factorization.  The history term is evaluated in the rearranged form with
partial sums multiplying the initial state, which is how the quadrature
acts on differences from the initial value and avoids cancellation for
long histories.

The three marches sum their histories with one blocked routine,
:func:`_march` (after Hairer, Lubich and Schlichte 1985), whose block
products are dense Toeplitz GEMMs added into the states in place: exact up
to rounding, O(N^2) flops per degree of freedom at BLAS-3 speed, and no
memory beyond the state array but bounded temporaries.  Every march fills
its array forward in memory, the adjoint from V^N on.  Marches of at most
32 steps are the direct sum; longer ones use 8-step leaves.  The discrete
derivative of stored states is one such product, lower triangular, over
all of them.

The sensitivity solver differentiates the discrete forward march along a
coefficient direction, and the adjoint solver is its exact algebraic
transpose, so adjoint directional derivatives match sensitivity pairings
to solver tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from . import fem, linalg
from .fem import XH, Field
from .mesh import Mesh

# Longest one-leaf march, rows per leaf of longer ones, output rows per GEMM.
_LEAF = 32
_BLOCKED_LEAF = 8
_CHUNK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"step count must be a positive integer, got {self.N!r}")
        # so that tau**-alpha is finite for every alpha in (0, 1]
        if self.T / self.N < sys.float_info.min:
            raise ValueError(f"time step T/N={self.T / self.N:g} is below the smallest "
                             f"normal float {sys.float_info.min:g}")

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.N + 1)


def cq_weights(alpha: float, N: int) -> np.ndarray:
    """Weights b_0..b_N of (1 - z)**alpha via the stable ratio recurrence.

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
    return b


@dataclass(frozen=True, eq=False)
class Trajectory:
    """X_h states U^0..U^N of one march of order alpha, stored as an
    (N+1, n_dofs) array.

    A forward march also carries its factorized system tau**-alpha M + K(q),
    which the sensitivity and adjoint marches along that trajectory reuse
    together with its order.
    """

    mesh: Mesh
    grid: TimeGrid
    values: np.ndarray
    alpha: float
    solver: linalg.SpdSolver | None = None

    def __post_init__(self):
        expect = (self.grid.N + 1, fem.n_dofs(self.mesh, XH))
        if self.values.shape != expect:
            raise ValueError(f"state array has shape {self.values.shape}, "
                             f"expected {expect}")

    def field(self, n: int) -> Field:
        return Field(self.mesh, XH, self.values[n])

    @property
    def terminal(self) -> Field:
        # a copy, which does not keep the whole state array alive as a view would
        return Field(self.mesh, XH, self.values[self.grid.N].copy())


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
    The load F and P_h u0 come from :func:`fem.march_data`, so marches that
    share the mesh and the (f, u0) objects integrate them once.
    """
    b = cq_weights(alpha, grid.N)
    s = np.cumsum(b)
    geo = fem.geometry(mesh)
    mass, scale = geo.mass[XH], grid.tau ** -alpha
    # first: the projection's mass factor is freed before this march's is made
    load, start = fem.march_data(mesh, f, u0)
    solver = geo.factorize(XH, scale * mass.data + fem.assemble_stiffness(mesh, XH, q).data)
    states = np.zeros((grid.N + 1, fem.n_dofs(mesh, XH)))
    states[0] = start

    def step(n, hist):  # load + scale * (mass @ (s[n] * start - hist)), in place
        np.subtract(s[n] * start, hist, out=hist)
        rhs = mass @ hist
        rhs *= scale
        rhs += load
        return solver.solve(rhs)
    _march(states, b, step)
    return Trajectory(mesh, grid, states, alpha, solver)


def solve_sensitivity(forward: Trajectory, d: Field, grid: TimeGrid) -> Trajectory:
    """Derivative of the discrete forward map along the coefficient direction d.

    W^0 = 0 and each step carries the load -(d grad U^n, grad phi_i) plus
    the quadrature history of W; the map is linear in d.
    """
    solver, b, mass, scale, states = _along(forward, grid, d, fem.VH,
                                            "direction must be a V_h field")
    # -K(d) U^n for every n, as one sparse product
    load = -(fem._stiffness_with_coeff(forward.mesh, XH, d.values) @ forward.values.T).T
    _march(states, b, lambda n, hist: solver.solve(load[n] - scale * (mass @ hist)))
    return Trajectory(forward.mesh, grid, states, forward.alpha)


def solve_adjoint(forward: Trajectory, grid: TimeGrid,
                  terminal_residual: Field) -> AdjointSolution:
    """Transpose of the sensitivity map applied to the terminal residual.

    Runs backwards from A V^N = M r, each earlier state collecting the
    transposed quadrature history of the later ones: the forward history
    march on an array that holds V^N first.  The misfit-gradient dual
    vector pairs grad U^n with grad V^n, summed over the steps.
    """
    solver, b, mass, scale, states = _along(forward, grid, terminal_residual, XH,
                                            "terminal residual must be an X_h field")
    states[0] = solver.solve(mass @ terminal_residual.values)
    # V^N, ..., V^1; the last row (V^0) is not part of the march and stays zero
    _march(states[:-1], b, lambda n, hist: solver.solve(-scale * (mass @ hist)))
    states = states[::-1]  # in time order, a view
    pair = _gradient_pairing(forward.mesh, forward.values[1:], states[1:])
    dual = Field(forward.mesh, fem.VH, -fem.cell_average_load(forward.mesh, pair))
    return AdjointSolution(Trajectory(forward.mesh, grid, states, forward.alpha), dual)


def discrete_frac_derivative(traj: Trajectory) -> list[Field]:
    """tau**-alpha (U^n - s_n U^0 + sum_{k<n} b_{n-k} U^k) for n = 1..N: the
    quadrature derivative of the trajectory's order applied to it, with all
    histories in one lower-triangular Toeplitz product by :func:`_convolve`."""
    grid, values = traj.grid, traj.values
    b = cq_weights(traj.alpha, grid.N)
    out = np.multiply.outer(-np.cumsum(b)[1:], values[0])
    out += values[1:]
    _convolve(values[:-1], np.concatenate([np.zeros(grid.N), b[1:]]), out)
    out *= grid.tau ** -traj.alpha
    return [Field(traj.mesh, XH, row) for row in out]


def _march(x, b, step):
    """The one CQ history routine: x[n] = step(n, sum_{k<n} b[n-k] x[k]) for
    n = 1..len(x)-1, with x[0] given and the later rows zero on entry.

    Blocked history (Hairer, Lubich and Schlichte 1985): leaves of L rows
    from row 0 on sum their own history directly; a leaf that ends at row
    hi completes an aligned block of P rows (P = the lowest set bit of hi,
    L being a power of two), and one Toeplitz product adds that block's
    history to the next P rows.  Each pair of rows is counted once, in a
    leaf or in exactly one block product, so the result is the direct sum
    up to rounding, in O(N^2) GEMM flops per column.  A row not yet solved
    holds the history so far; step may overwrite hist.  A march of at most
    _LEAF steps is one leaf, the direct sum alone, which keeps each coarse
    inversion march (N <= 30) bit for bit; a longer one takes
    L = _BLOCKED_LEAF, which leaves each step at most 7 direct-sum rows.
    """
    rows = len(x)
    leaf = rows if rows <= _LEAF + 1 else _BLOCKED_LEAF
    for lo in range(0, rows, leaf):
        hi = min(lo + leaf, rows)
        for n in range(max(lo, 1), hi):
            hist = b[n - lo:0:-1] @ x[lo:n]  # oldest row first
            if lo:
                hist += x[n]
            x[n] = step(n, hist)
        if hi < rows:
            size = hi & -hi
            _convolve(x[hi - size:hi], b, x[hi:hi + size])


def _convolve(rows, b, out):
    """out[i] += sum_j b[len(rows) + i - j] rows[j]: a finished block's
    history added to the rows that follow it (slices of one state array, or
    the derivative's rows) by Toeplitz GEMMs that dgemm adds into _CHUNK
    rows of out at a time in place."""
    m = len(rows)
    # window[i, j] = b[m + i - j], the weight of row j
    window = np.lib.stride_tricks.sliding_window_view(b[1:m + len(out)], m)[:, ::-1]
    for c in range(0, len(out), _CHUNK):  # out.T += rows.T @ window.T, Fortran order
        dgemm(1.0, rows.T, np.ascontiguousarray(window[c:c + _CHUNK]).T, 1.0,
              out[c:c + _CHUNK].T, overwrite_c=True)


def _gradient_pairing(mesh, u, v):
    """Per cell, sum over the rows n of grad u[n] . grad v[n] for X_h state
    arrays u and v, in blocks of rows whose temporaries stay within the
    size of u.  The gradients come from the maps that
    :func:`fem.cell_gradient` applies, and the sums run in the order of a
    loop over its pairs, so the result is that loop's, bit for bit."""
    ops = fem.geometry(mesh).gradient_maps(XH)
    block = max(1, u.size // mesh.n_cells)
    pair = np.zeros(mesh.n_cells)
    for lo in range(0, len(u), block):
        ut, vt = u[lo:lo + block].T, v[lo:lo + block].T
        for column in sum((op @ ut) * (op @ vt) for op in ops).T:
            pair += column
    return pair


def _along(forward: Trajectory, grid: TimeGrid, field: Field, space: str, what: str):
    """The carried factor, CQ weights, X_h mass matrix, tau**-alpha and zero
    states of a march along forward on grid that takes field, named by what."""
    if forward.grid != grid:
        raise ValueError(f"trajectory grid {forward.grid} does not match {grid}")
    if forward.solver is None:
        raise ValueError("trajectory carries no factorized system; "
                         "march it with solve_forward")
    if field.mesh is not forward.mesh or field.space != space:
        raise ValueError(f"{what} on the forward mesh")
    return (forward.solver, cq_weights(forward.alpha, grid.N),
            fem.geometry(forward.mesh).mass[XH], grid.tau ** -forward.alpha,
            np.zeros((grid.N + 1, fem.n_dofs(forward.mesh, XH))))


def save_trajectory(traj: Trajectory, directory, mesh_file="") -> None:
    """Dump every state U^n as one field file ``u_<n>.field`` per step index."""
    from pathlib import Path
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    width = len(str(traj.grid.N))
    for n in range(traj.grid.N + 1):
        fem.save_field(traj.field(n), out / f"u_{n:0{width}d}.field",
                       name=f"u@t={traj.grid.times[n]:.12g}", mesh_file=mesh_file)
