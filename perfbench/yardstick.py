"""Fixed reference computations that the harness times next to each call.

The host is shared with other guests, and they slow every process on it,
pure-Python loops included, by up to 2x for seconds to hours at a time.
Process CPU time slows with it (steal time stays near 0), so it does not
help.  A yardstick is a computation in plain numpy and scipy that uses the
same resources as one workload's call and never changes with the program.
Timed right before and after each call, it slows with the call, and the
ratio of the two times cancels most of the host's slow spells.

The yardstick runs in the workload's process and thread, so that it meets
the same core and cache as the call.  ``march`` keeps its 16 MB state
array between runs: it adds a constant to the process's peak RSS rather
than setting a floor under it that would hide a memory saving.

``march`` is forward-1d's hot loop: a backward-Euler CQ march with a direct
history sum over a 1280 x 1599 state array and a tridiagonal solve per
step.  ``assembly`` is sweep-2d's mix: P1 stiffness assembly on a 1352-cell
triangulation, a sparse LU factorization of the 625-dof system and 12
solves, repeated; mostly small numpy calls and interpreter work.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


_STATES: dict[tuple[int, int], np.ndarray] = {}


def march(n_dofs: int = 1599, n_steps: int = 1280) -> float:
    """Direct-history CQ march; returns a checksum of the final state."""
    ones = np.ones(n_dofs - 1)
    system = sp.diags([-ones, 2.5 * np.ones(n_dofs), -ones], [-1, 0, 1], format="csc")
    lu = splu(system)
    weights = 1.0 / np.arange(1, n_steps + 2) ** 1.5
    shape = (n_steps + 1, n_dofs)
    if shape not in _STATES:
        _STATES[shape] = np.empty(shape)
    states = _STATES[shape]  # every row is written before it is read
    states[0] = 1.0
    for n in range(1, n_steps + 1):
        states[n] = lu.solve(states[0] - weights[n:0:-1] @ states[:n])
    return float(states[-1].sum())


def _square_mesh(k: int):
    """Vertices and triangles of a k x k grid of the unit square."""
    x = np.linspace(0.0, 1.0, k + 1)
    vertices = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    v00 = (i * (k + 1) + j).ravel()
    v10, v01, v11 = v00 + k + 1, v00 + 1, v00 + k + 2
    cells = np.concatenate([np.stack([v00, v10, v11], 1), np.stack([v00, v11, v01], 1)])
    return vertices, cells


def _stiffness(vertices, cells, coeff):
    corners = vertices[cells]
    edges = corners[:, 1:] - corners[:, :1]
    area = 0.5 * np.abs(np.linalg.det(edges))
    inv = np.linalg.inv(edges)
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2).transpose(0, 2, 1)
    local = np.einsum("cid,cjd->cij", grads, grads) * (area * coeff[cells].mean(axis=1))[:, None, None]
    rows = np.repeat(cells, 3, axis=1).ravel()
    cols = np.tile(cells, (1, 3)).ravel()
    n = len(vertices)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assembly(rounds: int = 1000, k: int = 26) -> float:
    """Repeated assembly, factorization and solves; returns a checksum."""
    vertices, cells = _square_mesh(k)
    edge = (np.isclose(vertices, 0.0) | np.isclose(vertices, 1.0)).any(axis=1)
    interior = np.flatnonzero(~edge)
    mass = sp.identity(len(interior), format="csr") * (1.0 / k**2)
    load = np.ones(len(interior))
    total = 0.0
    for r in range(rounds):
        coeff = 1.0 + 0.5 * np.sin(vertices[:, 0] * (r + 1))
        stiff = _stiffness(vertices, cells, coeff)[interior][:, interior]
        lu = splu((mass + 0.1 * stiff).tocsc())
        u = load
        for _ in range(12):
            u = lu.solve(mass @ u)
        total += float(u.sum())
    return total

