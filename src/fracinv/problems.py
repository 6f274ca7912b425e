"""Built-in benchmark problems with smooth clipped coefficients.

Both problems use unit source f = 1 and a nonnegative initial state that
vanishes on the boundary, which places them inside the regime where the
terminal-time positivity weight is strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, generate_disk_mesh, generate_interval_mesh
from .timestep import TimeGrid


@dataclass(frozen=True)
class Problem:
    """Ground-truth data for a synthetic reconstruction benchmark."""

    name: str
    dim: int
    q_true: object
    u0: object
    f: object
    T: float
    h: float  # default grids: the inversion's mesh size and step count,
    n_steps: int
    h_ref: float  # and the finer truth grid its exact data come from
    n_steps_ref: int


def _q_sine(x):
    return np.clip(1.0 + 0.25 * np.sin(np.pi * x), 67.0 / 64.0, 319.0 / 256.0)


def _q_radial(x, y):
    r2 = x * x + y * y
    return np.clip(1.0 + 0.25 * np.cos(0.5 * np.pi * r2), 71.0 / 64.0, 319.0 / 256.0)


PROBLEMS = {
    "1d-sine": Problem(
        name="1d-sine", dim=1,
        q_true=_q_sine,
        u0=lambda x: x * (1.0 - x),
        f=lambda x: np.ones_like(x),
        T=1.0, h=1.0 / 113.0, n_steps=30, h_ref=1.0 / 1600.0, n_steps_ref=1280),
    "2d-disk": Problem(
        name="2d-disk", dim=2,
        q_true=_q_radial,
        u0=lambda x, y: 1.0 - x * x - y * y,
        f=lambda x, y: np.ones_like(x),
        T=2.0, h=0.1, n_steps=20, h_ref=0.05, n_steps_ref=160),
}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"available: {sorted(PROBLEMS)}") from None


# Largest mesh problem_mesh builds, in vertices: 17 times the disk mesh of
# h = 0.035 (5677 vertices) and 62 times the interval of h = 1/1600.  A
# march stores (N+1) states of about this many entries, 1 GB at N = 1280,
# and check_march admits no march that stores more.
MAX_VERTICES = 100_000


def vertex_count(problem: Problem, h: float) -> int:
    """Vertices of the problem's mesh of size h, predicted without building it
    (n + 1 for n cells, 1 + 3m(m + 1) for m disk rings); ValueError for a size
    that is not positive and finite, that leaves no interior vertex (an empty
    X_h: one cell of the interval), that is 1 or more on the disk, or whose
    mesh exceeds MAX_VERTICES."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    # the clamp keeps a size too small to count over the budget
    if problem.dim == 1:
        n_vertices = round(min(1.0 / h, MAX_VERTICES)) + 1
        if n_vertices < 3:
            raise ValueError(f"mesh size h={h} leaves the mesh without an interior vertex")
    else:
        if h >= 1.0:
            raise ValueError(f"mesh size on the disk must be below 1, got {h}")
        rings = math.ceil(min(1.5 / h, MAX_VERTICES))
        n_vertices = 1 + 3 * rings * (rings + 1)
    if n_vertices > MAX_VERTICES:
        raise ValueError(f"mesh size h={h} would build more than the "
                         f"{MAX_VERTICES} vertices a mesh may have")
    return n_vertices


def check_march(n_vertices: int, n_steps: int):
    """ValueError for a march of n_steps on a mesh of n_vertices whose
    (n_steps + 1) stored states would hold more values than 1281 states of
    MAX_VERTICES values each."""
    budget = MAX_VERTICES * 1281
    if (n_steps + 1) * n_vertices > budget:
        raise ValueError(f"{n_steps} steps on {n_vertices} vertices would store "
                         f"more than the {budget} state values a march may hold")


def march_grid(problem: Problem, h: float, n_steps: int, T: float, keys) -> TimeGrid:
    """The time grid of a march of n_steps to T on the problem's mesh of size
    h, which is not built: the mesh size passes :func:`vertex_count`, the
    march :func:`check_march` and the grid :class:`TimeGrid`, in that order.
    keys labels (h, n_steps, T) for the caller, and a ValueError begins with
    the labels of the values it rejects."""
    h_key, n_key, T_key = keys
    n_vertices = _named(h_key, vertex_count, problem, h)
    _named(f"{h_key}, {n_key}", check_march, n_vertices, n_steps)
    return _named(f"{T_key}, {n_key}", TimeGrid, T, n_steps)


def _named(labels, rule, *args):
    try:
        return rule(*args)
    except ValueError as exc:
        raise ValueError(f"{labels}: {exc}") from None


def problem_mesh(problem: Problem, h: float) -> Mesh:
    """Mesh of the problem's domain with target size h, in 1D the nearest
    uniform partition of (0, 1); a size :func:`vertex_count` rejects raises
    ValueError."""
    n = vertex_count(problem, h)
    return generate_interval_mesh(n - 1) if problem.dim == 1 else generate_disk_mesh(h)
