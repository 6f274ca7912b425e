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


@dataclass(frozen=True)
class Problem:
    """Ground-truth data for a synthetic reconstruction benchmark."""

    name: str
    dim: int
    q_true: object
    u0: object
    f: object
    T: float


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
        T=1.0),
    "2d-disk": Problem(
        name="2d-disk", dim=2,
        q_true=_q_radial,
        u0=lambda x, y: 1.0 - x * x - y * y,
        f=lambda x, y: np.ones_like(x),
        T=2.0),
}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"available: {sorted(PROBLEMS)}") from None


def problem_mesh(problem: Problem, h: float) -> Mesh:
    """Mesh of the problem's domain with target size h.

    In 1D the size is rounded to the nearest uniform partition of (0, 1).
    A size that is not positive and finite, or that leaves no interior
    vertex (an empty X_h), raises ValueError.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    if problem.dim == 1:
        mesh = generate_interval_mesh(max(1, round(1.0 / h)))
    else:
        mesh = generate_disk_mesh(h)
    if mesh.boundary.all():
        raise ValueError(f"mesh size h={h} leaves the mesh without an interior vertex")
    return mesh
