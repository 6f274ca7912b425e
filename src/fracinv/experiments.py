"""Synthetic-data experiment protocol and numerical theory probes.

A sweep generates exact data on a fine space-time grid, pollutes it with
seeded Gaussian nodal noise, reconstructs the coefficient on a coarse
grid for every (alpha, T, noise level) combination, and reports the
coefficient and state errors together with fitted noise-convergence
rates.  The remaining entry points probe conclusions of the stability
theory: decay of the fractional time derivative, positivity of the
terminal-time weight, and the blow-up of the stability quotient for
small terminal times.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import fem, timestep
from .errors import FracinvError
from .fem import VH, XH, Field
from .inverse import InverseSpec, check_noise_level, check_settings, run_inversion
from .mesh import Mesh, save_mesh
from .problems import Problem, get_problem, march_grid, problem_mesh
from .timestep import TimeGrid, Trajectory

# Peak size of the stability probe's coefficient perturbations.
BUMP_AMPLITUDE = 0.1

CSV_COLUMNS = ("alpha", "T", "eps", "gamma", "delta", "e_q", "e_u",
               "iters", "converged", "reason", "seconds")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter grid and discretization choices for one sweep."""

    problem: str = "1d-sine"
    alphas: tuple = (0.5,)
    T_values: tuple | None = None  # None takes the problem's own T
    noise_levels: tuple = (1e-2,)
    gammas: tuple | None = None
    c_gamma: float = 4e-4
    h: float | None = None  # the four grids: None takes the problem's own
    n_steps: int | None = None
    h_ref: float | None = None
    n_steps_ref: int | None = None
    seed: int = 0
    c0: float = InverseSpec.c0
    c1: float = InverseSpec.c1
    max_iters: int = InverseSpec.max_iters
    discrepancy_factor: float = InverseSpec.discrepancy_factor
    output_dir: str | None = None

    def __post_init__(self):
        # reject bad input before any solve, through the library type's own
        # check wherever one exists
        problem = get_problem(self.problem)
        for key in ("h", "n_steps", "h_ref", "n_steps_ref"):
            if getattr(self, key) is None:
                object.__setattr__(self, key, getattr(problem, key))
        if self.T_values is None:
            object.__setattr__(self, "T_values", (problem.T,))
        # a string would reach a comparison below and raise a TypeError that
        # names no field
        scalars = ("h", "n_steps", "h_ref", "n_steps_ref", "c_gamma", "c0", "c1",
                   "discrepancy_factor")
        for key in scalars + ("alphas", "T_values", "noise_levels", "gammas"):
            value = getattr(self, key)
            items = (value,) if key in scalars else () if value is None else value
            if not all(isinstance(v, numbers.Real) for v in items):
                raise ValueError(f"{key} must be numeric, got {value!r}")
        check_truth_grid(self.h, self.n_steps, self.h_ref, self.n_steps_ref)
        for key in ("alphas", "T_values", "noise_levels"):  # no empty sweep, no row twice
            values = getattr(self, key)
            if not 0 < len(set(values)) == len(values):
                raise ValueError(f"{key} must be nonempty and distinct, got {values}")
        # both marches of every row, before any mesh is built
        for T in self.T_values:
            for h_key, n_key in (("h", "n_steps"), ("h_ref", "n_steps_ref")):
                march_grid(problem, getattr(self, h_key), getattr(self, n_key), T,
                           (h_key, n_key, "T_values"))
        if self.gammas is not None and len(self.gammas) != len(self.noise_levels):
            raise ValueError("explicit gammas must match the noise levels one-to-one")
        # eps scales each run's noise level delta, so it obeys delta's rule
        for alpha in self.alphas:
            for i, eps in enumerate(self.noise_levels):
                check_settings(alpha, self.gamma_for(i), self.c0, self.c1,
                               self.max_iters, self.discrepancy_factor, noise_level=eps)
        if not isinstance(self.seed, numbers.Integral):  # SeedSequence's TypeError names no field
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        np.random.SeedSequence(self.seed)
        # plain Python numbers, which the JSON report can write
        for key in ("alphas", "T_values", "noise_levels", "gammas"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, tuple(float(v) for v in getattr(self, key)))
        for key in scalars + ("seed", "max_iters"):
            value = getattr(self, key)
            object.__setattr__(self, key, (int if isinstance(value, numbers.Integral)
                                           else float)(value))

    def gamma_for(self, i: int) -> float:
        if self.gammas is not None:
            return self.gammas[i]
        return self.c_gamma * self.noise_levels[i] ** 2


@dataclass
class RunRecord:
    alpha: float
    T: float
    eps: float
    gamma: float
    delta: float
    e_q: float
    e_u: float
    iters: int
    converged: bool
    seconds: float
    reason: str = ""  # run_inversion's stop reason; empty for a failed run
    error: str | None = None


@dataclass
class RunReport:
    """Sweep output: per-run records plus fitted rates per (alpha, T) row."""

    config: ExperimentConfig
    records: list = dataclass_field(default_factory=list)
    rates: dict = dataclass_field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            writer.writerow([
                f"{r.alpha:.17g}", f"{r.T:.17g}", f"{r.eps:.17g}",
                f"{r.gamma:.17g}", f"{r.delta:.17g}", f"{r.e_q:.17g}",
                f"{r.e_u:.17g}", r.iters, int(r.converged), r.reason,
                f"{r.seconds:.3f}"])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "records": [asdict(r) for r in self.records],
            "rates": {f"alpha={a:g},T={t:g}": {"e_q": rq, "e_u": ru}
                      for (a, t), (rq, ru) in self.rates.items()},
        }
        # strict JSON: a non-finite number, such as a failed run's metric, is null
        payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        return json.dumps(payload, indent=2)


def check_truth_grid(h: float, n_steps: int, h_ref: float, n_steps_ref: int):
    """ValueError unless the truth grid is finer than the inversion grid."""
    if not 0.0 < h_ref < h < math.inf:
        raise ValueError(f"mesh sizes must satisfy 0 < h_ref={h_ref} < h={h} < inf")
    if n_steps_ref <= n_steps:
        raise ValueError(f"n_steps_ref={n_steps_ref} must exceed n_steps={n_steps}")


def solve_truth(problem: Problem, mesh: Mesh, alpha: float, grid: TimeGrid,
                ) -> Trajectory:
    """Forward march of the problem's own coefficient, initial state and source."""
    q = fem.interpolate(mesh, VH, problem.q_true)
    return timestep.solve_forward(mesh, q, problem.u0, problem.f, alpha, grid)


def transfer_terminal(u_fine: Field, coarse: Mesh) -> Field:
    """Evaluate the fine P1 terminal state at the coarse interior vertices."""
    vals = fem.evaluate_at_points(u_fine, coarse.vertices[fem.geometry(coarse).interior])
    return Field(coarse, XH, vals)


def exact_data(problem: Problem, fine: Mesh, coarse: Mesh, alpha: float,
               grid_ref: TimeGrid):
    """The problem's exact data on the coarse mesh and the L-inf norm that
    scales its noise, from one truth march on the fine mesh and grid_ref."""
    u_fine = solve_truth(problem, fine, alpha, grid_ref).terminal
    return transfer_terminal(u_fine, coarse), fem.norm_linf(u_fine)


def add_noise(u_coarse: Field, linf_ref: float, eps: float, seed: int):
    """Pointwise Gaussian noise scaled by eps times the max of the exact data.

    Returns the observation and the measured noise level delta (the
    mass-matrix L2 norm of the injected noise field).
    """
    check_noise_level(eps)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(u_coarse.values.shape)
    noise = eps * linf_ref * xi
    delta = fem.norm_l2(Field(u_coarse.mesh, XH, noise))
    return Field(u_coarse.mesh, XH, u_coarse.values + noise), delta


def compute_errors(q_star: Field, q_dag_ref: Field, u_terminal: Field,
                   u_ref_T: Field):
    """Coefficient and state errors (e_q, e_u) in L2 on the coarse mesh."""
    if q_star.mesh is not q_dag_ref.mesh or u_terminal.mesh is not u_ref_T.mesh:
        raise ValueError("error metrics require fields on a common mesh")
    e_q = fem.norm_l2(Field(q_star.mesh, q_star.space,
                            q_star.values - q_dag_ref.values))
    e_u = fem.norm_l2(Field(u_terminal.mesh, u_terminal.space,
                            u_terminal.values - u_ref_T.values))
    return e_q, e_u


def compute_rate(pairs) -> float:
    """Least-squares slope of log(e) against log(delta)."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("rate fit needs at least two points")
    d = np.array([p[0] for p in pairs], dtype=float)
    e = np.array([p[1] for p in pairs], dtype=float)
    if not ((0.0 < d) & (d < math.inf) & (0.0 < e) & (e < math.inf)).all():
        raise ValueError("rate fit needs positive finite entries")
    return float(np.polyfit(np.log(d), np.log(e), 1)[0])


def _run_seed(config: ExperimentConfig, row: int) -> int:
    # stable per-row seed: one noise realization per (alpha, T) row, scaled
    # by each noise level, as the published tables tabulate a single draw
    return config.seed + 100003 * row


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full grid, fit per-row rates and write CSV/JSON artifacts."""
    problem = get_problem(config.problem)
    coarse, fine = problem_mesh(problem, config.h), problem_mesh(problem, config.h_ref)
    q_dag_coarse = fem.interpolate(coarse, VH, problem.q_true)
    report = RunReport(config)
    out_dir = Path(config.output_dir) if config.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_mesh(coarse, out_dir / "coarse.mesh")

    rows = [(alpha, T) for alpha in config.alphas for T in config.T_values]
    # every truth solve first, so that the fine mesh, and the factorization
    # it caches, are freed before the inversions
    truths = [exact_data(problem, fine, coarse, alpha, TimeGrid(T, config.n_steps_ref))
              for alpha, T in rows]
    del fine
    for row_idx, ((alpha, T), (u_ref, linf_ref)) in enumerate(zip(rows, truths)):
        pairs_q, pairs_u = [], []
        for col, eps in enumerate(config.noise_levels):
            gamma = config.gamma_for(col)
            start = time.perf_counter()
            try:
                z, delta = add_noise(u_ref, linf_ref, eps, _run_seed(config, row_idx))
                spec = InverseSpec(
                    mesh=coarse, alpha=alpha, grid=TimeGrid(T, config.n_steps),
                    u0=problem.u0, f=problem.f, z_delta=z, gamma=gamma,
                    c0=config.c0, c1=config.c1, max_iters=config.max_iters,
                    noise_level=delta, discrepancy_factor=config.discrepancy_factor)
                result = run_inversion(spec)
                u_term = timestep.solve_forward(
                    coarse, result.q, spec.u0, spec.f, alpha, spec.grid).terminal
                e_q, e_u = compute_errors(result.q, q_dag_coarse, u_term, u_ref)
                rec = RunRecord(alpha, T, eps, gamma, delta, e_q, e_u,
                                result.iterations, result.converged,
                                time.perf_counter() - start, result.reason)
            except FracinvError as exc:  # a solver failure: record it, keep sweeping
                rec = RunRecord(alpha, T, eps, gamma, math.nan, math.nan,
                                math.nan, 0, False,
                                time.perf_counter() - start, error=str(exc))
            report.records.append(rec)
            if rec.error is None and rec.eps > 0 and rec.e_q > 0 and rec.e_u > 0:
                pairs_q.append((rec.eps, rec.e_q))
                pairs_u.append((rec.eps, rec.e_u))
            if out_dir is not None and rec.error is None:
                run_id = f"alpha{alpha:g}_T{T:g}_eps{rec.eps:g}"
                fem.save_field(result.q, out_dir / f"{run_id}_q.field",
                               name="q_reconstructed", mesh_file="coarse.mesh")
                err = Field(coarse, VH, q_dag_coarse.values - result.q.values)
                fem.save_field(err, out_dir / f"{run_id}_qerr.field",
                               name="q_error", mesh_file="coarse.mesh")
        rate_q = compute_rate(pairs_q) if len(pairs_q) >= 2 else None
        rate_u = compute_rate(pairs_u) if len(pairs_u) >= 2 else None
        report.rates[(alpha, T)] = (rate_q, rate_u)

    if out_dir is not None:
        (out_dir / "report.csv").write_text(report.to_csv())
        (out_dir / "report.json").write_text(report.to_json())
    return report


def verify_decay(problem: Problem, mesh: Mesh, alpha: float, grid: TimeGrid):
    """Weighted decay table of the discrete fractional derivative.

    Computes t_n**(alpha/2) * |d_tau^alpha U^n|_{W^{1,inf}} on the true
    coefficient's forward solve and reports (rows, max/min ratio over
    [1, T]), probing boundedness of the weighted quantity.
    """
    times = grid.times[1:]
    mask = (times >= 1.0) & (times <= grid.T)  # tau * N can round above T
    if not mask.any():
        raise ValueError("decay window [1, T] contains no time steps")
    traj = solve_truth(problem, mesh, alpha, grid)
    derivs = timestep.discrete_frac_derivative(traj)
    weighted = np.array([t ** (alpha / 2.0) * fem.seminorm_w1inf(dn)
                         for t, dn in zip(times, derivs)])
    window = weighted[mask]
    if not window.min() > 0.0:
        raise ValueError("the weighted derivative vanishes in the decay window "
                         "[1, T]: the problem's u0 and f leave the state at rest")
    return np.column_stack([times, weighted]), float(window.max() / window.min())


def check_positivity(problem: Problem, mesh: Mesh, alpha: float, grid: TimeGrid):
    """Minimum over cells of the terminal positivity weight
    q |grad u|^2 + (f - d_t^alpha u) u, vertex-sampled for the second term."""
    traj = solve_truth(problem, mesh, alpha, grid)
    u_term = traj.terminal
    d_term = timestep.discrete_frac_derivative(traj)[-1]
    grad = fem.cell_gradient(u_term)
    grad_sq = np.einsum("cd,cd->c", grad, grad)
    q = fem.interpolate(mesh, VH, problem.q_true)
    q_cell = q.values[mesh.cells].mean(axis=1)
    f_nodal = fem.interpolate(mesh, VH, problem.f).values
    second_nodal = (f_nodal - d_term.extend()) * u_term.extend()
    second_cell = second_nodal[mesh.cells].min(axis=1)
    cell_values = q_cell * grad_sq + second_cell
    return float(cell_values.min()), cell_values


def stability_quotient(problem: Problem, mesh: Mesh, alpha: float, grids,
                       perturbations):
    """Stability quotients |q - q_true| / |grad(u(q) - u(q_true))(T)|^(1/2).

    Marches the true problem and each coefficient of :func:`bump_perturbations`
    on each grid and returns {T: (quotients, max)}; a zero true terminal state
    raises ValueError."""
    out = {}
    for grid in grids:
        u_true = solve_truth(problem, mesh, alpha, grid).terminal
        if not np.any(u_true.values):
            raise ValueError(f"the true terminal state at T={grid.T:g} is zero: "
                             "the problem's u0 and f leave nothing to perturb")
        quotients = []
        for q, dq in perturbations:
            u = timestep.solve_forward(mesh, q, problem.u0, problem.f, alpha, grid).terminal
            du = fem.seminorm_h1(Field(mesh, XH, u.values - u_true.values))
            quotients.append(dq / math.sqrt(du) if du > 0.0 else math.inf)
        out[grid.T] = (quotients, max(quotients))
    return out


def bump_perturbations(problem: Problem, mesh: Mesh, n_perturbations: int,
                       seed: int):
    """Seeded smooth bumps of amplitude BUMP_AMPLITUDE on the true coefficient,
    which must exceed it on the mesh so that each stays positive: a list of
    (perturbed V_h coefficient, L2 norm of its change on the mesh)."""
    if n_perturbations < 1:
        raise ValueError(f"n_perturbations must be >= 1, got {n_perturbations}")
    q_true = fem.interpolate(mesh, VH, problem.q_true).values
    if not q_true.min() > BUMP_AMPLITUDE:
        raise ValueError(f"the coefficient must exceed the perturbation amplitude "
                         f"{BUMP_AMPLITUDE:g} on the mesh, got min {q_true.min():g}")
    rng = np.random.default_rng(seed)
    perturbed = []
    for _ in range(n_perturbations):
        q = q_true + _bump(mesh.vertices, rng)
        perturbed.append((Field(mesh, VH, q), fem.norm_l2(Field(mesh, VH, q - q_true))))
    return perturbed


def _bump(points, rng):
    """Values at the points of a wide Gaussian bump with random center, width
    and sign.

    Widths are kept large so the perturbation is dominated by low spatial
    modes: high-frequency coefficient content equilibrates the state at
    any positive time and would mask the small-T stability degradation
    the probe is after.
    """
    if points.shape[1] == 1:
        center = (rng.uniform(0.3, 0.7),)
        width = rng.uniform(0.25, 0.45)
    else:
        radius = 0.4 * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        center = (radius * math.cos(angle), radius * math.sin(angle))
        width = rng.uniform(0.4, 0.7)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    r2 = sum((x - c) ** 2 for x, c in zip(points.T, center))
    return sign * BUMP_AMPLITUDE * np.exp(-0.5 * r2 / width ** 2)
