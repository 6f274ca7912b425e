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
import time
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import fem, timestep
from .errors import FracinvError
from .fem import VH, XH, Field
from .inverse import InverseSpec, StoppingRule, run_inversion
from .mesh import Mesh, save_mesh
from .problems import Problem, get_problem, problem_mesh
from .timestep import TimeGrid

CSV_COLUMNS = ("alpha", "T", "eps", "gamma", "delta", "e_q", "e_u",
               "iters", "converged", "reason", "seconds")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter grid and discretization choices for one sweep."""

    problem: str = "1d-sine"
    alphas: tuple = (0.5,)
    T_values: tuple = (1.0,)
    noise_levels: tuple = (1e-2,)
    gammas: tuple | None = None
    c_gamma: float = 4e-4
    h: float = 1.0 / 113.0
    n_steps: int = 30
    h_ref: float = 1.0 / 1600.0
    n_steps_ref: int = 1280
    seed: int = 0
    bounds: tuple = (0.5, 5.0)
    max_iters: int = 200
    discrepancy_factor: float = 1.1
    output_dir: str | None = None

    def __post_init__(self):
        if self.h_ref >= self.h:
            raise ValueError("reference mesh must be finer than the coarse mesh")
        if self.n_steps_ref <= self.n_steps:
            raise ValueError("reference step count must exceed the coarse one")
        if any(eps < 0 for eps in self.noise_levels):
            raise ValueError("noise levels must be nonnegative")
        if self.gammas is not None and len(self.gammas) != len(self.noise_levels):
            raise ValueError("explicit gammas must match the noise levels one-to-one")

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
        return json.dumps(payload, indent=2)


def make_meshes(config: ExperimentConfig):
    """Coarse inversion mesh and fine data mesh for the configured problem."""
    problem = get_problem(config.problem)
    coarse = problem_mesh(problem, config.h)
    fine = problem_mesh(problem, config.h_ref)
    return problem, coarse, fine


def solve_truth(problem: Problem, mesh_fine: Mesh, alpha: float, T: float,
                n_steps_ref: int) -> Field:
    """Terminal state of the fine-grid forward solve with the true coefficient."""
    q_fine = fem.interpolate(mesh_fine, VH, problem.q_true)
    grid = TimeGrid(T, n_steps_ref)
    traj = timestep.solve_forward(mesh_fine, q_fine, problem.u0, problem.f, alpha, grid)
    return traj.terminal


def transfer_terminal(u_fine: Field, coarse: Mesh) -> Field:
    """Evaluate the fine P1 terminal state at the coarse interior vertices."""
    vals = fem.evaluate_at_points(u_fine, coarse.vertices[fem.geometry(coarse).interior])
    return Field(coarse, XH, vals)


def add_noise(u_coarse: Field, linf_ref: float, eps: float, seed: int):
    """Pointwise Gaussian noise scaled by eps times the max of the exact data.

    Returns the observation and the measured noise level delta (the
    mass-matrix L2 norm of the injected noise field).
    """
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(u_coarse.values.shape)
    noise = eps * linf_ref * xi
    mass = fem.geometry(u_coarse.mesh).mass[XH]
    delta = math.sqrt(max(float(noise @ (mass @ noise)), 0.0))
    return Field(u_coarse.mesh, XH, u_coarse.values + noise), delta


def synthesize_data(config: ExperimentConfig, alpha: float, T: float,
                    eps: float, seed: int):
    """Fine-grid truth, coarse transfer and seeded noise in one call.

    Returns (z_delta, delta, u_ref_T) on the coarse mesh.
    """
    problem, coarse, fine = make_meshes(config)
    u_fine = solve_truth(problem, fine, alpha, T, config.n_steps_ref)
    u_ref = transfer_terminal(u_fine, coarse)
    z, delta = add_noise(u_ref, fem.norm_linf(u_fine), eps, seed)
    return z, delta, u_ref


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
    if (d <= 0).any() or (e <= 0).any():
        raise ValueError("rate fit needs positive entries")
    return float(np.polyfit(np.log(d), np.log(e), 1)[0])


def _run_seed(config: ExperimentConfig, row: int) -> int:
    # stable per-row seed: one noise realization per (alpha, T) row, scaled
    # by each noise level, as the published tables tabulate a single draw
    return config.seed + 100003 * row


def run_sweep(config: ExperimentConfig) -> RunReport:
    """Execute the full grid, fit per-row rates and write CSV/JSON artifacts."""
    problem, coarse, fine = make_meshes(config)
    q_dag_coarse = fem.interpolate(coarse, VH, problem.q_true)
    report = RunReport(config)
    out_dir = Path(config.output_dir) if config.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_mesh(coarse, out_dir / "coarse.mesh")

    rows = [(alpha, T) for alpha in config.alphas for T in config.T_values]
    # every truth solve first, so that the fine mesh, and the factorization
    # it caches, are freed before the inversions
    truths = []
    for alpha, T in rows:
        u_fine = solve_truth(problem, fine, alpha, T, config.n_steps_ref)
        truths.append((transfer_terminal(u_fine, coarse), fem.norm_linf(u_fine)))
        del u_fine
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
                    c0=config.bounds[0], c1=config.bounds[1],
                    max_iters=config.max_iters,
                    stop=StoppingRule(noise_level=delta,
                                      discrepancy_factor=config.discrepancy_factor))
                result = run_inversion(spec)
                u_term = timestep.solve_forward(
                    coarse, result.q, problem.u0, problem.f, alpha, spec.grid).terminal
                e_q, e_u = compute_errors(result.q, q_dag_coarse, u_term, u_ref)
                rec = RunRecord(alpha, T, eps, gamma, delta, e_q, e_u,
                                result.iterations, result.converged,
                                time.perf_counter() - start, result.reason)
            except FracinvError as exc:  # a solver failure: record it, keep sweeping
                rec = RunRecord(alpha, T, eps, gamma, math.nan, math.nan,
                                math.nan, 0, False,
                                time.perf_counter() - start, error=str(exc))
            report.records.append(rec)
            if rec.error is None and rec.e_q > 0 and rec.e_u > 0:
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


def verify_decay(problem_name: str, alpha: float, T: float, n_steps: int,
                 h: float, window=(1.0, None)):
    """Weighted decay table of the discrete fractional derivative.

    Computes t_n**(alpha/2) * |d_tau^alpha U^n|_{W^{1,inf}} on the true
    coefficient's forward solve and reports (rows, max/min ratio over the
    window), probing boundedness of the weighted quantity.
    """
    problem = get_problem(problem_name)
    mesh = problem_mesh(problem, h)
    q = fem.interpolate(mesh, VH, problem.q_true)
    grid = TimeGrid(T, n_steps)
    traj = timestep.solve_forward(mesh, q, problem.u0, problem.f, alpha, grid)
    derivs = timestep.discrete_frac_derivative(traj, alpha)
    times = grid.times[1:]
    weighted = np.array([t ** (alpha / 2.0) * fem.seminorm_w1inf(dn)
                         for t, dn in zip(times, derivs)])
    lo, hi = window
    hi = T if hi is None else hi
    mask = (times >= lo) & (times <= hi)
    if not mask.any():
        raise ValueError("decay window contains no time steps")
    ratio = float(weighted[mask].max() / weighted[mask].min())
    rows = np.column_stack([times, weighted])
    return rows, ratio


def check_positivity(problem_name: str, alpha: float, T: float, n_steps: int,
                     h: float):
    """Minimum over cells of the terminal positivity weight
    q |grad u|^2 + (f - d_t^alpha u) u, vertex-sampled for the second term."""
    problem = get_problem(problem_name)
    mesh = problem_mesh(problem, h)
    q = fem.interpolate(mesh, VH, problem.q_true)
    grid = TimeGrid(T, n_steps)
    traj = timestep.solve_forward(mesh, q, problem.u0, problem.f, alpha, grid)
    u_term = traj.terminal
    d_term = timestep.discrete_frac_derivative(traj, alpha)[-1]
    grad_sq = np.einsum("cd,cd->c", fem.cell_gradient(u_term),
                        fem.cell_gradient(u_term))
    q_cell = q.values[mesh.cells].mean(axis=1)
    f_nodal = fem.interpolate(mesh, VH, problem.f).values
    second_nodal = (f_nodal - d_term.extend()) * u_term.extend()
    second_cell = second_nodal[mesh.cells].min(axis=1)
    cell_values = q_cell * grad_sq + second_cell
    return float(cell_values.min()), cell_values


def stability_quotient(problem_name: str, alpha: float, T_values,
                       n_perturbations: int, seed: int, h: float, n_steps: int,
                       amplitude: float = 0.1, bounds=(0.5, 5.0)):
    """Stability quotients |q - q_true| / |grad(u(q) - u(q_true))(T)|^(1/2).

    Draws seeded smooth bump perturbations of the true coefficient, solves
    both forward problems on the same grid for each terminal time, and
    returns {T: (quotients, max)}.  Zero perturbations are rejected.
    """
    problem = get_problem(problem_name)
    mesh = problem_mesh(problem, h)
    q_true = fem.interpolate(mesh, VH, problem.q_true)
    rng = np.random.default_rng(seed)
    perturbed = []
    while len(perturbed) < n_perturbations:
        bump = _smooth_bump(mesh, rng, amplitude)
        q_vals = np.clip(q_true.values + bump, bounds[0], bounds[1])
        if np.linalg.norm(q_vals - q_true.values) == 0.0:
            continue
        perturbed.append(Field(mesh, VH, q_vals))

    out = {}
    for T in T_values:
        grid = TimeGrid(T, n_steps)
        u_true = timestep.solve_forward(mesh, q_true, problem.u0, problem.f,
                                        alpha, grid).terminal
        quotients = []
        for q in perturbed:
            u = timestep.solve_forward(mesh, q, problem.u0, problem.f,
                                       alpha, grid).terminal
            dq = fem.norm_l2(Field(mesh, VH, q.values - q_true.values))
            du = fem.seminorm_h1(Field(mesh, XH, u.values - u_true.values))
            quotients.append(dq / math.sqrt(du) if du > 0.0 else math.inf)
        out[T] = (quotients, max(quotients))
    return out


def _smooth_bump(mesh: Mesh, rng, amplitude: float) -> np.ndarray:
    """Wide Gaussian bump with random center, width and sign.

    Widths are kept large so the perturbation is dominated by low spatial
    modes: high-frequency coefficient content equilibrates the state at
    any positive time and would mask the small-T stability degradation
    the probe is after.
    """
    if mesh.dim == 1:
        center = rng.uniform(0.3, 0.7)
        width = rng.uniform(0.25, 0.45)
        r2 = (mesh.vertices[:, 0] - center) ** 2
    else:
        radius = 0.4 * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = radius * math.cos(angle), radius * math.sin(angle)
        width = rng.uniform(0.4, 0.7)
        r2 = (mesh.vertices[:, 0] - cx) ** 2 + (mesh.vertices[:, 1] - cy) ** 2
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * amplitude * np.exp(-0.5 * r2 / width ** 2)
