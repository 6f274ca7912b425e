"""The benchmark's workloads: their inputs, the timed operation and its oracle.

Each workload builds its inputs in ``prepare`` (the set-up the user pays
before the call) and runs one timed call in ``run``; ``yardstick`` is the
fixed computation timed next to each call (see ``yardstick.py``).  ``check`` compares
that call's outputs with the outputs recorded when the benchmark was
added, ``operations`` is the number of operations one call attempts, and
``record`` runs the workload and returns its reference entry.

The data seed is the sweep protocol's noise seed; 1 is Table 1a's and 2 is
held out, so that a speed-up claimed on seed 1 can be checked on a seed
its author did not tune on.  The run seed (``--seed``) orders the
independent marches of ``forward-1d`` and changes no sweep input: the
noise draw sets the inversions' iteration counts (786, 513 and 459 in
sweep-1d for data seeds 1, 2 and 3), so tying it to the run seed would
make wall time measure the seed rather than the code.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yardstick

from fracinv import experiments, fem, timestep
from fracinv.fem import VH, XH, Field
from fracinv.problems import get_problem, problem_mesh
from fracinv.timestep import TimeGrid

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"
REFERENCE = Path(__file__).with_name("reference.json")
# Data seeds whose sweep references are recorded: Table 1a's, then the held-out one.
DATA_SEEDS = (1, 2)

# Tolerances of the oracle.  Multiplying the CQ history sum by
# (1 + 1e-13 cos n) moved sweep-1d (data seed 1) iteration counts by up to
# 2 (56 -> 54), because capped steps land on the discrepancy sphere and the
# stopping test then decides by rounding, and moved e_q and e_u by at most
# 9.3e-5 relative.  delta depends only on the noise and the mass matrix.
ITERS_ABS = 2
ITERS_REL = 0.02
ERROR_RTOL = 1e-3
DELTA_RTOL = 1e-10
NORM_RTOL = 1e-10


@dataclass
class Outcome:
    """Checked result of one timed call."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    artifact_bytes: int = 0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


@dataclass(frozen=True)
class Sweep:
    """Table-1a protocol through ``experiments.run_sweep`` with artifacts."""

    name: str
    problem: str
    alphas: tuple
    T: float
    h: float
    n_steps: int
    h_ref: float
    n_steps_ref: int
    max_iters: int
    noise_levels: tuple = (1e-2, 5e-3, 2.5e-3, 1e-3)
    yardstick: Callable = yardstick.assembly

    def reference(self, references: dict, data_seed: int):
        if data_seed not in DATA_SEEDS:
            raise ValueError(f"no {self.name} reference for data seed {data_seed}; "
                             f"recorded: {', '.join(map(str, DATA_SEEDS))}")
        return references[self.name][str(data_seed)]

    def prepare(self, data_seed: int, run_seed: int):
        return experiments.ExperimentConfig(
            problem=self.problem, alphas=self.alphas, T_values=(self.T,),
            noise_levels=self.noise_levels, c_gamma=4e-4, h=self.h,
            n_steps=self.n_steps, h_ref=self.h_ref, n_steps_ref=self.n_steps_ref,
            seed=data_seed, discrepancy_factor=1.05, max_iters=self.max_iters,
            output_dir=str(OUT / self.name))

    def run(self, config):
        shutil.rmtree(config.output_dir, ignore_errors=True)
        return experiments.run_sweep(config)

    def operations(self, reference) -> int:
        return len(reference)

    def record(self, config) -> list[dict]:
        report = self.run(config)
        shutil.rmtree(config.output_dir, ignore_errors=True)
        return [{"alpha": r.alpha, "eps": r.eps, "iters": r.iters,
                 "converged": r.converged, "delta": r.delta, "e_q": r.e_q,
                 "e_u": r.e_u} for r in report.records]

    def check(self, config, report, reference) -> Outcome:
        out = Path(config.output_dir)
        problems = []
        for ref, rec in zip(reference, report.records):
            problem = _sweep_mismatch(rec, ref)
            if problem:
                problems.append(f"alpha={rec.alpha:g} eps={rec.eps:g}: {problem}")
        failed = len(problems)
        # a sweep that lost runs or did not write its report fails as a whole
        if len(report.records) != len(reference):
            problems.append(f"{len(report.records)} records, expected {len(reference)}")
        try:
            with open(out / "report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != len(report.records):
                problems.append(f"report.csv has {len(rows)} rows")
        except OSError as exc:
            problems.append(f"report.csv unreadable: {exc}")
        if len(problems) > failed:
            failed = len(reference)
        artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(len(reference), failed, problems, artifact_bytes)


def _sweep_mismatch(rec, ref) -> str | None:
    if rec.error is not None:
        return f"raised {rec.error}"
    if not all(math.isfinite(v) for v in (rec.delta, rec.e_q, rec.e_u)):
        return "non-finite output"
    if (rec.alpha, rec.eps) != (ref["alpha"], ref["eps"]):
        return f"is not the recorded run alpha={ref['alpha']} eps={ref['eps']}"
    if rec.converged != ref["converged"]:
        return f"converged={rec.converged}, recorded {ref['converged']}"
    if abs(rec.iters - ref["iters"]) > ITERS_ABS + ITERS_REL * ref["iters"]:
        return f"{rec.iters} iterations, recorded {ref['iters']}"
    if _rel(rec.delta, ref["delta"]) > DELTA_RTOL:
        return f"delta {rec.delta!r}, recorded {ref['delta']!r}"
    for key in ("e_q", "e_u"):
        if _rel(getattr(rec, key), ref[key]) > ERROR_RTOL:
            return f"{key} {getattr(rec, key)!r}, recorded {ref[key]!r}"
    return None


@dataclass
class MarchState:
    problem: object
    mesh: object
    q: Field
    grid: TimeGrid
    order: list
    done: int = 0


@dataclass(frozen=True)
class ForwardMarches:
    """Fine-grid truth marches through ``solve_forward``; each operation is
    one march, cycling through the alphas in an order set by the run seed."""

    name: str
    alphas: tuple
    h: float
    n_steps: int
    yardstick: Callable = yardstick.march

    def reference(self, references: dict, data_seed: int):
        return references[self.name]

    def operations(self, reference) -> int:
        return 1

    def prepare(self, data_seed: int, run_seed: int) -> MarchState:
        problem = get_problem("1d-sine")
        mesh = problem_mesh(problem, self.h)
        q = fem.interpolate(mesh, VH, problem.q_true)
        order = list(self.alphas)
        random.Random(run_seed).shuffle(order)
        return MarchState(problem, mesh, q, TimeGrid(problem.T, self.n_steps), order)

    def run(self, state: MarchState):
        alpha = state.order[state.done % len(state.order)]
        state.done += 1
        traj = timestep.solve_forward(state.mesh, state.q, state.problem.u0,
                                      state.problem.f, alpha, state.grid)
        return alpha, traj.values[-1].copy()

    def record(self, state: MarchState) -> dict:
        terminal = dict(self.run(state) for _ in self.alphas)
        return {f"{alpha:g}": fem.norm_l2(Field(state.mesh, XH, terminal[alpha]))
                for alpha in self.alphas}

    def check(self, state: MarchState, result, reference) -> Outcome:
        alpha, values = result
        key = f"{alpha:g}"
        if key not in reference:
            problem = f"alpha={key}: no recorded terminal norm"
        elif not np.isfinite(values).all():
            problem = f"alpha={key}: non-finite terminal state"
        else:
            got = fem.norm_l2(Field(state.mesh, XH, values))
            problem = (f"alpha={key}: |U^N| = {got!r}, recorded {reference[key]!r}"
                       if _rel(got, reference[key]) > NORM_RTOL else None)
        return Outcome(1, 0, []) if problem is None else Outcome(1, 1, [problem])


WORKLOADS = {w.name: w for w in (
    Sweep("sweep-1d", "1d-sine", alphas=(0.25, 0.5, 0.75), T=1.0, h=1.0 / 113.0,
          n_steps=30, h_ref=1.0 / 1600.0, n_steps_ref=1280, max_iters=600),
    Sweep("sweep-2d", "2d-disk", alphas=(0.5,), T=2.0, h=0.1, n_steps=20,
          h_ref=0.05, n_steps_ref=160, max_iters=400),
    ForwardMarches("forward-1d", alphas=(0.25, 0.5, 0.75), h=1.0 / 1600.0, n_steps=1280),
)}


def load_references() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
