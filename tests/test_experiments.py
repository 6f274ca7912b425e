import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from fracinv import experiments, fem, timestep
from fracinv.errors import DegenerateDirectionError
from fracinv.experiments import (ExperimentConfig, add_noise, bump_perturbations,
                                 check_positivity, compute_errors, compute_rate,
                                 make_meshes, run_sweep, solve_truth,
                                 stability_quotient, transfer_terminal, verify_decay)
from fracinv.fem import VH, XH, Field
from fracinv.problems import get_problem, problem_mesh
from fracinv.timestep import TimeGrid

FAST = dict(h=1.0 / 24.0, n_steps=8, h_ref=1.0 / 96.0, n_steps_ref=40)


def test_config_validation():
    for bad in (dict(h=1e-3, h_ref=1e-2), dict(n_steps=100, n_steps_ref=50),
                dict(noise_levels=(-1e-3,)),
                dict(noise_levels=(1e-2, 1e-3), gammas=(1e-8,)),
                dict(noise_levels=(math.nan,)), dict(h=math.nan), dict(n_steps=0),
                dict(c_gamma=math.nan), dict(bounds=(5, 0.5)), dict(alphas=(1.5,)),
                dict(max_iters=-3), dict(T_values=(math.inf,)),
                dict(problem="3d-cube"), dict(discrepancy_factor=0.0),
                dict(gammas=(math.inf,)), dict(seed=-1), dict(n_steps=2.5),
                dict(n_steps_ref=40.5), dict(noise_levels=(1e-2, 1e-2)),
                dict(noise_levels=(0.0, 1e-2, -0.0))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_config_builds_no_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("ExperimentConfig built a mesh")
    monkeypatch.setattr(experiments, "problem_mesh", no_mesh)
    ExperimentConfig(problem="2d-disk", alphas=(0.25, 1.0), T_values=(1e-5, 2.0))


def test_gamma_rule():
    cfg = ExperimentConfig(noise_levels=(1e-2, 1e-3), c_gamma=4e-4)
    assert cfg.gamma_for(0) == pytest.approx(4e-8)
    assert cfg.gamma_for(1) == pytest.approx(4e-10)
    cfg2 = ExperimentConfig(noise_levels=(1e-2,), gammas=(7e-9,))
    assert cfg2.gamma_for(0) == 7e-9


def synthesize(cfg, alpha, T, eps, seed):
    """Fine-grid truth, coarse transfer and seeded noise, as run_sweep does."""
    problem, coarse, fine = make_meshes(cfg)
    u_fine = solve_truth(problem, fine, alpha, TimeGrid(T, cfg.n_steps_ref)).terminal
    u_ref = transfer_terminal(u_fine, coarse)
    z, delta = add_noise(u_ref, fem.norm_linf(u_fine), eps, seed)
    return z, delta, u_ref


def test_synthesize_zero_noise():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    z, delta, u_ref = synthesize(cfg, 0.5, 1.0, 0.0, seed=5)
    assert delta == 0.0
    assert np.array_equal(z.values, u_ref.values)


def test_synthesize_deterministic():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    z1, d1, _ = synthesize(cfg, 0.5, 1.0, 1e-2, seed=7)
    z2, d2, _ = synthesize(cfg, 0.5, 1.0, 1e-2, seed=7)
    assert np.array_equal(z1.values, z2.values)
    assert d1 == d2


def test_synthesize_noise_scale():
    # delta relative to ||u||_L2 tracks eps ||u||_Linf / ||u||_L2 within 20%
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    problem, coarse, fine = make_meshes(cfg)
    u_fine = solve_truth(problem, fine, 0.5, TimeGrid(1.0, cfg.n_steps_ref)).terminal
    u_ref = transfer_terminal(u_fine, coarse)
    eps = 1e-2
    z, delta = add_noise(u_ref, fem.norm_linf(u_fine), eps, seed=3)
    xi_norm_sq = 0.0
    mass = fem.assemble_mass(coarse, XH)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(len(coarse.interior))
    xi_norm_sq = float(xi @ (mass @ xi))
    expect = eps * fem.norm_linf(u_fine) * math.sqrt(xi_norm_sq)
    assert delta == pytest.approx(expect, rel=1e-12)


def test_delta_equals_mass_norm_of_noise():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    problem, coarse, fine = make_meshes(cfg)
    u_fine = solve_truth(problem, fine, 0.5, TimeGrid(1.0, cfg.n_steps_ref)).terminal
    u_ref = transfer_terminal(u_fine, coarse)
    z, delta = add_noise(u_ref, fem.norm_linf(u_fine), 5e-3, seed=11)
    noise = Field(coarse, XH, z.values - u_ref.values)
    assert delta == pytest.approx(fem.norm_l2(noise), rel=1e-12)


def test_compute_errors_zero_cases():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    problem, coarse, fine = make_meshes(cfg)
    q_dag = fem.interpolate(coarse, VH, problem.q_true)
    u = fem.l2_project(coarse, problem.u0)
    e_q, e_u = compute_errors(q_dag, q_dag, u, u)
    assert e_q == 0.0 and e_u == 0.0


def test_compute_rate_exact_power_law():
    deltas = [1e-2, 5e-3, 2.5e-3, 1e-3]
    es = [3.0 * d ** 0.5 for d in deltas]
    assert compute_rate(list(zip(deltas, es))) == pytest.approx(0.5, abs=1e-12)


def test_compute_rate_constant_is_zero():
    pairs = [(1e-2, 4.0), (1e-3, 4.0)]
    assert compute_rate(pairs) == pytest.approx(0.0, abs=1e-12)


def test_compute_rate_reproduces_published_fit():
    # fitting the published first-row errors against the noise levels
    eps = [1e-2, 5e-3, 2.5e-3, 1e-3]
    e_q = [2.67e-2, 1.76e-2, 1.54e-2, 8.42e-3]
    assert compute_rate(list(zip(eps, e_q))) == pytest.approx(0.48, abs=0.005)


def test_compute_rate_permutation_invariant():
    pairs = [(1e-2, 2.6e-2), (5e-3, 1.8e-2), (1e-3, 8e-3)]
    r1 = compute_rate(pairs)
    r2 = compute_rate(pairs[::-1])
    assert r1 == pytest.approx(r2, rel=1e-14)


def test_compute_rate_validation():
    with pytest.raises(ValueError):
        compute_rate([(1e-2, 1.0)])
    with pytest.raises(ValueError):
        compute_rate([(1e-2, 1.0), (1e-3, -1.0)])


def test_run_sweep_writes_artifacts(tmp_path):
    cfg = ExperimentConfig(problem="1d-sine", alphas=(0.5,), T_values=(1.0,),
                           noise_levels=(1e-2, 5e-3), c_gamma=4e-4, seed=1,
                           max_iters=40, output_dir=str(tmp_path / "out"),
                           **FAST)
    report = run_sweep(cfg)
    assert len(report.records) == 2
    assert all(r.error is None for r in report.records)
    out = tmp_path / "out"
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    for rec in report.records:
        assert rec.reason in ("discrepancy", "max_iters", "stalled")
        if rec.converged:
            assert rec.reason == "discrepancy"
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["reason"] for row in rows] == [r.reason for r in report.records]
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["records"]) == 2
    assert [r["reason"] for r in payload["records"]] == [r.reason for r in report.records]
    assert "alpha=0.5,T=1" in payload["rates"]
    field_dumps = list(out.glob("*_q.field"))
    assert len(field_dumps) == 2


def test_run_sweep_records_a_failed_run_and_goes_on(tmp_path, monkeypatch):
    # a solver failure in one run becomes a record with its message and NaN
    # metrics; the other runs, the rate fit and the report are unaffected
    real_run_inversion = experiments.run_inversion
    calls = []

    def failing_second_run(spec):
        calls.append(spec)
        if len(calls) == 2:
            raise DegenerateDirectionError("injected failure")
        return real_run_inversion(spec)

    monkeypatch.setattr(experiments, "run_inversion", failing_second_run)
    cfg = ExperimentConfig(problem="1d-sine", alphas=(0.5,), T_values=(1.0,),
                           noise_levels=(1e-2, 5e-3, 2.5e-3), seed=1, max_iters=40,
                           output_dir=str(tmp_path / "out"), **FAST)
    report = run_sweep(cfg)
    ok, failed, last = report.records
    assert len(calls) == 3
    assert failed.error == "injected failure"
    assert (failed.eps, failed.iters, failed.converged, failed.reason) == (5e-3, 0, False, "")
    assert all(math.isnan(v) for v in (failed.delta, failed.e_q, failed.e_u))
    assert ok.error is None and last.error is None
    assert report.rates[(0.5, 1.0)][0] == compute_rate([(1e-2, ok.e_q), (2.5e-3, last.e_q)])
    out = tmp_path / "out"
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and rows[1]["delta"] == "nan"
    assert len(list(out.glob("*_q.field"))) == 2

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")
    record = json.loads((out / "report.json").read_text(), parse_constant=reject)["records"][1]
    assert (record["delta"], record["e_q"], record["e_u"]) == (None, None, None)


def test_run_sweep_fits_rates_over_positive_noise_levels(tmp_path):
    # a noise-free run is reported, but has no place in a fit in log(eps)
    cfg = ExperimentConfig(problem="1d-sine", alphas=(0.5,), T_values=(1.0,),
                           noise_levels=(0.0, 1e-2, 5e-3), seed=1, max_iters=40,
                           output_dir=str(tmp_path / "out"), **FAST)
    report = run_sweep(cfg)
    clean, *noisy = report.records
    assert all(r.error is None for r in report.records)
    assert clean.eps == 0.0
    assert report.rates[(0.5, 1.0)] == (compute_rate([(r.eps, r.e_q) for r in noisy]),
                                        compute_rate([(r.eps, r.e_u) for r in noisy]))
    assert len(json.loads((tmp_path / "out" / "report.json").read_text())["records"]) == 3


def test_run_sweep_deterministic():
    cfg = ExperimentConfig(problem="1d-sine", alphas=(0.5,), T_values=(1.0,),
                           noise_levels=(1e-2, 5e-3), seed=2, max_iters=30,
                           **FAST)
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    for a, b in zip(r1.records, r2.records):
        assert (a.alpha, a.T, a.eps, a.gamma) == (b.alpha, b.T, b.eps, b.gamma)
        assert a.delta == b.delta
        assert a.e_q == b.e_q
        assert a.e_u == b.e_u
        assert a.iters == b.iters


def test_run_sweep_noise_free_below_discretization_floor():
    # eps = 0 with a vanishing penalty: the reconstruction error sits below
    # the combined discretization floor of the coarse grid
    cfg = ExperimentConfig(problem="1d-sine", alphas=(0.5,), T_values=(1.0,),
                           noise_levels=(0.0,), gammas=(1e-12,), seed=4,
                           max_iters=60, **FAST)
    rep = run_sweep(cfg)
    rec = rep.records[0]
    floor = math.sqrt(FAST["h"] ** 2 + 1.0 / FAST["n_steps"])
    assert rec.error is None
    assert rec.e_q < floor


def test_verify_decay_bounded_ratio():
    problem = get_problem("1d-sine")
    rows, ratio = verify_decay(problem, problem_mesh(problem, 1.0 / 40.0), 0.5,
                               TimeGrid(4.0, 160))
    assert rows.shape == (160, 2)
    assert ratio <= 10.0


def test_verify_decay_alpha_one_decreasing():
    # classical heat flow with a sine initial state: the weighted quantity
    # decreases since the time derivative decays exponentially
    import fracinv
    mesh = problem_mesh(get_problem("1d-sine"), 1.0 / 50.0)
    q = fem.interpolate(mesh, VH, lambda x: np.ones_like(x))
    grid = TimeGrid(2.0, 100)
    traj = timestep.solve_forward(mesh, q, lambda x: np.sin(np.pi * x), 0.0,
                                  1.0, grid)
    derivs = timestep.discrete_frac_derivative(traj)
    times = grid.times[1:]
    weighted = [t ** 0.5 * fem.seminorm_w1inf(d) for t, d in zip(times, derivs)]
    window = [w for t, w in zip(times, weighted) if 1.0 <= t <= 2.0]
    assert all(window[i + 1] < window[i] for i in range(len(window) - 1))


def test_verify_decay_stationary_state():
    # initial state solving the elliptic problem: trajectory is constant and
    # the fractional derivative vanishes
    from fracinv import linalg
    mesh = problem_mesh(get_problem("1d-sine"), 1.0 / 30.0)
    q = fem.interpolate(mesh, VH, lambda x: np.ones_like(x))
    stiff = fem.assemble_stiffness(mesh, XH, q)
    load = fem.load_vector(mesh, XH, 1.0)
    u_steady = Field(mesh, XH, linalg.factorize(stiff).solve(load))
    grid = TimeGrid(1.0, 20)
    # u0 is u_steady's P1 representation, which the projection reproduces
    traj = timestep.solve_forward(
        mesh, q, lambda x: fem.evaluate_at_points(u_steady, x[:, None]), 1.0, 0.5, grid)
    for d in timestep.discrete_frac_derivative(traj):
        assert fem.norm_l2(d) <= 1e-9


def test_positivity_examples():
    sine, disk = get_problem("1d-sine"), get_problem("2d-disk")
    mn1, cells1 = check_positivity(sine, problem_mesh(sine, 1.0 / 50.0), 0.5,
                                   TimeGrid(1.0, 20))
    assert mn1 > 0.0
    mn2, cells2 = check_positivity(disk, problem_mesh(disk, 0.3), 0.5, TimeGrid(2.0, 10))
    assert mn2 > 0.0
    assert len(cells1) == 50


def test_positivity_degenerate_zero_data():
    # zero source, zero initial state: the weight is identically zero
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 20.0)
    q = fem.interpolate(mesh, VH, problem.q_true)
    grid = TimeGrid(1.0, 10)
    traj = timestep.solve_forward(mesh, q, 0.0, 0.0, 0.5, grid)
    assert np.abs(traj.values).max() == 0.0


def test_stability_quotient_contrast():
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 50.0)
    table = stability_quotient(problem, mesh, 0.75,
                               [TimeGrid(1e-5, 30), TimeGrid(5.0, 30)],
                               bump_perturbations(problem, mesh, 6, seed=0))
    assert table[1e-5][1] >= 5.0 * table[5.0][1]
    assert all(len(table[T][0]) == 6 for T in table)


def test_stability_quotient_perturbs_a_large_coefficient():
    # the bumps ride on the coefficient whatever its size, so no two of the
    # ten perturbed coefficients coincide
    problem = dataclasses.replace(get_problem("1d-sine"), q_true=10.0)
    mesh = problem_mesh(problem, 0.05)
    table = stability_quotient(problem, mesh, 0.5, [TimeGrid(5.0, 8)],
                               bump_perturbations(problem, mesh, 10, seed=0))
    assert len(set(table[5.0][0])) == 10


def test_bump_perturbations_on_the_disk():
    # each perturbation is one Gaussian bump of the given amplitude on the
    # disk's coefficient, and the draw is fixed by the seed
    problem = get_problem("2d-disk")
    mesh = problem_mesh(problem, 0.3)
    perturbed = bump_perturbations(problem, mesh, 4, seed=0)
    q_true = fem.interpolate(mesh, VH, problem.q_true).values
    for p, dq_norm in perturbed:
        dq = fem.interpolate(mesh, VH, p.q_true).values - q_true
        assert (dq > 0).all() or (dq < 0).all()
        assert np.abs(dq).max() <= experiments.BUMP_AMPLITUDE
        assert dq_norm == fem.norm_l2(Field(mesh, VH, dq)) > 0.0
    again = bump_perturbations(problem, mesh, 4, seed=0)
    assert [n for _, n in again] == [n for _, n in perturbed]


def test_stability_quotient_comparable_large_T():
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 40.0)
    table = stability_quotient(problem, mesh, 0.5, [TimeGrid(3.0, 20), TimeGrid(5.0, 20)],
                               bump_perturbations(problem, mesh, 5, seed=1))
    ratio = table[3.0][1] / table[5.0][1]
    assert 0.2 <= ratio <= 5.0
