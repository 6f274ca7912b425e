import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from fracinv import experiments, fem, problems, timestep
from fracinv.errors import DegenerateDirectionError
from fracinv.experiments import (ExperimentConfig, add_noise, bump_perturbations,
                                 check_positivity, compute_errors, compute_rate,
                                 exact_data, make_meshes, run_sweep, solve_truth,
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
                dict(c_gamma=math.nan), dict(c0=5, c1=0.5), dict(alphas=(1.5,)),
                dict(max_iters=-3), dict(T_values=(math.inf,)),
                dict(problem="3d-cube"), dict(discrepancy_factor=0.0),
                dict(gammas=(math.inf,)), dict(seed=-1), dict(n_steps=2.5),
                dict(n_steps_ref=40.5), dict(noise_levels=(1e-2, 1e-2)),
                dict(noise_levels=(0.0, 1e-2, -0.0)), dict(alphas=()), dict(T_values=()),
                dict(noise_levels=()), dict(alphas=(0.5, 0.5)),
                dict(T_values=(1.0, 2.0, 1.0))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


@pytest.mark.parametrize("key, value", [("n_steps", "5"), ("h", "0.01"), ("T_values", ("1",)),
                                        ("noise_levels", ("1e-2",)), ("alphas", ("0.5",))])
def test_config_names_a_string_value(key, value):
    # each once raised a TypeError, naming no field, from a comparison or power
    with pytest.raises(ValueError, match=f"^{key} must be numeric"):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("seed", ["1", 1.5])
def test_config_names_a_non_integer_seed(seed):
    # each once raised numpy's TypeError, naming no field
    with pytest.raises(ValueError, match="^seed must be an integer"):
        ExperimentConfig(seed=seed)


def test_non_integer_max_iters_rejected():
    # a float count once passed the config, and run_sweep then crashed in
    # its first inversion with a TypeError, which it does not catch
    for bad in (2.5, 3.0, "5", None):
        with pytest.raises(ValueError, match="max_iters must be a nonnegative integer"):
            ExperimentConfig(**FAST, max_iters=bad)
    assert ExperimentConfig(**FAST, max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("key, values", [("alphas", ()), ("T_values", ()),
                                         ("noise_levels", ()), ("alphas", (0.5, 0.5)),
                                         ("T_values", (1.0, 1.0))])
def test_empty_or_repeated_sweep_lists_are_rejected_unbuilt(monkeypatch, key, values):
    # an empty list once built both meshes for a sweep of no runs, and a
    # repeated one overwrote an earlier row's artifacts and rates
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")
    for build in ("generate_interval_mesh", "generate_disk_mesh"):
        monkeypatch.setattr(problems, build, no_mesh)
    monkeypatch.setattr(experiments, "problem_mesh", no_mesh)
    with pytest.raises(ValueError, match=key):
        run_sweep(ExperimentConfig(**FAST, **{key: values}))


def test_config_builds_no_mesh(monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("ExperimentConfig built a mesh")
    monkeypatch.setattr(experiments, "problem_mesh", no_mesh)
    ExperimentConfig(problem="2d-disk", alphas=(0.25, 1.0), T_values=(1e-5, 2.0))


def test_config_takes_the_problems_terminal_time():
    assert ExperimentConfig(problem="2d-disk").T_values == (2.0,)
    assert ExperimentConfig(problem="1d-sine").T_values == (1.0,)
    assert ExperimentConfig(problem="2d-disk", T_values=(1.0,)).T_values == (1.0,)


@pytest.mark.parametrize("name", sorted(problems.PROBLEMS))
def test_config_takes_the_problems_grids(monkeypatch, name):
    # the problem's own grids fill the config, and both of its default
    # meshes fit the budget, all without building a mesh
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")
    for build in ("problem_mesh", "generate_interval_mesh", "generate_disk_mesh"):
        monkeypatch.setattr(problems, build, no_mesh)
    monkeypatch.setattr(experiments, "problem_mesh", no_mesh)
    problem = problems.PROBLEMS[name]
    grids = ("h", "n_steps", "h_ref", "n_steps_ref")
    cfg = ExperimentConfig(problem=name)
    assert [getattr(cfg, key) for key in grids] == [getattr(problem, key) for key in grids]
    for h in (problem.h, problem.h_ref):
        assert problems.vertex_count(problem, h) <= problems.MAX_VERTICES
    explicit = ExperimentConfig(problem=name, n_steps=problem.n_steps + 1)
    assert explicit.n_steps == problem.n_steps + 1 and explicit.h == problem.h


@pytest.mark.parametrize("key, grids", [("h_ref", {}), ("h", dict(h=2e-3, h_ref=1e-3))])
def test_config_rejects_an_oversized_disk_unbuilt(monkeypatch, key, grids):
    # the 1d-sine grids on the disk: h = 1/113 fits (87 211 vertices), but
    # h_ref = 1/1600 would need 17.3 million; both are checked before a build
    built = []
    monkeypatch.setattr(problems, "generate_disk_mesh", lambda h: built.append(h))
    with pytest.raises(ValueError, match=f"^{key}: .*vertices"):
        dataclasses.replace(ExperimentConfig(**grids), problem="2d-disk")
    assert built == []


@pytest.mark.parametrize("grids, keys", [
    (dict(n_steps_ref=10 ** 12), "h_ref, n_steps_ref"),
    (dict(n_steps=10 ** 12, n_steps_ref=10 ** 12 + 1), "h, n_steps")])
def test_config_rejects_a_march_over_the_budget(grids, keys):
    # a step count of 10**12 once passed the config, and run_sweep then died
    # allocating its first march
    with pytest.raises(ValueError, match=f"^{keys}: .*state values"):
        ExperimentConfig(**grids)


@pytest.mark.parametrize("problem, h", [("2d-disk", 1.2), ("1d-sine", 0.9)])
def test_config_rejects_a_mesh_size_problem_mesh_cannot_build(problem, h):
    # both configs once passed, and run_sweep then failed building the mesh
    with pytest.raises(ValueError, match="^h: "):
        ExperimentConfig(problem=problem, h=h, n_steps=5, h_ref=0.5, n_steps_ref=10)


def test_config_rejects_a_time_step_whose_power_overflows():
    # tau**-alpha once overflowed in run_sweep's first march
    with pytest.raises(ValueError, match="time step"):
        ExperimentConfig(T_values=(1e-310,), alphas=(1.0,), **FAST)


@pytest.mark.parametrize("T_values, keys", [
    ((1e-310,), "T_values, n_steps"), ((1.0, 5e-307), "T_values, n_steps_ref")])
def test_config_names_the_keys_of_a_time_step_whose_power_overflows(T_values, keys):
    # T/8 of 5e-307 is a normal float, T/40 is not; the message once named no key
    with pytest.raises(ValueError, match=f"^{keys}: time step"):
        ExperimentConfig(T_values=T_values, alphas=(1.0,), **FAST)


MARCH_KEYS = ("mesh.h", "time.n_steps", "problem.T")


@pytest.mark.parametrize("h, n_steps, T, message", [
    (1e-300, 10 ** 12, 1e-310, "^mesh.h: .*vertices"),
    (0.5, 10 ** 12, 1e-310, "^mesh.h, time.n_steps: .*state values"),
    (0.5, 8, 1e-310, "^problem.T, time.n_steps: time step"),
    (0.5, 0, 1.0, "^problem.T, time.n_steps: step count")],
    ids=["mesh-size", "march", "time-step", "step-count"])
def test_march_grid_applies_each_rule_in_order_unbuilt(monkeypatch, h, n_steps, T,
                                                       message):
    # each case also breaks every later rule, so the first rule names the keys
    monkeypatch.setattr(problems, "generate_interval_mesh", _unbuilt)
    monkeypatch.setattr(problems, "generate_disk_mesh", _unbuilt)
    with pytest.raises(ValueError, match=message):
        problems.march_grid(get_problem("1d-sine"), h, n_steps, T, MARCH_KEYS)
    assert (problems.march_grid(get_problem("2d-disk"), 0.1, 20, 2.0, MARCH_KEYS)
            == TimeGrid(2.0, 20))


def test_march_budget_is_1281_states_of_the_largest_mesh():
    problems.check_march(problems.MAX_VERTICES, 1280)
    with pytest.raises(ValueError, match="1281 steps on 100000 vertices"):
        problems.check_march(problems.MAX_VERTICES, 1281)
    problems.check_march(1601, 2560)  # the 1D truth grid at N = 2560
    with pytest.raises(ValueError, match="state values"):
        problems.check_march(21, 10 ** 12)


def test_gamma_rule():
    cfg = ExperimentConfig(noise_levels=(1e-2, 1e-3), c_gamma=4e-4)
    assert cfg.gamma_for(0) == pytest.approx(4e-8)
    assert cfg.gamma_for(1) == pytest.approx(4e-10)
    cfg2 = ExperimentConfig(noise_levels=(1e-2,), gammas=(7e-9,))
    assert cfg2.gamma_for(0) == 7e-9


def synthesize(cfg, alpha, T, eps, seed):
    """Exact data and seeded noise; returns (z, delta, u_ref, linf_ref)."""
    problem, coarse, fine = make_meshes(cfg)
    u_ref, linf = exact_data(problem, fine, coarse, alpha, TimeGrid(T, cfg.n_steps_ref))
    z, delta = add_noise(u_ref, linf, eps, seed)
    return z, delta, u_ref, linf


def test_exact_data_is_the_truth_march_transferred():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    problem, coarse, fine = make_meshes(cfg)
    grid_ref = TimeGrid(1.0, cfg.n_steps_ref)
    u_fine = solve_truth(problem, fine, 0.5, grid_ref).terminal
    u_ref, linf = exact_data(problem, fine, coarse, 0.5, grid_ref)
    assert u_ref.mesh is coarse and u_ref.space == XH
    assert np.array_equal(u_ref.values, transfer_terminal(u_fine, coarse).values)
    assert linf == fem.norm_linf(u_fine)


def test_synthesize_zero_noise():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    z, delta, u_ref, _ = synthesize(cfg, 0.5, 1.0, 0.0, seed=5)
    assert delta == 0.0
    assert np.array_equal(z.values, u_ref.values)


def test_synthesize_deterministic():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    z1, d1, *_ = synthesize(cfg, 0.5, 1.0, 1e-2, seed=7)
    z2, d2, *_ = synthesize(cfg, 0.5, 1.0, 1e-2, seed=7)
    assert np.array_equal(z1.values, z2.values)
    assert d1 == d2


def test_synthesize_noise_scale():
    # delta relative to ||u||_L2 tracks eps ||u||_Linf / ||u||_L2 within 20%
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    eps = 1e-2
    z, delta, u_ref, linf = synthesize(cfg, 0.5, 1.0, eps, seed=3)
    coarse = u_ref.mesh
    mass = fem.assemble_mass(coarse, XH)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(len(coarse.interior))
    xi_norm_sq = float(xi @ (mass @ xi))
    expect = eps * linf * math.sqrt(xi_norm_sq)
    assert delta == pytest.approx(expect, rel=1e-12)


def test_delta_equals_mass_norm_of_noise():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    z, delta, u_ref, _ = synthesize(cfg, 0.5, 1.0, 5e-3, seed=11)
    noise = Field(u_ref.mesh, XH, z.values - u_ref.values)
    assert delta == pytest.approx(fem.norm_l2(noise), rel=1e-12)


def test_compute_errors_zero_cases():
    cfg = ExperimentConfig(problem="1d-sine", **FAST)
    problem, coarse, fine = make_meshes(cfg)
    q_dag = fem.interpolate(coarse, VH, problem.q_true)
    u = fem.l2_project(coarse, problem.u0)
    e_q, e_u = compute_errors(q_dag, q_dag, u, u)
    assert e_q == 0.0 and e_u == 0.0
    q_fine = fem.interpolate(fine, VH, problem.q_true)
    with pytest.raises(ValueError, match="common mesh"):
        compute_errors(q_dag, q_fine, u, u)
    with pytest.raises(ValueError, match="common mesh"):
        compute_errors(q_dag, q_dag, u, fem.l2_project(fine, problem.u0))


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


def test_compute_rate_rejects_non_finite_pairs():
    for bad in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.nan), (1e-3, math.inf)):
        with pytest.raises(ValueError, match="positive finite"):
            compute_rate([(1e-2, 1.0), bad])


def test_add_noise_applies_the_noise_level_rule():
    mesh = problem_mesh(get_problem("1d-sine"), 1.0 / 8.0)
    u = Field(mesh, XH, np.ones(fem.n_dofs(mesh, XH)))
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise level must be nonnegative and finite"):
            add_noise(u, 1.0, eps, seed=1)
    z, delta = add_noise(u, 1.0, 0.0, seed=1)
    assert delta == 0.0 and np.array_equal(z.values, u.values)


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


def test_run_sweep_writes_the_json_report_of_numpy_inputs(tmp_path):
    # numpy sweeps and scalars pass the config's checks; the JSON report,
    # written after the whole sweep, once raised on them
    cfg = ExperimentConfig(problem="1d-sine", alphas=np.array([0.5]),
                           noise_levels=np.array([1e-2]), seed=np.int64(3),
                           max_iters=np.int64(5), output_dir=str(tmp_path / "out"),
                           **{key: np.array(value)[()] for key, value in FAST.items()})
    assert cfg.alphas == (0.5,) and type(cfg.alphas[0]) is float
    assert type(cfg.n_steps) is int and type(cfg.seed) is int and type(cfg.h) is float
    run_sweep(cfg)
    config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert config["alphas"] == [0.5] and config["n_steps"] == 8 and config["seed"] == 3


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


def test_run_sweep_draws_one_noise_realization_per_row(monkeypatch):
    # each (alpha, T) row has its own draw, scaled by every noise level
    draws = []

    def recording(u, linf, eps, seed):
        z, delta = add_noise(u, linf, eps, seed)
        draws.append((z.values - u.values) / (eps * linf))
        return z, delta

    monkeypatch.setattr(experiments, "add_noise", recording)
    run_sweep(ExperimentConfig(problem="1d-sine", alphas=(0.25, 0.75), T_values=(1.0,),
                               noise_levels=(1e-2, 5e-3), seed=1, max_iters=2, **FAST))
    assert len(draws) == 4
    first_row, second_row = draws[:2], draws[2:]
    for a, b in (first_row, second_row):
        assert np.allclose(a, b, rtol=0.0, atol=1e-9)
    assert not np.allclose(first_row[0], second_row[0], rtol=0.0, atol=0.1)


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
    for q, dq_norm in perturbed:
        dq = q.values - q_true
        assert (dq > 0).all() or (dq < 0).all()
        assert np.abs(dq).max() <= experiments.BUMP_AMPLITUDE
        assert dq_norm == fem.norm_l2(Field(mesh, VH, dq)) > 0.0
    again = bump_perturbations(problem, mesh, 4, seed=0)
    assert [n for _, n in again] == [n for _, n in perturbed]


def test_stability_quotient_of_a_perturbation_the_state_cannot_see():
    # the true coefficient itself leaves the terminal state unchanged
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 0.1)
    q_true = fem.interpolate(mesh, VH, problem.q_true)
    table = stability_quotient(problem, mesh, 0.5, [TimeGrid(1.0, 4)], [(q_true, 0.0)])
    assert table[1.0] == ([math.inf], math.inf)


def test_stability_quotient_comparable_large_T():
    problem = get_problem("1d-sine")
    mesh = problem_mesh(problem, 1.0 / 40.0)
    table = stability_quotient(problem, mesh, 0.5, [TimeGrid(3.0, 20), TimeGrid(5.0, 20)],
                               bump_perturbations(problem, mesh, 5, seed=1))
    ratio = table[3.0][1] / table[5.0][1]
    assert 0.2 <= ratio <= 5.0


def _unbuilt(*args):
    raise AssertionError("a mesh over the budget was built")


@pytest.mark.parametrize("name, h, n_vertices", [
    ("1d-sine", 1.0 / 1600.0, 1601), ("1d-sine", 0.3, 4),
    ("2d-disk", 0.3, 91), ("2d-disk", 0.035, 5677)])
def test_mesh_budget_is_checked_before_building(monkeypatch, name, h, n_vertices):
    problem = get_problem(name)
    assert problems.vertex_count(problem, h) == n_vertices
    assert problem_mesh(problem, h).n_vertices == n_vertices <= problems.MAX_VERTICES
    monkeypatch.setattr(problems, "MAX_VERTICES", n_vertices)
    assert problem_mesh(problem, h).n_vertices == n_vertices
    monkeypatch.setattr(problems, "MAX_VERTICES", n_vertices - 1)
    monkeypatch.setattr(problems, "generate_interval_mesh", _unbuilt)
    monkeypatch.setattr(problems, "generate_disk_mesh", _unbuilt)
    with pytest.raises(ValueError, match="vertices"):
        problem_mesh(problem, h)


@pytest.mark.parametrize("name, h", [
    ("2d-disk", 6.25e-4), ("1d-sine", 1e-300), ("2d-disk", 1e-300),
    ("1d-sine", 5e-324), ("2d-disk", 5e-324)])
def test_oversized_mesh_is_rejected_unbuilt(monkeypatch, name, h):
    # the disk at h = 1/1600 would have 1 + 3 * 2400 * 2401 = 17.3 million
    # vertices; 1 / 5e-324 overflows to inf
    monkeypatch.setattr(problems, "generate_interval_mesh", _unbuilt)
    monkeypatch.setattr(problems, "generate_disk_mesh", _unbuilt)
    with pytest.raises(ValueError, match="vertices"):
        problem_mesh(get_problem(name), h)


@pytest.mark.parametrize("name, h, message", [
    ("1d-sine", 0.9, "interior vertex"), ("1d-sine", 5.0, "interior vertex"),
    ("2d-disk", 1.0, "below 1"), ("2d-disk", 1.2, "below 1")])
def test_mesh_size_problem_mesh_cannot_build_is_rejected_unbuilt(monkeypatch, name, h,
                                                                 message):
    # one interval cell leaves X_h empty; the disk generator takes sizes below 1
    monkeypatch.setattr(problems, "generate_interval_mesh", _unbuilt)
    monkeypatch.setattr(problems, "generate_disk_mesh", _unbuilt)
    with pytest.raises(ValueError, match=message):
        problems.vertex_count(get_problem(name), h)
    with pytest.raises(ValueError, match=message):
        problem_mesh(get_problem(name), h)


def test_two_cells_are_the_coarsest_interval():
    assert problems.vertex_count(get_problem("1d-sine"), 2.0 / 3.0) == 3
    assert problem_mesh(get_problem("1d-sine"), 2.0 / 3.0).n_vertices == 3
