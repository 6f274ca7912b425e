"""Tests of the benchmark itself: the oracle, the tracer and the harness exits.

    python3 -m pytest -q perfbench

They use small problem sizes and take a few seconds.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import crosscheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from fracinv.experiments import RunRecord  # noqa: E402

TINY_SWEEP = workloads.Sweep("tiny-sweep", "1d-sine", alphas=(0.5,), T=1.0, h=1.0 / 16.0,
                             n_steps=8, h_ref=1.0 / 64.0, n_steps_ref=32, max_iters=30,
                             yardstick=functools.partial(yardstick.assembly, 2, 4))
TINY_MARCHES = workloads.ForwardMarches("tiny-forward", alphas=(0.25, 0.75), h=1.0 / 40.0,
                                        n_steps=16,
                                        yardstick=functools.partial(yardstick.march, 39, 16))


def _records(reference):
    return [RunRecord(r["alpha"], 1.0, r["eps"], 0.0, r["delta"], r["e_q"], r["e_u"],
                      r["iters"], r["converged"], 0.0) for r in reference]


def _check_sweep(tmp_path, records, reference):
    (tmp_path / "report.csv").write_text(
        "alpha,eps\n" + "".join(f"{r.alpha},{r.eps}\n" for r in records))
    config = SimpleNamespace(output_dir=str(tmp_path))
    return workloads.Sweep.check(None, config, SimpleNamespace(records=records), reference)


def test_sweep_oracle_accepts_the_recorded_outputs(tmp_path):
    reference = workloads.load_references()["sweep-1d"]["1"]
    outcome = _check_sweep(tmp_path, _records(reference), reference)
    assert (outcome.attempted, outcome.failed) == (12, 0), outcome.problems


@pytest.mark.parametrize("key, change", [
    ("e_q", lambda v: v * 1.01),
    ("e_u", lambda v: v * 0.99),
    ("iters", lambda v: v + 10),
    ("converged", lambda v: not v),
    ("delta", lambda v: v * (1 + 1e-8)),
])
def test_sweep_oracle_fires_on_a_perturbed_reference(tmp_path, key, change):
    reference = workloads.load_references()["sweep-1d"]["1"]
    perturbed = [dict(r) for r in reference]
    perturbed[3][key] = change(perturbed[3][key])
    outcome = _check_sweep(tmp_path, _records(reference), perturbed)
    assert outcome.failed == 1
    assert key.replace("iters", "iterations") in outcome.problems[0]


def test_sweep_oracle_counts_raised_and_non_finite_runs(tmp_path):
    reference = workloads.load_references()["sweep-2d"]["1"]
    records = _records(reference)
    records[0].e_q = math.nan
    records[1].error = "factorization broke down"
    outcome = _check_sweep(tmp_path, records, reference)
    assert outcome.failed == 2


def test_sweep_without_its_report_fails_as_a_whole(tmp_path):
    reference = workloads.load_references()["sweep-2d"]["1"]
    config = SimpleNamespace(output_dir=str(tmp_path / "missing"))
    outcome = workloads.Sweep.check(None, config,
                                    SimpleNamespace(records=_records(reference)), reference)
    assert outcome.failed == outcome.attempted == 4


def test_forward_oracle_fires_on_a_perturbed_reference():
    state = TINY_MARCHES.prepare(1, 7)
    reference = TINY_MARCHES.record(state)
    results = [TINY_MARCHES.run(state) for _ in range(2)]
    assert sorted(alpha for alpha, _ in results) == [0.25, 0.75]
    assert all(TINY_MARCHES.check(state, r, reference).failed == 0 for r in results)
    perturbed = {k: v * (1 + 1e-8) for k, v in reference.items()}
    assert TINY_MARCHES.check(state, results[0], perturbed).failed == 1
    alpha, values = results[0]
    bad = values.copy()
    bad[0] = math.inf
    assert TINY_MARCHES.check(state, (alpha, bad), reference).failed == 1
    assert TINY_MARCHES.check(state, (0.5, values), reference).failed == 1


def test_run_seed_orders_the_marches_and_nothing_else():
    a, b = TINY_MARCHES.prepare(1, 1), TINY_MARCHES.prepare(1, 1)
    assert a.order == b.order
    orders = {tuple(TINY_MARCHES.prepare(1, seed).order) for seed in range(20)}
    assert orders == {(0.25, 0.75), (0.75, 0.25)}
    assert TINY_SWEEP.prepare(1, 1) == TINY_SWEEP.prepare(1, 99)


def test_unknown_data_seed_is_rejected():
    with pytest.raises(ValueError, match="data seed 7"):
        workloads.WORKLOADS["sweep-1d"].reference(workloads.load_references(), 7)


# -- tracer ---------------------------------------------------------------------

@pytest.fixture
def toy_package(monkeypatch):
    pkg = types.ModuleType("toypkg")
    low = types.ModuleType("toypkg.low")
    high = types.ModuleType("toypkg.high")

    def leaf():
        time.sleep(0.01)

    def branch():
        time.sleep(0.02)
        high.leaf()

    low.leaf = leaf
    high.leaf = leaf  # bound by name, as ``from .low import leaf`` would
    high.branch = branch
    for module in (pkg, low, high):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return SimpleNamespace(low=low, high=high, leaf=leaf, branch=branch)


def test_tracer_replaces_names_bound_elsewhere_and_restores_them(toy_package):
    tracer = spans.Tracer(targets=(("low", "toypkg.low", "leaf"),
                                   ("high", "toypkg.high", "branch")), package="toypkg")
    with tracer:
        assert toy_package.high.leaf is not toy_package.leaf
        assert toy_package.low.leaf is toy_package.high.leaf
        toy_package.high.branch()
        toy_package.low.leaf()
    assert toy_package.high.leaf is toy_package.leaf
    assert toy_package.high.branch is toy_package.branch
    assert tracer.call_counts() == {("toypkg.low", "leaf"): 2, ("toypkg.high", "branch"): 1}
    ids, parent, start, end = tracer.arrays()
    assert list(parent) == [-1, 0, -1]  # leaf nested in branch, then a top-level leaf
    own = tracer.layer_self_times()
    assert 0.02 <= own["high"] < 0.03 + 0.02
    assert 0.02 <= own["low"] < 0.02 + 0.02
    assert all(end >= start)


def test_tracer_overhead_is_spans_times_wrapper_cost(toy_package):
    tracer = spans.Tracer(targets=(("low", "toypkg.low", "leaf"),), package="toypkg")
    with tracer:
        toy_package.low.leaf()
        toy_package.high.leaf()
    assert tracer.overhead(1e-6) == pytest.approx(2e-6)
    assert 0.0 < spans.span_cost(calls=2000, repeats=3) < 1e-3


def test_yardsticks_repeat_exactly():
    assert yardstick.march(39, 16) == yardstick.march(39, 16)
    assert yardstick.assembly(2, 4) == yardstick.assembly(2, 4)


def test_tracer_installs_once(toy_package):
    tracer = spans.Tracer(targets=(("low", "toypkg.low", "leaf"),), package="toypkg")
    with tracer:
        pass
    with pytest.raises(RuntimeError):
        tracer.install()


@pytest.mark.parametrize("workload", [TINY_SWEEP, TINY_MARCHES], ids=lambda w: w.name)
def test_tracer_counts_match_cprofile(workload):
    state = workload.prepare(1, 1)
    rows = crosscheck.crosscheck(workload, state)
    shutil.rmtree(workloads.OUT / workload.name, ignore_errors=True)
    assert all(traced == profiled for _, traced, profiled in rows), rows
    assert dict((what, n) for what, n, _ in rows)["fracinv.timestep.solve_forward"] >= 1


def test_layer_metrics_of_a_tiny_sweep():
    state = TINY_SWEEP.prepare(1, 1)
    tracer = spans.Tracer()
    with tracer:
        report = TINY_SWEEP.run(state)
    shutil.rmtree(state.output_dir, ignore_errors=True)
    m = tracer.metrics()
    iters = sum(r.iters for r in report.records)
    assert m["inverse.runs"] == 4 and m["inverse.iters"] == iters > 0
    # one truth march, one initial forward per run, one per accepted step and
    # backtrack, and the final forward of each run for its state error
    assert m["timestep.forward_calls"] >= 1 + 4 + iters + 4
    assert m["timestep.adjoint_calls"] >= iters and m["timestep.sensitivity_calls"] >= iters
    assert m["timestep.steps"] == 32 + 8 * (m["timestep.forward_calls"] - 1
                                            + m["timestep.sensitivity_calls"]
                                            + m["timestep.adjoint_calls"])
    assert 0.0 < m["linalg.factor_reuse_ratio"] <= 1.0
    assert m["fem.assemble_calls"] > 0 and m["mesh.build_s"] > 0.0


# -- harness ------------------------------------------------------------------

def test_harness_without_the_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    (tmp_path / "BENCHMARK.json").write_text("{}")
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forward-1d",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert not run.stdout.strip()


@pytest.mark.parametrize("trace", [0, 1])
def test_harness_prints_its_metrics_as_the_last_line(monkeypatch, capsys, trace):
    import run as harness
    monkeypatch.setitem(workloads.WORKLOADS, "forward-1d", TINY_MARCHES)
    monkeypatch.setattr(harness, "probe_setup", lambda args: 0.5)
    references = {TINY_MARCHES.name: TINY_MARCHES.record(TINY_MARCHES.prepare(1, 1))}
    monkeypatch.setattr(workloads, "load_references", lambda: references)
    argv = ["--workload", "forward-1d", "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace)]
    assert harness.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run as harness
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
