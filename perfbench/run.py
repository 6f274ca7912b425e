"""Run one fracinv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-2d --seed 1 --seconds 55 --trace 0

Run from a source checkout: the harness imports ``fracinv`` from the
``src`` directory next to this one.  One process runs one operation at a
time (closed loop, one client) and repeats it while the next one fits in
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics:
``wall_ratio`` (the calls' total wall time divided by that of the
workload's yardstick, timed right before and after every call and
averaged per call; see ``yardstick.py``), ``setup_s``
(median time from interpreter start to ready, over fresh interpreters) and
``peak_rss_mb``, and prints the raw call times.  With ``--trace 1`` it
runs traced operations and reports the per-layer metrics, plus the
tracing overhead.  Every operation's outputs are checked against the
references in ``reference.json``.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.measure_calls": "count", "mesh.interior_calls": "count",
    "fem.assemble_calls": "count", "fem.assemble_s": "s", "fem.gradient_calls": "count",
    "fem.gradient_s": "s", "fem.self_s": "s",
    "linalg.factorize_calls": "count", "linalg.factorize_s": "s",
    "linalg.solve_calls": "count", "linalg.solve_s": "s",
    "linalg.factor_reuse_ratio": "ratio",
    "timestep.forward_calls": "count", "timestep.sensitivity_calls": "count",
    "timestep.adjoint_calls": "count", "timestep.steps": "count", "timestep.self_s": "s",
    "timestep.history_bytes": "B", "timestep.history_gbps": "GB/s",
    "inverse.runs": "count", "inverse.iters": "count", "inverse.iter_ms": "ms",
    "inverse.forward_per_iter": "1/iter", "inverse.self_s": "s",
    "experiments.truth_s": "s", "experiments.transfer_s": "s",
    "experiments.self_s": "s", "experiments.artifact_bytes": "B",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed; orders the forward-1d marches")
    parser.add_argument("--data-seed", type=int, default=1,
                        help="sweep noise seed: 1 is Table 1a's, 2 is held out")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring time; operations start while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--data-seed", str(args.data_seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return ready


def run_op(workload, state, reference, tracer=None):
    """Time one call and check its outputs; returns (seconds, Outcome)."""
    from workloads import Outcome
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        try:
            result = workload.run(state)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        return wall, workload.check(state, result, reference)
    except Exception:  # the call failed; count its operations as failed, keep measuring
        n = workload.operations(reference)
        return wall, Outcome(n, n, [traceback.format_exc()])


def time_yardstick(workload) -> float:
    start = time.perf_counter()
    workload.yardstick()
    return time.perf_counter() - start


def keep_going(started, times, seconds):
    return not times or time.perf_counter() - started + statistics.median(times) <= seconds


def describe(name, values):
    return (f"# {name} over {len(values)}: min {min(values):.4f}, "
            f"median {statistics.median(values):.4f}, max {max(values):.4f}")


def measure(args, workload, state, reference):
    setup, walls, outcomes = [], [], []
    sticks = [time_yardstick(workload)]
    started = time.perf_counter()
    while keep_going(started, [w + k for w, k in zip(walls, sticks[1:])], args.seconds):
        # spread the set-up probes over the run, so that they sample the
        # same mix of quiet and busy periods on the host as the calls do
        while len(setup) < SETUP_PROBES * (time.perf_counter() - started) / args.seconds:
            setup.append(probe_setup(args))
        wall, outcome = run_op(workload, state, reference)
        walls.append(wall)
        outcomes.append(outcome)
        sticks.append(time_yardstick(workload))
        report_op(len(walls), wall, outcome, f"yardstick {sticks[-1]:.4f} s")
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Neighbours on the shared host slow every call by up to 2x for seconds
    # to hours; the yardsticks on either side of a call slow with it.
    around = [(before + after) / 2 for before, after in zip(sticks, sticks[1:])]
    metrics = {"wall_ratio": sum(walls) / sum(around), "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    print(describe("call wall time (s)", walls))
    print(describe("yardstick wall time (s)", sticks))
    print(describe("call / yardstick", [w / k for w, k in zip(walls, around)]))
    print(f"# setup over {SETUP_PROBES} fresh interpreters: "
          f"{', '.join(f'{s:.3f}' for s in setup)} s")
    return metrics, outcomes


def measure_traced(args, workload, state, reference):
    import spans
    from workloads import OUT
    cost = spans.span_cost()
    per_op, outcomes, walls = [], [], []
    started = time.perf_counter()
    while keep_going(started, walls, args.seconds):
        tracer = spans.Tracer()
        wall, outcome = run_op(workload, state, reference, tracer)
        walls.append(wall)
        outcomes.append(outcome)
        report_op(len(outcomes), wall, outcome, f"traced, {len(tracer.start)} spans")
        layer = tracer.metrics()
        layer["experiments.artifact_bytes"] = outcome.artifact_bytes
        layer["trace.overhead_s"] = tracer.overhead(cost)
        per_op.append(layer)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    print(f"# one wrapped call costs {1e6 * cost:.3f} us")
    print(describe("traced call wall time (s)", walls))
    metrics = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER_UNITS}
    return metrics, outcomes


def report_op(index, wall, outcome, note=""):
    extra = f" ({note})" if note else ""
    print(f"# op {index}: {wall:.4f} s, {outcome.failed} of {outcome.attempted} "
          f"operations failed{extra}")
    for problem in outcome.problems:
        print(f"#   {problem.rstrip()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fracinv" / "__init__.py").is_file():
        print(f"perfbench: no fracinv source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        reference = workload.reference(workloads.load_references(), args.data_seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    state = workload.prepare(args.data_seed, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    print(f"# perfbench {args.workload} seed={args.seed} data_seed={args.data_seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine_facts())}")
    if args.trace:
        values, outcomes = measure_traced(args, workload, state, reference)
        units = PER_LAYER_UNITS
    else:
        values, outcomes = measure(args, workload, state, reference)
        units = END_TO_END_UNITS
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for name, value in values.items():
        print(f"# {name:28s} {value:>16.6g} {units[name]}")
    print(f"# {'fail_ratio':28s} {failed / attempted:>16.6g} ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
