"""Check the tracer's call counts against cProfile on one operation.

    python3 perfbench/crosscheck.py --workload sweep-1d

Runs one traced operation (data seed 1) under cProfile and compares, for
every wrapped function, the tracer's span count with cProfile's call count
of the original function, and ``linalg.factorize`` spans with SuperLU's
``gstrf`` calls.  Prints one row per comparison and exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _code(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part) if not isinstance(obj, type) else obj.__dict__[part]
    return (obj.fget if isinstance(obj, property) else obj).__code__


def crosscheck(workload, state):
    """Run one traced, profiled operation; returns [(what, traced, profiled)]."""
    tracer = spans.Tracer()
    profile = cProfile.Profile()
    tracer.install()
    try:
        profile.enable()
        workload.run(state)
        profile.disable()
    finally:
        tracer.uninstall()
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    rows = []
    counts = tracer.call_counts()
    for (module_name, attr), traced in counts.items():
        code = _code(module_name, attr)
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        rows.append((f"{module_name}.{attr}", traced, stats.get(key, (0, 0))[1]))
    gstrf = sum(v[1] for k, v in stats.items() if "gstrf" in k[2])
    rows.append(("SuperLU gstrf / linalg.factorize", counts[("fracinv.linalg", "factorize")],
                 gstrf))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    rows = crosscheck(workload, workload.prepare(1, 1))
    bad = 0
    print(f"{'function':44s} {'tracer':>9s} {'cProfile':>9s}")
    for what, traced, profiled in rows:
        bad += traced != profiled
        print(f"{what:44s} {traced:9d} {profiled:9d}{'' if traced == profiled else '  MISMATCH'}")
    print(f"{args.workload}: {len(rows) - bad} of {len(rows)} counts agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
