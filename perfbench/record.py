"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record.py

Runs each sweep once per data seed in ``workloads.DATA_SEEDS`` and each
other workload once, and rewrites ``reference.json``.
The committed file was recorded by the commit that added the benchmark.
Re-record only for an explained change to the numerics, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    references = {}
    for name, workload in workloads.WORKLOADS.items():
        seeds = workloads.DATA_SEEDS if isinstance(workload, workloads.Sweep) else [1]
        entries = {}
        for seed in seeds:
            entries[str(seed)] = workload.record(workload.prepare(seed, 1))
            print(f"{name} data seed {seed}: {json.dumps(entries[str(seed)])}")
        references[name] = entries if isinstance(workload, workloads.Sweep) else entries["1"]
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
