"""Time the LAPACK/BLAS band kernels behind fracinv's 2D solves.

    PYTHONPATH=src python3 tools/band_kernels.py [--repeats 200]

Builds the disk's X_h system tau^-alpha M + K(q) (the 2d-disk problem's q,
alpha = 0.5, its coarse time step) at h = 0.1, 0.05 and 0.035 through
``problems.problem_mesh``, puts it in its reverse Cuthill-McKee band form
as ``linalg.FactorLayout`` does, and prints, per mesh, the best-of-N time
in microseconds of the four ``dtbsv`` variants (lower/upper storage, plain
or transposed), of ``dpbtrs`` from lower and from upper storage, and of
``dpbtrf`` into lower and into upper storage.  ``linalg.factorize`` uses the
fastest pair found with scipy's OpenBLAS 0.3.30: a lower ``dpbtrf`` and an
upper ``dpbtrs``.  The BLAS that scipy's LAPACK wrappers call is printed
first, so that a later scipy or OpenBLAS can be checked the same way.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import time

import numpy as np
import scipy
from scipy.linalg import blas, lapack

from fracinv import fem, linalg
from fracinv.fem import VH, XH
from fracinv.linalg import _upper_from_lower
from fracinv.problems import get_problem, problem_mesh

SIZES = (0.1, 0.05, 0.035)


def blas_facts() -> str:
    """scipy's BLAS as built, and the OpenBLAS core it loaded, where the
    process's memory map shows it."""
    facts = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    line = f"scipy BLAS: {facts.get('name')} {facts.get('version')}"
    try:
        with open("/proc/self/maps") as maps:
            paths = {row.split()[-1] for row in maps if "scipy.libs" in row and "openblas" in row}
    except OSError:
        paths = set()
    for path in sorted(paths):
        get_config = getattr(ctypes.CDLL(path), "scipy_openblas_get_config", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            line += f"; loaded: {get_config().decode()}"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"{line}; OPENBLAS_NUM_THREADS={threads}"


def lower_band(h: float):
    """The disk's X_h system at mesh size h in reordered lower band storage."""
    problem = get_problem("2d-disk")
    mesh = problem_mesh(problem, h)
    geo = fem.geometry(mesh)
    q = fem.interpolate(mesh, VH, problem.q_true)
    tau = problem.T / problem.n_steps
    matrix = (tau ** -0.5 * geo.mass[XH] + fem.assemble_stiffness(mesh, XH, q)).tocsr()
    layout = linalg.FactorLayout(matrix.indptr, matrix.indices)
    ab = np.zeros((layout.kd + 1) * len(layout.order))
    ab[layout.slot] = matrix.data[layout.lower]
    return ab.reshape(layout.kd + 1, -1, order="F")


def best_us(call, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed calls per kernel; the best is printed")
    args = parser.parse_args(argv)
    print(blas_facts())
    columns = ("dofs", "kd", "dtbsv L,N", "L,T", "U,N", "U,T",
               "dpbtrs lower", "upper", "dpbtrf lower", "upper")
    print(" | ".join(columns))
    for h in SIZES:
        ab = lower_band(h)
        kd, n = ab.shape[0] - 1, ab.shape[1]
        factor_l, info = lapack.dpbtrf(ab, lower=1)
        if info:
            raise SystemExit(f"h={h}: dpbtrf info {info}")
        factor_u = _upper_from_lower(factor_l.copy(order="F"))
        b = np.random.default_rng(0).standard_normal(n)
        times = [best_us(lambda f=f, lo=lo, t=t: blas.dtbsv(kd, f, b, lower=lo, trans=t), args.repeats)
                 for f, lo in ((factor_l, 1), (factor_u, 0)) for t in (0, 1)]
        times += [best_us(lambda f=f, lo=lo: lapack.dpbtrs(f, b, lower=lo), args.repeats)
                  for f, lo in ((factor_l, 1), (factor_u, 0))]
        upper = _upper_from_lower(ab.copy(order="F"))  # the symmetric matrix's upper storage
        times += [best_us(lambda a=a, lo=lo: lapack.dpbtrf(a, lower=lo), max(args.repeats // 10, 1))
                  for a, lo in ((ab, 1), (upper, 0))]
        print(" | ".join([str(n), str(kd)] + [f"{t:.1f}" for t in times]))


if __name__ == "__main__":
    main()
