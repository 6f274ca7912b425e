"""Span tracer that times the calls one fracinv module makes into another.

The tracer wraps functions from outside the package: every wrapped call
appends one span (name, start, end, parent) to flat in-memory arrays, and
the per-layer metrics are computed from those spans after the run.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.

A module that imported a function by name (``from .mesh import
cell_measures``) holds its own reference, so installing a wrapper replaces
the function in every loaded module of the package that refers to it,
not only in the module that defines it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (layer, module, attribute); "Class.attr" names a method or property.
TARGETS = (
    ("mesh", "fracinv.mesh", "generate_interval_mesh"),
    ("mesh", "fracinv.mesh", "generate_disk_mesh"),
    ("mesh", "fracinv.mesh", "build_mesh"),
    ("mesh", "fracinv.mesh", "cell_measures"),
    ("mesh", "fracinv.mesh", "Mesh.interior"),
    ("mesh", "fracinv.mesh", "save_mesh"),
    ("fem", "fracinv.fem", "assemble_mass"),
    ("fem", "fracinv.fem", "assemble_stiffness"),
    ("fem", "fracinv.fem", "_stiffness_with_coeff"),
    ("fem", "fracinv.fem", "_cell_basis_gradients"),
    ("fem", "fracinv.fem", "cell_gradient"),
    ("fem", "fracinv.fem", "cell_average_load"),
    ("fem", "fracinv.fem", "load_vector"),
    ("fem", "fracinv.fem", "l2_project"),
    ("fem", "fracinv.fem", "interpolate"),
    ("fem", "fracinv.fem", "evaluate_at_points"),
    ("fem", "fracinv.fem", "norm_l2"),
    ("fem", "fracinv.fem", "norm_linf"),
    ("fem", "fracinv.fem", "save_field"),
    ("linalg", "fracinv.linalg", "factorize"),
    ("linalg", "fracinv.linalg", "SpdSolver.solve"),
    ("timestep", "fracinv.timestep", "solve_forward"),
    ("timestep", "fracinv.timestep", "solve_sensitivity"),
    ("timestep", "fracinv.timestep", "solve_adjoint"),
    ("inverse", "fracinv.inverse", "run_inversion"),
    ("experiments", "fracinv.experiments", "run_sweep"),
    ("experiments", "fracinv.experiments", "solve_truth"),
    ("experiments", "fracinv.experiments", "transfer_terminal"),
)

MESH_BUILD = ("generate_interval_mesh", "generate_disk_mesh", "build_mesh")
ASSEMBLY = ("assemble_mass", "assemble_stiffness", "_stiffness_with_coeff")
MARCHES = ("solve_forward", "solve_sensitivity", "solve_adjoint")


class Tracer:
    """Collects spans from wrapped functions; ``install``/``uninstall``
    swap the wrappers in and out of the loaded package modules."""

    def __init__(self, targets=TARGETS, package="fracinv"):
        self.targets = targets
        self.package = package
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # counters computed at the call boundary from the call's arguments
        self.factor_digests: set[bytes] = set()
        self.history_bytes = 0
        self.steps = 0
        self.iterations = 0
        self.hook_s = 0.0  # time the boundary counters took

    # -- wrapping -------------------------------------------------------
    def _wrap(self, layer, name, fn, hook=None, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def install(self):
        if self.names:
            raise RuntimeError("a tracer is installed once; make a new one per run")
        for layer, modname, attr in self.targets:
            module = importlib.import_module(modname)
            short = attr.rpartition(".")[2]
            if "." in attr:
                cls = getattr(module, attr.partition(".")[0])
                original = cls.__dict__[short]
                if isinstance(original, property):
                    wrapped = property(self._wrap(layer, short, original.fget))
                else:
                    wrapped = self._wrap(layer, short, original)
                self._patch(cls, short, wrapped)
                continue
            original = getattr(module, attr)
            hook = (self._on_factorize if short == "factorize"
                    else self._march_hook(original) if short in MARCHES else None)
            on_return = self._on_inversion if short == "run_inversion" else None
            wrapped = self._wrap(layer, short, original, hook, on_return)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "") or ""
                if modname_ != self.package and not modname_.startswith(self.package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key]
                              if isinstance(owner, type) else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- boundary counters ------------------------------------------------
    def _on_factorize(self, args, kwargs):
        began = time.perf_counter()
        matrix = (args[0] if args else kwargs["matrix"]).tocsr()
        digest = hashlib.blake2b(digest_size=16)
        for part in (np.asarray(matrix.shape), matrix.indptr, matrix.indices, matrix.data):
            digest.update(np.ascontiguousarray(part).tobytes())
        self.factor_digests.add(digest.digest())
        self.hook_s += time.perf_counter() - began

    def _march_hook(self, march):
        signature = inspect.signature(march)
        name = march.__name__

        def hook(args, kwargs):
            began = time.perf_counter()
            bound = signature.bind(*args, **kwargs).arguments
            mesh = bound["mesh"] if "mesh" in bound else bound["forward"].mesh
            n_dofs = int(np.count_nonzero(~mesh.boundary))
            n_steps = bound["grid"].N
            # the direct history sum reads n stored states at step n
            # (forward, sensitivity) or N - n of them (adjoint)
            reads = n_steps * (n_steps + (-1 if name == "solve_adjoint" else 1)) // 2
            self.history_bytes += 8 * n_dofs * reads
            self.steps += n_steps
            self.hook_s += time.perf_counter() - began
        return hook

    def _on_inversion(self, result):
        self.iterations += result.iterations

    def overhead(self, span_cost: float) -> float:
        """Seconds tracing added: every span's wrapper cost plus the counters' time."""
        return len(self.start) * span_cost + self.hook_s

    # -- analysis ---------------------------------------------------------
    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return ids, parent, start, end

    def save(self, path):
        """Write the spans as a compressed numpy archive."""
        ids, parent, start, end = self.arrays()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                            name_id=ids, parent=parent, start=start, end=end)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        ids, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def layer_self_times(self) -> dict[str, float]:
        layers = np.array(self.layers, dtype=str)[self.arrays()[0]]
        own = self.self_times()
        return {layer: float(own[layers == layer].sum()) for layer in dict.fromkeys(self.layers)}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        ids, parent, start, end = self.arrays()
        dur = end - start
        names = np.array(self.names, dtype=str)[ids]
        self_s = self.layer_self_times()

        def named(*wanted):
            return np.isin(names, wanted)

        def below(mask):
            # spans that have a span selected by ``mask`` among their ancestors
            found = np.zeros(len(ids), dtype=bool)
            anc = parent.copy()
            live = anc >= 0
            while live.any():
                found[live] |= mask[anc[live]]
                anc[live] = parent[anc[live]]
                live = anc >= 0
            return found

        def outermost(group):
            mask = named(*group)
            return mask & ~below(mask)

        def total(mask):
            return float(dur[mask].sum())

        def count(mask):
            return int(mask.sum())

        inversion = total(named("run_inversion"))
        iters = self.iterations
        t_self = self_s.get("timestep", 0.0)
        factorizations = count(named("factorize"))
        return {
            "mesh.build_s": total(outermost(MESH_BUILD)),
            "mesh.measure_calls": count(named("cell_measures")),
            "mesh.interior_calls": count(named("interior")),
            "fem.assemble_calls": count(outermost(ASSEMBLY)),
            "fem.assemble_s": total(outermost(ASSEMBLY)),
            "fem.gradient_calls": count(named("_cell_basis_gradients")),
            "fem.gradient_s": total(named("_cell_basis_gradients")),
            "fem.self_s": self_s.get("fem", 0.0),
            "linalg.factorize_calls": factorizations,
            "linalg.factorize_s": total(named("factorize")),
            "linalg.solve_calls": count(named("solve")),
            "linalg.solve_s": total(named("solve")),
            "linalg.factor_reuse_ratio": (len(self.factor_digests) / factorizations
                                          if factorizations else 0.0),
            "timestep.forward_calls": count(named("solve_forward")),
            "timestep.sensitivity_calls": count(named("solve_sensitivity")),
            "timestep.adjoint_calls": count(named("solve_adjoint")),
            "timestep.steps": self.steps,
            "timestep.self_s": t_self,
            "timestep.history_bytes": self.history_bytes,
            "timestep.history_gbps": self.history_bytes / t_self / 1e9 if t_self > 0 else 0.0,
            "inverse.runs": count(named("run_inversion")),
            "inverse.iters": iters,
            "inverse.iter_ms": 1e3 * inversion / iters if iters else 0.0,
            "inverse.forward_per_iter": (count(named("solve_forward") & below(named("run_inversion")))
                                         / iters if iters else 0.0),
            "inverse.self_s": self_s.get("inverse", 0.0),
            "experiments.truth_s": total(named("solve_truth")),
            "experiments.transfer_s": total(named("transfer_terminal")),
            "experiments.self_s": self_s.get("experiments", 0.0),
        }

    def call_counts(self) -> dict[tuple[str, str], int]:
        """Number of spans per wrapped (module, attribute)."""
        ids = self.arrays()[0]
        per_name = np.bincount(ids, minlength=len(self.names))
        return {target[1:]: int(per_name[i]) for i, target in enumerate(self.targets)}


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a no-op timed wrapped and bare,
    fastest of ``repeats`` batches each."""
    def noop():
        return None

    wrapped = Tracer(targets=())._wrap("trace", "noop", noop)

    def fastest(fn):
        best = float("inf")
        for _ in range(repeats):
            began = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - began)
        return best

    return max(fastest(wrapped) - fastest(noop), 0.0) / calls
