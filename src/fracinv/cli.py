"""Command-line front end.

One sectioned key/value config file drives every subcommand; ``--set
section.key=value`` flags override single entries and the merged,
effective configuration is echoed into the output directory so any run
can be reproduced from its artifacts alone.  A command writes only after
its last computation, so a rejected input leaves no file behind.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included), 3 solver failure, 4 check failed (gradcheck).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, fem, inverse, timestep
from .errors import FracinvError
from .fem import VH, XH, Field
from .mesh import save_mesh
from .problems import Problem, get_problem, march_grid, problem_mesh

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

# section -> key -> (type, default); a None default takes the named problem's value
# (problem.T, mesh.h, time.n_steps, data.h_ref, data.n_steps_ref), but problem.alpha
# is required.  Defaults the library types hold are read from them.
_FLOAT_LIST = "float_list"
SCHEMA = {
    "problem": {
        "name": (str, "1d-sine"),
        "alpha": (float, None),
        "T": (float, None),
        "q": (str, "truth"),    # 'truth' or a constant value
        "u0": (str, "problem"),  # 'problem' or a constant value
        "f": (str, "problem"),   # 'problem' or a constant value
    },
    "mesh": {
        "h": (float, None),
    },
    "time": {
        "n_steps": (int, None),
    },
    "data": {
        "file": (str, ""),
        "epsilon": (float, 1e-2),
        "seed": (int, experiments.ExperimentConfig.seed),
        "h_ref": (float, None),
        "n_steps_ref": (int, None),
    },
    "inversion": {
        "gamma": (float, 1e-8),
        "c0": (float, inverse.InverseSpec.c0),
        "c1": (float, inverse.InverseSpec.c1),
        "max_iters": (int, inverse.InverseSpec.max_iters),
        "discrepancy_factor": (float, inverse.InverseSpec.discrepancy_factor),
        "gradient_tol": (float, inverse.InverseSpec.gradient_tol),
        "q_init": (float, 1.0),
    },
    "gradcheck": {
        "n_directions": (int, 5),
        "fd_step": (float, 1e-4),
        "tolerance": (float, 1e-5),
    },
    "sweep": {
        "alphas": (_FLOAT_LIST, experiments.ExperimentConfig.alphas),
        "T_values": (_FLOAT_LIST, ()),  # empty -> (problem.T,)
        "noise_levels": (_FLOAT_LIST, (1e-2, 5e-3, 2.5e-3, 1e-3)),
        "gammas": (_FLOAT_LIST, ()),    # empty -> c_gamma rule
        "c_gamma": (float, experiments.ExperimentConfig.c_gamma),
    },
    "verify": {
        "checks": (str, "decay positivity stability"),
        "decay_T": (float, 10.0),
        "decay_n_steps": (int, 1000),
        "stability_T_small": (float, 1e-5),
        "stability_T_large": (float, 5.0),
        "n_perturbations": (int, 10),
        "seed": (int, 0),
    },
    "output": {
        "directory": (str, ""),
        "dump_trajectory": (int, 0),
    },
}


class ConfigError(Exception):
    pass


def parse_config_text(text: str) -> dict:
    """Parse the sectioned key/value grammar into nested string dicts."""
    sections: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"line {ln}: key outside any [section]")
        key, _, value = line.partition("=")
        value = value.partition("#")[0]  # allow trailing comments
        sections[current][key.strip()] = value.strip()
    return sections


def _convert(section, key, raw):
    kind, _ = SCHEMA[section][key]
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind == _FLOAT_LIST:
            return tuple(float(p) for p in raw.replace(",", " ").split())
        return raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def resolve_config(sections: dict, overrides) -> dict:
    """Validate names, apply --set overrides, fill defaults."""
    for sec, keys in sections.items():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in keys:
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key '{key}' in section [{sec}]")
    merged = {sec: dict(keys) for sec, keys in sections.items()}
    for item in overrides or ():
        target, _, value = item.partition("=")
        sec, _, key = target.partition(".")
        if not value or not key:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError(f"--set names unknown key {sec}.{key}")
        merged.setdefault(sec, {})[key] = value
    out = {}
    for sec, keys in SCHEMA.items():
        out[sec] = {}
        for key, (kind, default) in keys.items():
            if sec in merged and key in merged[sec]:
                out[sec][key] = _convert(sec, key, merged[sec][key])
            else:
                out[sec][key] = default
    problem = _check("problem.name", get_problem, out["problem"]["name"])
    for sec, key in (("problem", "T"), ("mesh", "h"), ("time", "n_steps"),
                     ("data", "h_ref"), ("data", "n_steps_ref")):
        if out[sec][key] is None:
            out[sec][key] = getattr(problem, key)
    return out


def _check(keys, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError it raises becomes a
    ConfigError that names the config keys its input came from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


# [problem] key -> the Problem field a constant setting replaces
_PROBLEM_DATA = {"q": "q_true", "u0": "u0", "f": "f"}


def _problem(cfg) -> Problem:
    """The named problem, with the constants the config sets for q, u0 and f."""
    problem = _check("problem.name", get_problem, cfg["problem"]["name"])
    constants = {}
    for key, attr in _PROBLEM_DATA.items():
        choice, own = cfg["problem"][key], SCHEMA["problem"][key][1]
        if choice == own:
            continue
        try:
            value = float(choice)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (key == "q" and value <= 0.0):
            kind = "a positive, finite" if key == "q" else "a finite"
            raise ConfigError(
                f"problem.{key} must be {own!r} or {kind} number, got {choice!r}")
        constants[attr] = value
    return dataclasses.replace(problem, **constants)


def _alpha(cfg) -> float:
    alpha = cfg["problem"]["alpha"]
    if alpha is None:
        raise ConfigError("missing required key 'alpha' in section [problem]")
    _check("problem.alpha", timestep.cq_weights, alpha, 0)
    return alpha


def _grid(cfg, problem: Problem, h_key, n_key, T_key, T=None):
    """The time grid of the march on the mesh size and step count the keys
    name, to T (by default T_key's value), from :func:`problems.march_grid`:
    it builds no mesh, and its ValueError names the keys."""
    keys = (h_key, n_key, T_key)
    h, n_steps, T_set = (cfg[sec][key] for sec, key in (k.split(".") for k in keys))
    return march_grid(problem, h, n_steps, T_set if T is None else T, keys)


def _out_dir(cfg) -> Path:
    """The output directory, not yet created; ConfigError if it, or a
    directory it would be made in, exists and is not a directory."""
    out = Path(cfg["output"]["directory"] or os.environ.get(
        "FRACINV_OUTPUT_DIR", "fracinv-out"))
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output.directory: {path} exists and is not a directory")
    return out


def _echo_config(cfg, out_dir: Path):
    """Create the output directory and write the effective config into it."""
    lines = []
    for sec, keys in cfg.items():
        lines.append(f"[{sec}]")
        for key, value in keys.items():
            if value is None:
                continue
            if isinstance(value, tuple):
                value = " ".join(map(repr, value))
            lines.append(f"{key} = {value}")
        lines.append("")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective-config.cfg").write_text("\n".join(lines))


def cmd_forward(cfg) -> int:
    problem, alpha, out = _problem(cfg), _alpha(cfg), _out_dir(cfg)
    grid = _grid(cfg, problem, "mesh.h", "time.n_steps", "problem.T")
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    traj = experiments.solve_truth(problem, mesh, alpha, grid)
    _echo_config(cfg, out)
    save_mesh(mesh, out / "mesh.txt")
    fem.save_field(traj.terminal, out / "u_terminal.field",
                   name="u_terminal", mesh_file="mesh.txt")
    if cfg["output"]["dump_trajectory"]:
        timestep.save_trajectory(traj, out / "trajectory", mesh_file="mesh.txt")
    print(f"forward: ||U^N||_L2 = {fem.norm_l2(traj.terminal):.12e} "
          f"-> {out / 'u_terminal.field'}")
    return EXIT_OK


def _inversion(cfg):
    """The problem and checked InverseSpec that invert and gradcheck share.

    Every input is accepted before the observation is read or synthesized.
    """
    problem, alpha = _problem(cfg), _alpha(cfg)
    data, inv = cfg["data"], cfg["inversion"]
    grid = _grid(cfg, problem, "mesh.h", "time.n_steps", "problem.T")
    if not data["file"]:
        _check("mesh.h, time.n_steps, data.h_ref, data.n_steps_ref",
               experiments.check_truth_grid, cfg["mesh"]["h"], grid.N,
               data["h_ref"], data["n_steps_ref"])
        grid_ref = _grid(cfg, problem, "data.h_ref", "data.n_steps_ref", "problem.T")
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    _check("data.seed", np.random.SeedSequence, data["seed"])
    # epsilon scales the noise level delta, so it obeys delta's rule
    spec = _check(
        "inversion.gamma, c0, c1, q_init, max_iters, discrepancy_factor, gradient_tol, "
        "data.epsilon", inverse.InverseSpec,
        mesh=mesh, alpha=alpha, grid=grid, u0=problem.u0, f=problem.f,
        z_delta=Field(mesh, XH, np.zeros(fem.n_dofs(mesh, XH))),
        gamma=inv["gamma"], c0=inv["c0"], c1=inv["c1"],
        q_init=Field(mesh, VH, np.full(mesh.n_vertices, inv["q_init"])),
        max_iters=inv["max_iters"], noise_level=data["epsilon"],
        discrepancy_factor=inv["discrepancy_factor"], gradient_tol=inv["gradient_tol"])
    if data["file"]:
        try:
            z, delta = fem.load_field(data["file"], mesh), None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data.file: {exc}") from None
    else:
        fine = problem_mesh(problem, data["h_ref"])
        u_ref, linf = experiments.exact_data(problem, fine, mesh, alpha, grid_ref)
        z, delta = experiments.add_noise(u_ref, linf, data["epsilon"], data["seed"])
    return problem, _check("data.file", dataclasses.replace, spec, z_delta=z,
                           noise_level=delta)


def cmd_invert(cfg) -> int:
    out = _out_dir(cfg)
    problem, spec = _inversion(cfg)
    result = inverse.run_inversion(spec)
    mesh = spec.mesh
    _echo_config(cfg, out)
    save_mesh(mesh, out / "mesh.txt")
    fem.save_field(result.q, out / "q_reconstructed.field",
                   name="q_reconstructed", mesh_file="mesh.txt")
    with open(out / "history.csv", "w") as fh:
        fh.write("k,J,misfit,penalty,grad_norm,step\n")
        for it in result.history:
            fh.write(f"{it.k},{it.J:.17g},{it.misfit:.17g},{it.penalty:.17g},"
                     f"{it.grad_norm:.17g},{it.step:.17g}\n")
    q_dag = fem.interpolate(mesh, VH, problem.q_true)
    e_q = fem.norm_l2(Field(mesh, VH, result.q.values - q_dag.values))
    print(f"invert: converged={result.converged} ({result.reason}) "
          f"iterations={result.iterations} e_q={e_q:.6e} -> {out}")
    return EXIT_OK


def cmd_gradcheck(cfg) -> int:
    check = cfg["gradcheck"]
    step, tol = check["fd_step"], check["tolerance"]
    if not 0.0 < step < math.inf:
        raise ConfigError(f"gradcheck.fd_step must be positive and finite, got {step}")
    if check["n_directions"] < 1:
        raise ConfigError(
            f"gradcheck.n_directions must be >= 1, got {check['n_directions']}")
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"gradcheck.tolerance must be nonnegative and finite, got {tol}")
    _, spec = _inversion(cfg)
    mesh, q = spec.mesh, spec.q_init
    g = inverse.gradient(spec, q)
    rng = np.random.default_rng(cfg["data"]["seed"] + 1)
    riesz = fem.geometry(mesh).riesz_solver
    worst = 0.0
    for _ in range(check["n_directions"]):
        # smooth directions: white noise through the V_h Riesz map, unit max
        d = riesz.solve(rng.standard_normal(mesh.n_vertices))
        d /= np.abs(d).max()
        qp = Field(mesh, VH, q.values + step * d)
        qm = Field(mesh, VH, q.values - step * d)
        fd = (inverse.objective(spec, qp)[0] - inverse.objective(spec, qm)[0]) / (2 * step)
        adj = float(g.values @ d)
        rel = abs(fd - adj) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
    print(f"gradcheck: max relative mismatch {worst:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if worst <= tol else EXIT_CHECK


def cmd_bench(cfg) -> int:
    sweep, inv = cfg["sweep"], cfg["inversion"]
    if any(cfg["problem"][key] != SCHEMA["problem"][key][1] for key in _PROBLEM_DATA):
        raise ConfigError("bench sweeps the named problem as it is defined: "
                          "problem.q, problem.u0 and problem.f must keep their defaults")
    problem = get_problem(cfg["problem"]["name"])
    T_key = "sweep.T_values" if sweep["T_values"] else "problem.T"
    T_values = sweep["T_values"] or (cfg["problem"]["T"],)
    for T in T_values:
        for h_key, n_key in (("mesh.h", "time.n_steps"), ("data.h_ref", "data.n_steps_ref")):
            _grid(cfg, problem, h_key, n_key, T_key, T)
    out = _out_dir(cfg)
    config = _check(
        "bench", experiments.ExperimentConfig,
        problem=problem.name, alphas=sweep["alphas"], T_values=T_values,
        noise_levels=sweep["noise_levels"], gammas=sweep["gammas"] or None,
        c_gamma=sweep["c_gamma"], h=cfg["mesh"]["h"], n_steps=cfg["time"]["n_steps"],
        h_ref=cfg["data"]["h_ref"], n_steps_ref=cfg["data"]["n_steps_ref"],
        seed=cfg["data"]["seed"], c0=inv["c0"], c1=inv["c1"],
        max_iters=inv["max_iters"], discrepancy_factor=inv["discrepancy_factor"],
        output_dir=str(out))
    report = experiments.run_sweep(config)
    _echo_config(cfg, out)
    n_fail = sum(1 for r in report.records if r.error is not None)
    print(f"bench: {len(report.records)} runs, {n_fail} failed -> {out / 'report.csv'}")
    for (a, T), (rq, ru) in report.rates.items():
        print(f"  alpha={a:g} T={T:g}: e_q rate "
              f"{rq if rq is not None else float('nan'):.3f}, "
              f"e_u rate {ru if ru is not None else float('nan'):.3f}")
    return EXIT_OK


def cmd_verify(cfg) -> int:
    ver = cfg["verify"]
    checks = ver["checks"].split()
    known = ("decay", "positivity", "stability")
    if not checks or not set(checks) <= set(known):
        raise ConfigError(f"verify.checks must name some of {' '.join(known)}, "
                          f"got {ver['checks']!r}")
    problem, alpha, out = _problem(cfg), _alpha(cfg), _out_dir(cfg)
    # every selected check's input is checked before the first check marches,
    # and its grids before the mesh is built
    if "decay" in checks:
        decay_grid = _grid(cfg, problem, "mesh.h", "verify.decay_n_steps", "verify.decay_T")
    if "positivity" in checks:
        grid = _grid(cfg, problem, "mesh.h", "time.n_steps", "problem.T")
    if "stability" in checks:
        grids = [_grid(cfg, problem, "mesh.h", "time.n_steps", f"verify.{key}")
                 for key in ("stability_T_small", "stability_T_large")]
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    if "stability" in checks:
        perturbations = _check("problem.q, verify.n_perturbations, seed",
                               experiments.bump_perturbations, problem, mesh,
                               ver["n_perturbations"], ver["seed"])
    tables, lines = [], []  # every check runs before anything is written
    if "decay" in checks:
        rows, ratio = _check("problem.u0, f, verify.decay_T, decay_n_steps",
                             experiments.verify_decay, problem, mesh, alpha, decay_grid)
        tables.append(("decay.csv", "t,weighted_w1inf", rows, "%.18e"))
        lines.append(f"verify decay: max/min weighted ratio over [1, T] = {ratio:.3f}")
    if "positivity" in checks:
        min_val, cells = experiments.check_positivity(problem, mesh, alpha, grid)
        tables.append(("positivity.csv", "cell_weight", cells, "%.18e"))
        lines.append(f"verify positivity: min over cells = {min_val:.6e}")
    if "stability" in checks:
        table = experiments.stability_quotient(problem, mesh, alpha, grids, perturbations)
        rows = [(T, mx) for T, (_, mx) in table.items()]
        tables.append(("stability.csv", "T,max_quotient", rows, "%.17g"))
        small, large = (table[g.T][1] for g in grids)
        lines.append(f"verify stability: max quotient T={grids[0].T:g}: {small:.3f}, "
                     f"T={grids[1].T:g}: {large:.3f} (ratio {small / large:.2f})")
    _echo_config(cfg, out)
    for name, header, rows, fmt in tables:
        np.savetxt(out / name, rows, fmt=fmt, delimiter=",", header=header, comments="")
    print("\n".join(lines))
    return EXIT_OK


COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracinv",
        description="Forward solves and coefficient recovery for (sub)diffusion.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", help="path to a config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config entry")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text() if args.config else ""
        cfg = resolve_config(parse_config_text(text), args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracinvError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # the output could not be written
        print(f"config error: output.directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
