"""Command-line front end.

One sectioned key/value config file drives every subcommand; ``--set
section.key=value`` flags override single entries and the merged,
effective configuration is echoed into the output directory so any run
can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 check failed (gradcheck).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, fem, inverse, timestep
from .errors import FracinvError
from .fem import VH, Field
from .problems import PROBLEMS, get_problem, problem_mesh
from .timestep import TimeGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

# section -> key -> (type, default); None default means required.  Defaults
# the library types hold are read from them.
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
        "h": (float, experiments.ExperimentConfig.h),
    },
    "time": {
        "n_steps": (int, experiments.ExperimentConfig.n_steps),
    },
    "data": {
        "file": (str, ""),
        "epsilon": (float, 1e-2),
        "seed": (int, experiments.ExperimentConfig.seed),
        "h_ref": (float, experiments.ExperimentConfig.h_ref),
        "n_steps_ref": (int, experiments.ExperimentConfig.n_steps_ref),
    },
    "inversion": {
        "gamma": (float, 1e-8),
        "c0": (float, inverse.InverseSpec.c0),
        "c1": (float, inverse.InverseSpec.c1),
        "max_iters": (int, inverse.InverseSpec.max_iters),
        "discrepancy_factor": (float, inverse.StoppingRule.discrepancy_factor),
        "gradient_tol": (float, inverse.StoppingRule.gradient_tol),
        "q_init": (float, 1.0),
    },
    "gradcheck": {
        "n_directions": (int, 5),
        "fd_step": (float, 1e-4),
        "tolerance": (float, 1e-5),
    },
    "sweep": {
        "alphas": (_FLOAT_LIST, (0.5,)),
        "T_values": (_FLOAT_LIST, ()),  # empty -> problem default
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
    return out


def _require(cfg, section, key):
    value = cfg[section][key]
    if value is None:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return value


def _validate_physics(cfg):
    alpha = _require(cfg, "problem", "alpha")
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"problem.alpha must lie in (0, 1], got {alpha}")
    T = _require(cfg, "problem", "T")
    if not 0 < T < math.inf:
        raise ConfigError(f"problem.T must be positive and finite, got {T}")
    if cfg["time"]["n_steps"] < 1:
        raise ConfigError("time.n_steps must be >= 1")
    if not 0 <= cfg["inversion"]["gamma"] < math.inf:
        raise ConfigError("inversion.gamma must be nonnegative and finite")
    if not (0 < cfg["inversion"]["c0"] < cfg["inversion"]["c1"]):
        raise ConfigError("inversion bounds must satisfy 0 < c0 < c1")
    if cfg["data"]["epsilon"] < 0:
        raise ConfigError("data.epsilon must be nonnegative")
    if cfg["problem"]["name"] not in PROBLEMS:
        raise ConfigError(f"problem.name must be one of {sorted(PROBLEMS)}")


def _out_dir(cfg) -> Path:
    directory = cfg["output"]["directory"] or os.environ.get(
        "FRACINV_OUTPUT_DIR", "fracinv-out")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg, out_dir: Path):
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
    (out_dir / "effective-config.cfg").write_text("\n".join(lines))


def _coefficient(cfg, mesh, problem):
    choice = cfg["problem"]["q"]
    if choice == "truth":
        return fem.interpolate(mesh, VH, problem.q_true)
    try:
        const = float(choice)
    except ValueError:
        raise ConfigError(f"problem.q must be 'truth' or a number, got {choice!r}") from None
    return Field(mesh, VH, np.full(mesh.n_vertices, const))


def _problem_data(cfg, problem, key):
    """Initial state or source term: the problem's own, or a constant."""
    choice = cfg["problem"][key]
    if choice == "problem":
        return getattr(problem, "u0" if key == "u0" else "f")
    try:
        return float(choice)
    except ValueError:
        raise ConfigError(
            f"problem.{key} must be 'problem' or a number, got {choice!r}") from None


def cmd_forward(cfg) -> int:
    _validate_physics(cfg)
    problem = get_problem(cfg["problem"]["name"])
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    q = _coefficient(cfg, mesh, problem)
    grid = TimeGrid(cfg["problem"]["T"], cfg["time"]["n_steps"])
    traj = timestep.solve_forward(mesh, q, _problem_data(cfg, problem, "u0"),
                                  _problem_data(cfg, problem, "f"),
                                  cfg["problem"]["alpha"], grid)
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    from .mesh import save_mesh
    save_mesh(mesh, out / "mesh.txt")
    fem.save_field(traj.terminal, out / "u_terminal.field",
                   name="u_terminal", mesh_file="mesh.txt")
    if cfg["output"]["dump_trajectory"]:
        timestep.save_trajectory(traj, out / "trajectory", mesh_file="mesh.txt")
    print(f"forward: ||U^N||_L2 = {fem.norm_l2(traj.terminal):.12e} "
          f"-> {out / 'u_terminal.field'}")
    return EXIT_OK


def _observation(cfg, problem, mesh):
    """Observation field and noise level for inversion: from file (no noise
    level), or synthesized on ``mesh``."""
    if cfg["data"]["file"]:
        try:
            return fem.load_field(cfg["data"]["file"], mesh), None
        except OSError as exc:
            raise ConfigError(f"data.file: {exc}") from None
    fine = problem_mesh(problem, cfg["data"]["h_ref"])
    u_fine = experiments.solve_truth(problem, fine, cfg["problem"]["alpha"],
                                     cfg["problem"]["T"],
                                     cfg["data"]["n_steps_ref"])
    u_ref = experiments.transfer_terminal(u_fine, mesh)
    z, delta = experiments.add_noise(u_ref, fem.norm_linf(u_fine),
                                     cfg["data"]["epsilon"], cfg["data"]["seed"])
    return z, delta


def _inverse_spec(cfg, problem, mesh, z, delta):
    inv = cfg["inversion"]
    stop = inverse.StoppingRule(noise_level=delta,
                                discrepancy_factor=inv["discrepancy_factor"],
                                gradient_tol=inv["gradient_tol"])
    q_init = Field(mesh, VH, np.full(mesh.n_vertices, inv["q_init"]))
    return inverse.InverseSpec(
        mesh=mesh, alpha=cfg["problem"]["alpha"],
        grid=TimeGrid(cfg["problem"]["T"], cfg["time"]["n_steps"]),
        u0=problem.u0, f=problem.f, z_delta=z, gamma=inv["gamma"],
        c0=inv["c0"], c1=inv["c1"], q_init=q_init,
        max_iters=inv["max_iters"], stop=stop)


def cmd_invert(cfg) -> int:
    _validate_physics(cfg)
    problem = get_problem(cfg["problem"]["name"])
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    z, delta = _observation(cfg, problem, mesh)
    spec = _inverse_spec(cfg, problem, mesh, z, delta)
    result = inverse.run_inversion(spec)
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    from .mesh import save_mesh
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
    _validate_physics(cfg)
    check = cfg["gradcheck"]
    step, tol = check["fd_step"], check["tolerance"]
    if not 0.0 < step < math.inf:
        raise ConfigError(f"gradcheck.fd_step must be positive and finite, got {step}")
    if check["n_directions"] < 1:
        raise ConfigError(
            f"gradcheck.n_directions must be >= 1, got {check['n_directions']}")
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"gradcheck.tolerance must be nonnegative and finite, got {tol}")
    problem = get_problem(cfg["problem"]["name"])
    mesh = problem_mesh(problem, cfg["mesh"]["h"])
    z, delta = _observation(cfg, problem, mesh)
    spec = _inverse_spec(cfg, problem, mesh, z, delta)
    q = spec.q_init
    g = inverse.gradient(spec, q)
    rng = np.random.default_rng(cfg["data"]["seed"] + 1)
    worst = 0.0
    for _ in range(check["n_directions"]):
        d = _smooth_direction_sample(mesh, rng)
        qp = Field(mesh, VH, q.values + step * d)
        qm = Field(mesh, VH, q.values - step * d)
        fd = (inverse.objective(spec, qp)[0] - inverse.objective(spec, qm)[0]) / (2 * step)
        adj = float(g.values @ d)
        rel = abs(fd - adj) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
    print(f"gradcheck: max relative mismatch {worst:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if worst <= tol else EXIT_CHECK


def _smooth_direction_sample(mesh, rng):
    """Random band-limited direction with unit max amplitude."""
    x = mesh.vertices
    vals = np.zeros(mesh.n_vertices)
    for k in range(1, 4):
        if mesh.dim == 1:
            mode = np.sin(k * np.pi * x[:, 0] + rng.uniform(0, 2 * np.pi))
        else:
            wx, wy = rng.normal(size=2)
            mode = np.sin(k * np.pi * (wx * x[:, 0] + wy * x[:, 1]) / math.hypot(wx, wy))
        vals += rng.normal() * mode
    return vals / np.abs(vals).max()


def cmd_bench(cfg) -> int:
    _validate_physics(cfg)
    sweep = cfg["sweep"]
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    T_values = sweep["T_values"] or (cfg["problem"]["T"],)
    config = experiments.ExperimentConfig(
        problem=cfg["problem"]["name"], alphas=sweep["alphas"],
        T_values=T_values, noise_levels=sweep["noise_levels"],
        gammas=sweep["gammas"] or None, c_gamma=sweep["c_gamma"],
        h=cfg["mesh"]["h"], n_steps=cfg["time"]["n_steps"],
        h_ref=cfg["data"]["h_ref"], n_steps_ref=cfg["data"]["n_steps_ref"],
        seed=cfg["data"]["seed"], bounds=(cfg["inversion"]["c0"], cfg["inversion"]["c1"]),
        max_iters=cfg["inversion"]["max_iters"],
        discrepancy_factor=cfg["inversion"]["discrepancy_factor"],
        output_dir=str(out))
    report = experiments.run_sweep(config)
    n_fail = sum(1 for r in report.records if r.error is not None)
    print(f"bench: {len(report.records)} runs, {n_fail} failed -> {out / 'report.csv'}")
    for (a, T), (rq, ru) in report.rates.items():
        print(f"  alpha={a:g} T={T:g}: e_q rate "
              f"{rq if rq is not None else float('nan'):.3f}, "
              f"e_u rate {ru if ru is not None else float('nan'):.3f}")
    return EXIT_OK


def cmd_verify(cfg) -> int:
    _validate_physics(cfg)
    ver = cfg["verify"]
    checks = ver["checks"].split()
    known = ("decay", "positivity", "stability")
    if not checks or not set(checks) <= set(known):
        raise ConfigError(f"verify.checks must name some of {' '.join(known)}, "
                          f"got {ver['checks']!r}")
    out = _out_dir(cfg)
    _echo_config(cfg, out)
    name = cfg["problem"]["name"]
    alpha = cfg["problem"]["alpha"]
    h = cfg["mesh"]["h"]
    if "decay" in checks:
        rows, ratio = experiments.verify_decay(
            name, alpha, ver["decay_T"], ver["decay_n_steps"], h)
        np.savetxt(out / "decay.csv", rows, delimiter=",",
                   header="t,weighted_w1inf", comments="")
        print(f"verify decay: max/min weighted ratio over [1, T] = {ratio:.3f}")
    if "positivity" in checks:
        min_val, cells = experiments.check_positivity(
            name, alpha, cfg["problem"]["T"], cfg["time"]["n_steps"], h)
        np.savetxt(out / "positivity.csv", cells, delimiter=",",
                   header="cell_weight", comments="")
        print(f"verify positivity: min over cells = {min_val:.6e}")
    if "stability" in checks:
        T_pair = (ver["stability_T_small"], ver["stability_T_large"])
        table = experiments.stability_quotient(
            name, alpha, T_pair, ver["n_perturbations"], ver["seed"], h,
            cfg["time"]["n_steps"])
        with open(out / "stability.csv", "w") as fh:
            fh.write("T,max_quotient\n")
            for T, (_, mx) in table.items():
                fh.write(f"{T:.17g},{mx:.17g}\n")
        small, large = table[T_pair[0]][1], table[T_pair[1]][1]
        print(f"verify stability: max quotient T={T_pair[0]:g}: {small:.3f}, "
              f"T={T_pair[1]:g}: {large:.3f} (ratio {small / large:.2f})")
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


if __name__ == "__main__":
    sys.exit(main())
