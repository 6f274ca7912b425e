import time

import pytest

from fracinv import experiments, fem, mesh, problems, timestep
from fracinv.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, ConfigError,
                         main, parse_config_text, resolve_config)
from fracinv.errors import InvalidCoefficientError

BASE = """
[problem]
name = 1d-sine
alpha = 0.5
T = 1.0

[mesh]
h = 0.05

[time]
n_steps = 8

[data]
epsilon = 1e-2
seed = 3
h_ref = 0.0125
n_steps_ref = 40
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_parse_sections():
    cfg = parse_config_text("# comment\n[problem]\nalpha = 0.5\n")
    assert cfg == {"problem": {"alpha": "0.5"}}


def test_parse_rejects_key_outside_section():
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 0.5\n")


def test_resolve_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config({"problem": {"alfa": "0.5"}}, [])


def test_resolve_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        resolve_config({"nonsense": {}}, [])


def test_override_round_trip():
    cfg = resolve_config(parse_config_text(BASE), ["problem.alpha=0.75"])
    assert cfg["problem"]["alpha"] == 0.75


def test_override_rejects_unknown():
    with pytest.raises(ConfigError):
        resolve_config({}, ["problem.bogus=1"])


def test_forward_writes_dump_and_echo(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/out\n")
    assert main(["forward", cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "||U^N||_L2" in out
    assert (tmp_path / "out" / "u_terminal.field").exists()
    assert (tmp_path / "out" / "effective-config.cfg").exists()
    assert (tmp_path / "out" / "mesh.txt").exists()


def test_output_directory_defaults_to_the_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACINV_OUTPUT_DIR", str(tmp_path / "env-out"))
    monkeypatch.chdir(tmp_path)
    assert main(["forward", write_cfg(tmp_path, BASE)]) == EXIT_OK
    assert (tmp_path / "env-out" / "u_terminal.field").exists()
    assert not (tmp_path / "fracinv-out").exists()


def test_output_directory_defaults_to_fracinv_out(tmp_path, monkeypatch):
    monkeypatch.delenv("FRACINV_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["forward", write_cfg(tmp_path, BASE)]) == EXIT_OK
    assert (tmp_path / "fracinv-out" / "u_terminal.field").exists()


def test_forward_constant_coefficient(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/out\n")
    assert main(["forward", cfg_path, "--set", "problem.q=1.0"]) == EXIT_OK


def test_forward_zero_data_gives_zero_field(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/z\n")
    assert main(["forward", cfg_path, "--set", "problem.u0=0",
                 "--set", "problem.f=0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "||U^N||_L2 = 0.0" in out


def test_forward_trajectory_dump(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[output]
directory = {tmp_path}/traj
dump_trajectory = 1
""")
    assert main(["forward", cfg_path]) == EXIT_OK
    dumps = sorted((tmp_path / "traj" / "trajectory").glob("u_*.field"))
    assert len(dumps) == 9  # N + 1 states


def test_missing_alpha_exits_2(tmp_path, capsys):
    text = BASE.replace("alpha = 0.5\n", "")
    cfg_path = write_cfg(tmp_path, text)
    assert main(["forward", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "alpha" in err


def test_invert_negative_gamma_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    code = main(["invert", cfg_path, "--set", "inversion.gamma=-1e-8"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("setting, message", [
    ("inversion.discrepancy_factor=nan", "discrepancy factor"),
    ("inversion.max_iters=-1", "max_iters"),
    ("inversion.q_init=nan", "initial coefficient")])
def test_invert_bad_inversion_input_exits_2(tmp_path, capsys, setting, message):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["invert", cfg_path, "--set", setting]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("h", ["inf", "0.9"])
def test_invert_mesh_without_interior_vertex_exits_2(tmp_path, capsys, h):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["invert", cfg_path, "--set", f"mesh.h={h}"]) == EXIT_CONFIG
    assert "mesh" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["nan", "inf"])
def test_forward_non_finite_T_exits_2(tmp_path, capsys, T):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path, "--set", f"problem.T={T}"]) == EXIT_CONFIG
    assert "problem.T" in capsys.readouterr().err


def test_invert_produces_history_and_field(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[inversion]
gamma = 1e-8
max_iters = 40
discrepancy_factor = 1.05

[output]
directory = {tmp_path}/inv
""")
    assert main(["invert", cfg_path]) == EXIT_OK
    out_dir = tmp_path / "inv"
    assert (out_dir / "history.csv").exists()
    assert (out_dir / "q_reconstructed.field").exists()
    header = (out_dir / "history.csv").read_text().splitlines()[0]
    assert header == "k,J,misfit,penalty,grad_norm,step"


def test_gradcheck_passes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[inversion]
gamma = 1e-8

[output]
directory = {tmp_path}/gc
""")
    assert main(["gradcheck", cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative mismatch" in out


def test_gradcheck_failure_exit_code(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[gradcheck]
tolerance = 1e-16

[output]
directory = {tmp_path}/gc2
""")
    assert main(["gradcheck", cfg_path]) == EXIT_CHECK


def test_bench_csv_shape(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[sweep]
alphas = 0.5
noise_levels = 1e-2 5e-3
c_gamma = 4e-4

[inversion]
max_iters = 30
discrepancy_factor = 1.05

[output]
directory = {tmp_path}/bench
""")
    assert main(["bench", cfg_path]) == EXIT_OK
    lines = (tmp_path / "bench" / "report.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,T,eps,gamma,delta,e_q,e_u")
    assert len(lines) == 3  # header + 2 runs


def test_bench_with_a_noise_free_run_writes_its_report(tmp_path, capsys):
    # one positive noise level: the row gets no rate, and the sweep's
    # artifacts are written
    cfg_path = write_cfg(tmp_path, BASE + f"""
[sweep]
alphas = 0.5
noise_levels = 0 1e-2

[inversion]
max_iters = 30

[output]
directory = {tmp_path}/bench
""")
    assert main(["bench", cfg_path]) == EXIT_OK
    assert "e_q rate nan, e_u rate nan" in capsys.readouterr().out
    for name in ("report.csv", "report.json", "effective-config.cfg"):
        assert (tmp_path / "bench" / name).exists()


def test_verify_tables(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + f"""
[verify]
checks = decay positivity stability
decay_T = 4.0
decay_n_steps = 120
stability_T_small = 1e-5
stability_T_large = 5.0
n_perturbations = 4

[output]
directory = {tmp_path}/ver
""")
    assert main(["verify", cfg_path, "--set", "problem.alpha=0.75"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decay" in out and "positivity" in out and "stability" in out
    assert (tmp_path / "ver" / "decay.csv").exists()
    assert (tmp_path / "ver" / "positivity.csv").exists()
    assert (tmp_path / "ver" / "stability.csv").exists()


def test_effective_config_reproduces_run(tmp_path):
    # flags round-trip: rerunning from the echoed config gives the same field,
    # and the echoed file resolves to the same config, float lists exactly
    out1 = tmp_path / "a"
    base = BASE + f"\n[output]\ndirectory = {out1}\n"
    cfg_path = write_cfg(tmp_path, base)
    flags = ["time.n_steps=9", "sweep.alphas=0.123456789 0.5"]
    assert main(["forward", cfg_path, "--set", flags[0], "--set", flags[1]]) == EXIT_OK
    echoed = (out1 / "effective-config.cfg").read_text()
    assert (resolve_config(parse_config_text(echoed), [])
            == resolve_config(parse_config_text(base), flags))
    text = echoed.replace(str(out1), str(tmp_path / "b"))
    cfg2 = write_cfg(tmp_path, text)
    assert main(["forward", cfg2]) == EXIT_OK
    f1 = (out1 / "u_terminal.field").read_text()
    f2 = (tmp_path / "b" / "u_terminal.field").read_text()
    assert f1 == f2


@pytest.mark.parametrize("command, settings, message", [
    ("gradcheck", ["gradcheck.fd_step=0"], "gradcheck.fd_step"),
    ("gradcheck", ["gradcheck.n_directions=0"], "gradcheck.n_directions"),
    ("gradcheck", ["gradcheck.tolerance=nan"], "gradcheck.tolerance"),
    ("verify", ["verify.checks=bogus"], "verify.checks"),
    ("verify", ["verify.checks=stability", "verify.n_perturbations=0"],
     "n_perturbations")])
def test_bad_check_keys_exit_2(tmp_path, capsys, command, settings, message):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, cfg_path, *flags]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    ["sweep.noise_levels=nan"], ["mesh.h=nan"], ["time.n_steps=0"],
    ["sweep.c_gamma=nan"], ["inversion.c0=5", "inversion.c1=0.5"],
    ["sweep.alphas=1.5"], ["inversion.max_iters=-3"], ["sweep.T_values=inf"],
    ["data.seed=-1"], ["sweep.noise_levels=0.01 0.01"]],
    ids=lambda settings: settings[0])
def test_bench_bad_sweep_input_exits_2_before_any_solve(tmp_path, capsys,
                                                         monkeypatch, settings):
    def no_solve(*args):
        raise AssertionError("bad sweep input reached a truth solve")
    monkeypatch.setattr(experiments, "solve_truth", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = [arg for setting in settings for arg in ("--set", setting)]
    assert main(["bench", cfg_path, *flags]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["alphas = 0.5 0.5", "alphas =", "noise_levels ="])
def test_bench_empty_or_repeated_sweep_list_exits_2_unbuilt(tmp_path, capsys,
                                                           monkeypatch, sweep):
    def no_mesh(*args):
        raise AssertionError("bench built a mesh")
    monkeypatch.setattr(problems, "generate_interval_mesh", no_mesh)
    monkeypatch.setattr(mesh, "generate_interval_mesh", no_mesh)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[sweep]\n{sweep}\n"
                                          f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["bench", cfg_path]) == EXIT_CONFIG
    assert sweep.partition(" ")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invert_reads_data_file(tmp_path, capsys):
    # a forward run's terminal field is the observation of an inversion
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/fw\n")
    assert main(["forward", cfg_path]) == EXIT_OK
    data = tmp_path / "fw" / "u_terminal.field"
    assert main(["invert", cfg_path, "--set", f"data.file={data}",
                 "--set", f"output.directory={tmp_path}/inv",
                 "--set", "inversion.max_iters=5"]) == EXIT_OK
    assert (tmp_path / "inv" / "history.csv").exists()


@pytest.mark.parametrize("file_from", ["coarser-mesh", "missing"])
def test_invert_bad_data_file_exits_2(tmp_path, capsys, file_from):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/fw\n")
    data = tmp_path / "fw" / "u_terminal.field"
    if file_from == "coarser-mesh":
        assert main(["forward", cfg_path, "--set", "mesh.h=0.1"]) == EXIT_OK
    assert main(["invert", cfg_path, "--set", f"data.file={data}",
                 "--set", f"output.directory={tmp_path}/inv"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bench_without_alpha_exits_0(tmp_path, capsys):
    # bench sweeps sweep.alphas and never reads problem.alpha
    cfg_path = write_cfg(tmp_path, BASE.replace("alpha = 0.5\n", "") + f"""
[sweep]
noise_levels = 1e-2

[output]
directory = {tmp_path}/bench
""")
    assert main(["bench", cfg_path]) == EXIT_OK
    assert (tmp_path / "bench" / "report.csv").exists()


@pytest.mark.parametrize("setting", ["problem.q=2", "problem.u0=0", "problem.f=0"])
def test_bench_rejects_problem_data(tmp_path, capsys, monkeypatch, setting):
    # the sweep runs the named problem as defined; a constant would be ignored
    def no_solve(*args):
        raise AssertionError("rejected input reached a truth solve")
    monkeypatch.setattr(experiments, "solve_truth", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["bench", cfg_path, "--set", setting]) == EXIT_CONFIG
    assert setting.partition("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("bench", "sweep.noise_levels=nan"),
    ("verify", "verify.n_perturbations=0")])
def test_rejected_run_writes_nothing(tmp_path, capsys, command, setting):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main([command, cfg_path, "--set", setting]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_disk_truth_mesh_over_the_budget_exits_2_unbuilt(tmp_path, capsys, monkeypatch):
    # the 1d-sine truth size on the disk is 17.3 million vertices
    coarse = problems.generate_disk_mesh

    def disk_mesh(target_h):
        assert target_h == 0.3, f"built the disk mesh of h={target_h}"
        return coarse(target_h)

    monkeypatch.setattr(problems, "generate_disk_mesh", disk_mesh)
    cfg_path = write_cfg(tmp_path, f"""
[problem]
name = 2d-disk
alpha = 0.5
T = 2.0

[mesh]
h = 0.3

[time]
n_steps = 8

[output]
directory = {tmp_path}/o
""")
    start = time.perf_counter()
    assert main(["invert", cfg_path, "--set", "data.h_ref=6.25e-4"]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "data.h_ref" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


DISK = """
[problem]
name = 2d-disk
alpha = 0.5
T = 2.0
"""


def test_resolve_fills_unset_grid_keys_from_the_problem():
    cfg = resolve_config(parse_config_text(DISK), ["time.n_steps=12"])
    assert (cfg["mesh"]["h"], cfg["time"]["n_steps"], cfg["data"]["h_ref"],
            cfg["data"]["n_steps_ref"]) == (0.1, 12, 0.05, 160)
    with pytest.raises(ConfigError, match="problem.name"):
        resolve_config({"problem": {"name": "3d-cube"}}, [])


def test_invert_on_the_disk_needs_no_grid_keys(tmp_path, capsys):
    # the disk's own grids, recorded in the echoed config
    cfg_path = write_cfg(tmp_path, DISK + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["invert", cfg_path]) == EXIT_OK
    echoed = (tmp_path / "o" / "effective-config.cfg").read_text()
    for line in ("h = 0.1", "n_steps = 20", "h_ref = 0.05", "n_steps_ref = 160"):
        assert f"\n{line}\n" in echoed


@pytest.mark.parametrize("command", ["invert", "gradcheck"])
@pytest.mark.parametrize("settings", [
    ["mesh.h=0.1", "time.n_steps=8", "data.h_ref=0.2", "data.n_steps_ref=4"],
    ["data.h_ref=0.05"], ["data.n_steps_ref=8"]], ids=lambda settings: settings[-1])
def test_truth_grid_not_finer_exits_2(tmp_path, capsys, monkeypatch, command, settings):
    def no_solve(*args):
        raise AssertionError("a coarse truth grid reached a truth solve")
    monkeypatch.setattr(experiments, "solve_truth", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, cfg_path, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "data.h_ref" in err and "data.n_steps_ref" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["data.h_ref", "mesh.h"])
def test_bench_names_the_mesh_over_the_budget_unbuilt(tmp_path, capsys, monkeypatch, key):
    # the disk at h = 6.25e-4 would have 17.3 million vertices
    def unbuilt(*args):
        raise AssertionError("bench built a disk mesh")
    monkeypatch.setattr(problems, "generate_disk_mesh", unbuilt)
    monkeypatch.setattr(mesh, "generate_disk_mesh", unbuilt)
    cfg_path = write_cfg(tmp_path, DISK + f"\n[output]\ndirectory = {tmp_path}/o\n")
    start = time.perf_counter()
    assert main(["bench", cfg_path, "--set", f"{key}=6.25e-4"]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, h", [("1d-sine", "0.9"), ("2d-disk", "1.2")])
def test_bench_names_a_mesh_size_problem_mesh_cannot_build(tmp_path, capsys, monkeypatch,
                                                           name, h):
    # one interval cell or a disk size over 1 once passed to run_sweep, whose
    # error named no key
    def unbuilt(*args):
        raise AssertionError("bench built a mesh")
    for module in (problems, mesh):
        monkeypatch.setattr(module, "generate_interval_mesh", unbuilt)
        monkeypatch.setattr(module, "generate_disk_mesh", unbuilt)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["bench", cfg_path, "--set", f"problem.name={name}",
                 "--set", f"mesh.h={h}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: mesh.h: ")
    assert not (tmp_path / "o").exists()


def test_forward_with_a_step_whose_power_overflows_exits_2(tmp_path, capsys):
    # tau**-1 of this step once overflowed in solve_forward
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path, "--set", "problem.alpha=1",
                 "--set", "problem.T=1e-310"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: problem.T, time.n_steps: ")
    assert not (tmp_path / "o").exists()


def test_invert_names_a_truth_step_whose_power_overflows_unbuilt(tmp_path, capsys,
                                                                 monkeypatch):
    # T/8 is a normal float, T/40 is not
    def unbuilt(*args):
        raise AssertionError("a rejected truth grid built a mesh")
    for module in (problems, mesh):
        monkeypatch.setattr(module, "generate_interval_mesh", unbuilt)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["invert", cfg_path, "--set", "problem.T=5e-307"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: problem.T, data.n_steps_ref: ")
    assert not (tmp_path / "o").exists()


def _no_interval_mesh(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a rejected time grid built a mesh")
    for module in (problems, mesh):
        monkeypatch.setattr(module, "generate_interval_mesh", unbuilt)


@pytest.mark.parametrize("setting, keys", [
    ("problem.T=1e-310", "problem.T, time.n_steps"),
    ("sweep.T_values=1 1e-310", "sweep.T_values, time.n_steps"),
    ("sweep.T_values=1 5e-307", "sweep.T_values, data.n_steps_ref")],
    ids=["problem.T", "sweep.T_values", "truth-grid"])
def test_bench_names_the_keys_of_a_time_step_whose_power_overflows_unbuilt(
        tmp_path, capsys, monkeypatch, setting, keys):
    # the message once named no key: "bench: time step T/N=... is below ..."
    _no_interval_mesh(monkeypatch)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["bench", cfg_path, "--set", setting]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {keys}: time step")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("checks", ["", "decay stability"], ids=["default", "selected"])
@pytest.mark.parametrize("setting, keys", [
    ("verify.decay_T=1e-310", "verify.decay_T, verify.decay_n_steps"),
    ("verify.stability_T_small=1e-310", "verify.stability_T_small, time.n_steps")],
    ids=["decay_T", "stability_T_small"])
def test_verify_rejects_a_tiny_final_time_unbuilt(tmp_path, capsys, monkeypatch,
                                                  checks, setting, keys):
    # verify once built its mesh before it checked these grids
    _no_interval_mesh(monkeypatch)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = ["--set", f"verify.checks={checks}"] if checks else []
    assert main(["verify", cfg_path, "--set", setting, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {keys}: time step")
    assert not (tmp_path / "o").exists()


BIG = "1000000000000"


@pytest.mark.parametrize("command, settings, keys", [
    ("forward", [f"time.n_steps={BIG}"], "mesh.h, time.n_steps"),
    ("invert", [f"data.n_steps_ref={BIG}"], "data.h_ref, data.n_steps_ref"),
    ("gradcheck", [f"time.n_steps={BIG}", f"data.n_steps_ref={BIG}1"],
     "mesh.h, time.n_steps"),
    ("bench", [f"data.n_steps_ref={BIG}"], "data.h_ref, data.n_steps_ref"),
    ("verify", ["verify.checks=decay", f"verify.decay_n_steps={BIG}"],
     "mesh.h, verify.decay_n_steps"),
    ("verify", ["verify.checks=positivity", f"time.n_steps={BIG}"],
     "mesh.h, time.n_steps")],
    ids=["forward", "invert", "gradcheck", "bench", "verify-decay", "verify-positivity"])
def test_march_over_the_budget_exits_2_unbuilt(tmp_path, capsys, monkeypatch,
                                               command, settings, keys):
    # 10**12 steps once died with a MemoryError allocating the CQ weights
    # (7.28 TiB), after the mesh was built
    def unbuilt(*args):
        raise AssertionError("a march over the budget built a mesh")
    monkeypatch.setattr(problems, "generate_interval_mesh", unbuilt)
    monkeypatch.setattr(mesh, "generate_interval_mesh", unbuilt)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, cfg_path, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {keys}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["forward", "bench"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_output_directory_that_is_a_file_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, below):
    # a file in the directory's place once raised FileExistsError after the
    # solve (forward) or NotADirectoryError from run_sweep's mkdir (bench)
    def no_solve(*args):
        raise AssertionError("an unusable output directory reached a truth solve")
    monkeypatch.setattr(experiments, "solve_truth", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "o" if below else taken
    cfg_path = write_cfg(tmp_path, BASE + f"\n[sweep]\nnoise_levels = 1e-2\n")
    assert main([command, cfg_path, "--set", f"output.directory={out}"]) == EXIT_CONFIG
    assert "config error: output.directory: " in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a directory where forward writes its mesh file fails the last writes
    (tmp_path / "o" / "mesh.txt").mkdir(parents=True)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path]) == EXIT_CONFIG
    assert "config error: output.directory: " in capsys.readouterr().err


def test_invert_honours_problem_data(tmp_path, capsys):
    # zero u0 and f make the data pure noise, which q_init already fits
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["invert", cfg_path, "--set", "problem.u0=0",
                 "--set", "problem.f=0"]) == EXIT_OK
    assert "(discrepancy) iterations=0 " in capsys.readouterr().out


@pytest.mark.parametrize("setting", [
    "problem.q=-1", "problem.q=0", "problem.q=nan", "problem.u0=nan",
    "problem.f=inf"])
def test_forward_bad_problem_data_exits_2(tmp_path, capsys, setting):
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path, "--set", setting]) == EXIT_CONFIG
    assert setting.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["invert", "gradcheck"])
@pytest.mark.parametrize("settings", [
    ["inversion.gamma=-1e-8"], ["inversion.gamma=nan"],
    ["inversion.c0=5", "inversion.c1=0.5"], ["inversion.c0=nan"],
    ["inversion.max_iters=-1"], ["inversion.q_init=nan"], ["inversion.q_init=9"],
    ["inversion.discrepancy_factor=nan"], ["inversion.discrepancy_factor=0"],
    ["inversion.gradient_tol=-1"], ["data.epsilon=-1"], ["data.epsilon=nan"],
    ["data.seed=-1"]],
    ids=lambda settings: settings[0])
def test_bad_inversion_input_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      command, settings):
    def no_solve(*args):
        raise AssertionError("bad inversion input reached a truth solve")
    monkeypatch.setattr(experiments, "solve_truth", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    flags = [arg for setting in settings for arg in ("--set", setting)]
    assert main([command, cfg_path, *flags]) == EXIT_CONFIG
    assert settings[0].partition("=")[0].split(".")[0] in capsys.readouterr().err


def _field_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_invert_matches_the_sweep(tmp_path, capsys):
    # one data path: invert at a sweep's row-0 settings reconstructs the same q
    config = experiments.ExperimentConfig(
        problem="1d-sine", alphas=(0.5,), T_values=(1.0,), noise_levels=(1e-2,),
        h=0.05, n_steps=8, h_ref=0.0125, n_steps_ref=40, seed=3,
        output_dir=str(tmp_path / "sweep"))
    experiments.run_sweep(config)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/inv\n")
    assert main(["invert", cfg_path,
                 "--set", f"inversion.gamma={config.gamma_for(0)!r}"]) == EXIT_OK
    assert (_field_lines(tmp_path / "inv" / "q_reconstructed.field")
            == _field_lines(tmp_path / "sweep" / "alpha0.5_T1_eps0.01_q.field"))


def test_verify_stability_perturbs_a_large_coefficient(tmp_path, capsys):
    # the bumps ride on q = 10 itself, not on a clip of it to fixed bounds
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["verify", cfg_path, "--set", "problem.q=10",
                 "--set", "verify.checks=stability"]) == EXIT_OK
    assert "T=1e-05: 2.682, T=5: 5.841 " in capsys.readouterr().out


@pytest.mark.parametrize("setting, message", [
    ("problem.q=0.05", "problem.q"),  # a bump of amplitude 0.1 could make q <= 0
    ("verify.stability_T_large=nan", "stability_T_large")])
def test_verify_stability_rejects_bad_input_before_any_solve(tmp_path, capsys,
                                                             monkeypatch, setting,
                                                             message):
    def no_solve(*args):
        raise AssertionError("rejected stability input reached a solve")
    monkeypatch.setattr(timestep, "solve_forward", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    # the stability check alone, then all three checks, the default
    for checks in (["--set", "verify.checks=stability"], []):
        assert main(["verify", cfg_path, "--set", setting, *checks]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting, message", [
    ("problem.T=nan", "problem.T"),  # read by the positivity check only
    ("verify.decay_T=0.5", "decay_T")])  # no step in the decay window [1, T]
def test_verify_rejects_bad_input_before_any_solve(tmp_path, capsys, monkeypatch,
                                                   setting, message):
    def no_solve(*args):
        raise AssertionError("rejected verify input reached a solve")
    monkeypatch.setattr(timestep, "solve_forward", no_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["verify", cfg_path, "--set", setting]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("checks", ["decay", "stability"])
def test_verify_rejects_data_with_no_signal(tmp_path, capsys, checks):
    # zero u0 and f leave the state at rest: no ratio or quotient to report
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["verify", cfg_path, "--set", "problem.u0=0", "--set", "problem.f=0",
                 "--set", f"verify.checks={checks}", "--set", "verify.decay_T=2",
                 "--set", "verify.decay_n_steps=20"]) == EXIT_CONFIG
    assert "u0 and f" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_builds_one_mesh_for_all_checks(tmp_path, monkeypatch):
    built = {"mesh": 0, "geometry": 0}

    def counted(kind, build):
        def wrapper(*args, **kwargs):
            built[kind] += 1
            return build(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(mesh, "build_mesh", counted("mesh", mesh.build_mesh))
    monkeypatch.setattr(fem, "Geometry", counted("geometry", fem.Geometry))
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["verify", cfg_path, "--set", "verify.decay_T=2",
                 "--set", "verify.decay_n_steps=20",
                 "--set", "verify.n_perturbations=2"]) == EXIT_OK
    assert built == {"mesh": 1, "geometry": 1}


@pytest.mark.parametrize("config_text, flags, message", [
    pytest.param("[problem]\nalpha 0.5\n", [], "line 2: expected 'key = value'",
                 id="line-without-equals"),
    pytest.param("[problem]\nalpha = half\n", [], "[problem] alpha: cannot parse 'half'",
                 id="value-does-not-parse"),
    pytest.param(BASE, ["--set", "problem.alpha"], "--set expects section.key=value",
                 id="set-without-value"),
    pytest.param(BASE, ["--set", "problem.q=abc"], "problem.q must be 'truth' or a positive",
                 id="non-numeric-q"),
])
def test_config_errors_exit_2(tmp_path, capsys, config_text, flags, message):
    cfg_path = write_cfg(tmp_path, config_text + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["forward", str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err


def test_solver_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def failing_solve(*args):
        raise InvalidCoefficientError("injected failure")
    monkeypatch.setattr(experiments, "solve_truth", failing_solve)
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {tmp_path}/o\n")
    assert main(["forward", cfg_path]) == EXIT_SOLVER
    assert capsys.readouterr().err == "solver error: injected failure\n"
    assert not (tmp_path / "o").exists()


def test_gradcheck_on_the_disk(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, f"""
[problem]
name = 2d-disk
alpha = 0.5
T = 2.0

[mesh]
h = 0.3

[time]
n_steps = 8

[data]
h_ref = 0.15
n_steps_ref = 16

[output]
directory = {tmp_path}/gc
""")
    assert main(["gradcheck", cfg_path]) == EXIT_OK
    assert "max relative mismatch" in capsys.readouterr().out
