import pytest

from fracinv.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_OK, ConfigError, main,
                         parse_config_text, resolve_config)

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
    # flags round-trip: rerunning from the echoed config gives the same field
    out1 = tmp_path / "a"
    cfg_path = write_cfg(tmp_path, BASE + f"\n[output]\ndirectory = {out1}\n")
    assert main(["forward", cfg_path, "--set", "time.n_steps=9"]) == EXIT_OK
    echoed = out1 / "effective-config.cfg"
    text = echoed.read_text().replace(str(out1), str(tmp_path / "b"))
    cfg2 = write_cfg(tmp_path, text)
    assert main(["forward", cfg2]) == EXIT_OK
    f1 = (out1 / "u_terminal.field").read_text()
    f2 = (tmp_path / "b" / "u_terminal.field").read_text()
    assert f1 == f2
