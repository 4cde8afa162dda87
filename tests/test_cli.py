import math
import textwrap

import numpy as np
import pytest

from mapthermo.cli import main, parse_config, run_scenario
from mapthermo.errors import ConfigError
from mapthermo.dynamics import save_map_trajectory
from mapthermo.models import WeakCouplingParams, weak_coupling_rates
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.validation import random_gksl_trajectory


def write_config(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


WEAK_BODY = """\
    [scenario]
    model = weak_coupling
    beta_list = 1.0
    n_steps = 64
    out_dir = {out}
    distribution_times = 5.004

    [weak_coupling]
    gamma = 0.01
"""


def test_parse_minimal_weak_coupling_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [scenario]
        model = weak_coupling
        beta_list = 1.0, 3.0

        [weak_coupling]
    """))
    assert cfg.model == "weak_coupling"
    assert cfg.params == WeakCouplingParams()
    assert cfg.beta_list == (1.0, 3.0)
    assert cfg.n_steps == 1000
    assert abs(cfg.t_max - 10.0) < 1e-12
    assert cfg.series == ("lambda", "invertibility", "pc_coefficients")
    # defaulted keys are tagged for the manifest
    tagged = {k: d for k, _, d in cfg.entries["weak_coupling"]}
    assert tagged["gamma"] is True


def test_parse_keys_are_case_sensitive(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [scenario]
        model = weak_coupling
        beta_list = 1.0

        [weak_coupling]
        omega0 = 1.5
        Omega = 0.2
    """))
    assert cfg.params.omega0 == 1.5
    assert cfg.params.Omega == 0.2
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_config(tmp_path, """\
            [scenario]
            model = weak_coupling
            beta_list = 1.0

            [weak_coupling]
            omega = 1.5
        """, name="bad.ini"))


@pytest.mark.parametrize("body,needle", [
    ("[weak_coupling]\n", "missing \\[scenario\\]"),
    ("[scenario]\nmodel = brownian\nbeta_list = 1\n", "must be one of"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1\n", "missing"),
    ("[scenario]\nmodel = weak_coupling\n\n[weak_coupling]\n",
     "required key is missing"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = \n\n[weak_coupling]\n",
     "empty list"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1, -2\n"
     "\n[weak_coupling]\n", "positive"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1\nn_steps = 8\n"
     "\n[weak_coupling]\n", ">= 16"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1\nseries = coherent\n"
     "\n[weak_coupling]\n", "not\\s+available"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1\n"
     "\n[weak_coupling]\ngamma = fast\n", "cannot parse"),
    ("[scenario]\nmodel = weak_coupling\nbeta_list = 1\n"
     "\n[weak_coupling]\n\n[jaynes_cummings]\n", "unexpected section"),
    ("[scenario]\nmodel = closed_coherent\nbeta_list = 1\n"
     "\n[closed_coherent]\n", "derives beta"),
])
def test_parse_rejections(tmp_path, body, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(write_config(tmp_path, body))


def test_parse_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.ini"))


def test_run_weak_coupling_end_to_end(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=out))
    assert main(["run", cfg_path]) == 0

    lam = (out / "lambda_series.csv").read_text().splitlines()
    assert lam[0].startswith("t,beta,lambda_u,lambda_w")
    assert len(lam) == 1 + 65
    first = [float(x) for x in lam[1].split(",")]
    assert first[0] == 0.0 and abs(first[3] - 1.0) < 1e-12

    inv = (out / "invertibility.csv").read_text().splitlines()
    assert inv[0] == "t,condition_number,flag"
    assert all(line.endswith(",ok") for line in inv[1:])

    pc = (out / "pc_coefficients.csv").read_text().splitlines()
    assert pc[0] == "t,a,b,c,d_par,d_perp,I,J"
    assert len(pc) == 1 + 65

    # the requested time snaps to the nearest grid point
    dist = (out / "distribution_t5.csv").read_text().splitlines()
    assert dist[0] == "beta,outcome,probability"
    probs = [float(line.split(",")[2]) for line in dist[1:]]
    assert abs(sum(probs) - 1.0) < 1e-9

    assert (out / "run_manifest.ini").exists()


QUTRIT_MAP_FILE_BODY = """\
    [scenario]
    model = custom_map_file
    beta_list = 0.8, 2.0
    out_dir = {out}
    distribution_times = 0.75

    [custom_map_file]
    path = qutrit.maps
"""


@pytest.mark.parametrize("body,names", [
    pytest.param(WEAK_BODY,
                 ["lambda_series.csv", "invertibility.csv",
                  "pc_coefficients.csv", "distribution_t5.csv",
                  "run_manifest.ini"], id="weak_coupling"),
    pytest.param(QUTRIT_MAP_FILE_BODY,
                 ["lambda_series.csv", "invertibility.csv",
                  "distribution_t0.75.csv", "run_manifest.ini"],
                 id="qutrit_map_file"),
])
def test_rerun_is_byte_identical(tmp_path, body, names):
    if "custom_map_file" in body:
        traj = random_gksl_trajectory(3, np.random.default_rng(21),
                                      np.linspace(0.0, 1.5, 49))
        save_map_trajectory(traj, str(tmp_path / "qutrit.maps"))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, body.format(out=out))
    assert main(["run", cfg_path]) == 0
    before = {n: (out / n).read_bytes() for n in names}
    assert main(["run", cfg_path]) == 0
    for n in names:
        assert (out / n).read_bytes() == before[n], n


def test_manifest_is_a_valid_equivalent_config(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=out))
    cfg = parse_config(cfg_path)
    run_scenario(cfg)
    recfg = parse_config(str(out / "run_manifest.ini"))
    assert recfg.model == cfg.model
    assert recfg.params == cfg.params
    assert recfg.beta_list == cfg.beta_list
    assert recfg.n_steps == cfg.n_steps
    assert recfg.t_max == cfg.t_max
    assert recfg.series == cfg.series
    assert recfg.distribution_times == cfg.distribution_times


def test_run_custom_pc(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_pc
        beta_list = 2.0
        t_max = 4.0
        n_steps = 32
        out_dir = {out}

        [custom_pc]
        omega0 = 1.0
        delta = 0.5
        Omega = 0.8
        gamma_plus = 0.01
        gamma_minus = 0.03
    """)
    assert main(["run", cfg_path]) == 0
    lam = (out / "lambda_series.csv").read_text().splitlines()
    assert len(lam) == 1 + 33


def test_run_jaynes_cummings_vacuum(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = jaynes_cummings
        beta_list = 1.0
        t_max = 10.0
        n_steps = 50
        series = lambda, invertibility
        out_dir = {out}

        [jaynes_cummings]
        omega = 1.0
        omega_m = 2.0
        g = 0.01
    """)
    assert main(["run", cfg_path]) == 0
    lam = (out / "lambda_series.csv").read_text().splitlines()
    assert len(lam) == 1 + 51
    # jaynes_cummings has no closed-form coefficient series
    assert not (out / "pc_coefficients.csv").exists()


def test_run_custom_map_file_with_relative_path(tmp_path):
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(32))
    save_map_trajectory(traj, str(tmp_path / "stored.maps"))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {out}

        [custom_map_file]
        path = stored.maps
    """)
    assert main(["run", cfg_path]) == 0
    lam = (out / "lambda_series.csv").read_text().splitlines()
    assert len(lam) == 1 + 33


def test_custom_map_file_forbids_grid_keys(tmp_path):
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(16))
    save_map_trajectory(traj, str(tmp_path / "stored.maps"))
    with pytest.raises(ConfigError, match="grid comes from the map file"):
        parse_config(write_config(tmp_path, """\
            [scenario]
            model = custom_map_file
            beta_list = 1.0
            t_max = 5.0

            [custom_map_file]
            path = stored.maps
        """))


def test_run_closed_coherent(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = closed_coherent
        n_steps = 40
        out_dir = {out}

        [closed_coherent]
        rotation_angle = 0.4
    """)
    assert main(["run", cfg_path]) == 0
    rows = (out / "coherent_series.csv").read_text().splitlines()
    assert rows[0].startswith("t,beta,exp_avg_w,golden_thompson_bound")
    assert len(rows) == 1 + 41
    for line in rows[1:]:
        cells = [float(x) for x in line.split(",")]
        value, gt, chain = cells[2], cells[3], cells[5]
        assert value <= gt + 1e-12
        assert gt <= chain + 1e-12


def test_exit_code_two_on_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = nonsense
        beta_list = 1.0
    """)
    assert main(["run", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_three_on_numerical_failure(tmp_path, capsys):
    # thermal tail too heavy for the requested cutoff
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = jaynes_cummings
        beta_list = 1.0
        t_max = 5.0
        n_steps = 32
        out_dir = {tmp_path / "out"}

        [jaynes_cummings]
        omega_m = 1.0
        beta = 1.0
        n_max = 13
    """)
    assert main(["run", cfg_path]) == 3
    assert "TruncationError" in capsys.readouterr().err


def test_validate_fast_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail" not in out


def test_map_info_reports_stored_trajectory(tmp_path, capsys):
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(16))
    path = str(tmp_path / "stored.maps")
    save_map_trajectory(traj, path)
    assert main(["map-info", path]) == 0
    out = capsys.readouterr().out
    assert "dim=2 grid_points=17" in out
    assert "derivatives=yes" in out
    assert "summary: 0 singular" in out


def test_map_info_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=0\n"
                    "0.0,snake\n")
    assert main(["map-info", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
