import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from mapthermo import cli
from mapthermo.cli import Tolerances, main, parse_config, run_scenario
from mapthermo.errors import ConfigError
from mapthermo.fluctuations import FluctuationTable
from mapthermo.dynamics import column_stacked, save_map_trajectory
from mapthermo.params import (ClosedCoherentParams, CustomPCParams, JCParams,
                              WeakCouplingParams, weak_coupling_rates)
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.records import fields
from mapthermo.trajectory import MapTrajectory, condition_flags
from mapthermo.validation import random_gksl_trajectory
from reference import csv_lines, replace


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


@pytest.mark.parametrize("model,params_class", [
    ("weak_coupling", WeakCouplingParams),
    ("jaynes_cummings", JCParams),
    ("custom_pc", CustomPCParams),
    ("closed_coherent", ClosedCoherentParams),
])
def test_an_empty_section_parses_to_the_params_defaults(tmp_path, model,
                                                        params_class):
    betas = "" if model == "closed_coherent" else "beta_list = 1.0\n"
    cfg = parse_config(write_config(
        tmp_path, f"[scenario]\nmodel = {model}\n{betas}t_max = 1\n\n"
                  f"[{model}]\n"))
    assert cfg.params == params_class()
    assert cfg.tolerances == Tolerances()
    # the manifest echoes every field, each tagged as a default
    assert [(k, d) for k, _, d in cfg.entries[model]] == [
        (f.name, True) for f in fields(params_class)]
    assert [(k, d) for k, _, d in cfg.entries["tolerances"]] == [
        (f.name, True) for f in fields(Tolerances)]


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


# 2764 mode levels: each frequency family of the level sum is compressed
# onto one panel of Chebyshev nodes
JC_HOT_BODY = """\
    [scenario]
    model = jaynes_cummings
    beta_list = 1.0
    t_max = 40.0
    n_steps = 400
    out_dir = {out}
    distribution_times = 20

    [jaynes_cummings]
    omega = 1.0
    omega_m = 2.0
    g = 0.01
    beta = 0.005
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
    pytest.param(JC_HOT_BODY,
                 ["lambda_series.csv", "invertibility.csv",
                  "distribution_t20.csv", "run_manifest.ini"],
                 id="jaynes_cummings"),
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


def assert_distributions_match_lambda_series(out):
    """Per distribution file and beta, sum_x p e^{-beta x} equals the
    exp_avg_w of that grid row and beta in lambda_series.csv within 1e-12
    relative; returns the files' names."""
    avg_col = FluctuationTable.CSV_HEADER.split(",").index("exp_avg_w")
    table = np.loadtxt(out / "lambda_series.csv", delimiter=",", skiprows=1,
                       ndmin=2)
    names = sorted(p.name for p in out.glob("distribution_t*.csv"))
    for name in names:
        t = float(name[len("distribution_t"):-len(".csv")])
        dist = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        for beta in np.unique(dist[:, 0]):
            rows = table[table[:, 1] == beta]
            want = rows[np.argmin(np.abs(rows[:, 0] - t)), avg_col]
            x, prob = dist[dist[:, 0] == beta, 1:].T
            got = np.dot(prob, np.exp(-beta * x))
            assert abs(got - want) <= 1e-12 * abs(want), (name, beta, got,
                                                          want)
    return names


@pytest.mark.parametrize("body", [
    pytest.param(WEAK_BODY.replace("beta_list = 1.0", "beta_list = 0.5, 2.0")
                 .replace("n_steps = 64", "n_steps = 200")
                 .replace("5.004", "2.5, 7.5"), id="weak_coupling"),
    pytest.param(QUTRIT_MAP_FILE_BODY.replace("0.75", "0.75, 1.5"),
                 id="qutrit_map_file")])
def test_distribution_files_agree_with_lambda_series(tmp_path, body):
    if "custom_map_file" in body:
        traj = random_gksl_trajectory(3, np.random.default_rng(21),
                                      np.linspace(0.0, 1.5, 49))
        save_map_trajectory(traj, str(tmp_path / "qutrit.maps"))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, body.format(out=out))]) == 0
    names = assert_distributions_match_lambda_series(out)
    assert len(names) == 2
    for name in names:
        betas = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 0]
        assert len(set(betas)) == 2


def test_a_degenerate_first_observable_gives_its_distribution(tmp_path):
    # omega0 = 0: K(0) = 0, one cluster of rank 2 measured first
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_pc
        beta_list = 1.0
        t_max = 5
        n_steps = 100
        out_dir = {out}
        distribution_times = 2.5

        [custom_pc]
        omega0 = 0.0
        gamma_minus = 0.1
    """)
    assert main(["run", cfg_path]) == 0
    assert (out / "distribution_t2.5.csv").read_text() == (
        "beta,outcome,probability\n1,0,1\n")
    assert assert_distributions_match_lambda_series(out) == [
        "distribution_t2.5.csv"]


WC_CLI_BODY = """\
    [scenario]
    model = weak_coupling
    beta_list = 0.5, 1.0, 2.0, 4.0
    n_steps = 2000
    distribution_times = 2.5, 7.5
    series = lambda, invertibility, pc_coefficients
    out_dir = {out}

    [weak_coupling]
"""


def test_each_csv_of_a_run_is_its_header_and_the_reference_lines(tmp_path):
    # the cells read back exactly (17 digits), so the per-row reference
    # writer must spell the same lines; invertibility.csv ends each row in
    # the flag of its condition number
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path,
                                     WC_CLI_BODY.format(out=out))]) == 0
    shapes = {  # header, rows
        "distribution_t2.5.csv": ("beta,outcome,probability", None),
        "distribution_t7.5.csv": ("beta,outcome,probability", None),
        "invertibility.csv": ("t,condition_number,flag", 2001),
        "lambda_series.csv": (FluctuationTable.CSV_HEADER, 4 * 2001),
        "pc_coefficients.csv": ("t,a,b,c,d_par,d_perp,I,J", 2001)}
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(shapes)
    for name, (want_header, n_rows) in shapes.items():
        header, *rows = (out / name).read_bytes().decode().split("\n")[:-1]
        assert header == want_header
        assert len(rows) == n_rows or n_rows is None and rows
        cells = [row.split(",") for row in rows]
        flags = [row.pop() for row in cells] if name == "invertibility.csv" \
            else None
        columns = list(np.array(cells, dtype=float).T)
        want = csv_lines(columns)
        if flags is not None:
            assert flags == condition_flags(columns[1])
            want = [f"{line},{flag}" for line, flag in zip(want, flags)]
        assert rows == want, name


def test_the_argument_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


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


@pytest.mark.parametrize("beta0,code", [(20.0, 0), (21.0, 3), (30.0, 3),
                                        (40.0, 3)])
def test_run_closed_coherent_needs_a_full_rank_state(tmp_path, capsys,
                                                     beta0, code):
    # the smallest eigenvalue of rho(0) is about 2e-9 at beta0 = 20, where
    # w = 0 at t = 0 pins <e^{-beta w}> to one; it is 8e-10 at 21 and 9e-14
    # at 30, below the floor where ln rho(0) is accurate enough, and below
    # 1e-14 at 40, where ln rho(0) is not defined
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = closed_coherent
        n_steps = 40
        out_dir = {out}

        [closed_coherent]
        beta0 = {beta0}
        rotation_angle = 0.3
    """)
    assert main(["run", cfg_path]) == code
    if code:
        err = capsys.readouterr().err
        assert "NoMatchingBeta" in err and "eigenvalue" in err
        assert not (out / "coherent_series.csv").exists()
    else:
        first = (out / "coherent_series.csv").read_text().splitlines()[1]
        assert abs(float(first.split(",")[2]) - 1.0) <= 1e-12


def test_run_weak_coupling_with_a_cold_bath(tmp_path):
    # e^{beta omega0} overflows a double: the bath then excites nothing
    params = WeakCouplingParams(beta=800.0)
    assert weak_coupling_rates(params).gamma_plus(0.0) == 0.0
    body = WEAK_BODY.format(out=tmp_path / "out") + "    beta = 800\n"
    assert main(["run", write_config(tmp_path, body)]) == 0


@pytest.mark.parametrize("margin", ["0", "-1", "1", "2"])
def test_tail_margin_outside_the_unit_interval_exits_2(tmp_path, capsys,
                                                       margin):
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = jaynes_cummings
        beta_list = 1.0
        t_max = 5.0
        n_steps = 32
        out_dir = {tmp_path / "out"}

        [jaynes_cummings]
        beta = 1.0
        tail_margin = {margin}
    """)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[jaynes_cummings]" in err
    assert "tail_margin" in err


JC_SHORT_BODY = """\
    [scenario]
    model = jaynes_cummings
    beta_list = {beta_list}
    t_max = 10.0
    n_steps = 40
    out_dir = {out}

    [jaynes_cummings]
    {key} = {value}
"""


@pytest.mark.parametrize("key,value,beta_list,needles", [
    # the automatic cutoff would hold about 1.4e10 levels
    ("beta", "1e-9", "1", ["[jaynes_cummings]: beta = 1e-09 and "
                           "tail_margin = 1e-12", "ceiling of 100000"]),
    ("g", "1e300", "1", ["[jaynes_cummings]: g = 1e+300", "overflows"]),
    ("omega", "1e300", "1", ["[jaynes_cummings]: omega - omega_m", "overflows"]),
    ("g", "0.01", "1, 0.5, 1", ["[scenario] beta_list: 1 listed more than once"]),
    # an explicit cutoff meets the same ceiling, before any allocation
    ("n_max", "10000000000", "1", ["[jaynes_cummings]: n_max = 10000000000",
                                   "ceiling of 100000"]),
])
def test_jc_and_beta_list_boundaries_exit_2(tmp_path, capsys, key, value,
                                            beta_list, needles):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, JC_SHORT_BODY.format(
        beta_list=beta_list, out=out, key=key, value=value))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: ")
    for needle in needles:
        assert needle in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_mode_too_cold_for_a_double_is_the_vacuum(tmp_path):
    # e^{-beta omega_m} underflows to 0 at beta = 1e300, as at beta = inf
    tables = []
    for beta in ("1e300", "inf"):
        out = tmp_path / beta
        cfg_path = write_config(tmp_path, JC_SHORT_BODY.format(
            beta_list="1", out=out, key="beta", value=beta))
        assert main(["run", cfg_path]) == 0
        tables.append((out / "lambda_series.csv").read_bytes())
    assert tables[0] == tables[1]


def test_negative_custom_pc_rate_exits_2_naming_the_section(tmp_path,
                                                            capsys):
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_pc
        beta_list = 1.0
        t_max = 5.0
        n_steps = 32
        out_dir = {tmp_path / "out"}

        [custom_pc]
        gamma_plus = 0.1
        gamma_minus = -0.5
    """)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg_path}: [custom_pc]: rates must be " in err
    assert not (tmp_path / "out").exists()


def test_exit_code_two_on_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = nonsense
        beta_list = 1.0
    """)
    assert main(["run", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["a_file", "under_a_file"])
def test_out_dir_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch,
                                             where):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "a_file" else taken / "out"
    # checked before the trajectory is built
    monkeypatch.setattr(cli, "_build_trajectory",
                        lambda cfg: pytest.fail("trajectory built"))
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=out))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: [scenario] out_dir: cannot create the directory " \
           f"{out}: " in err
    assert "Traceback" not in err


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "lambda_series.csv").mkdir(parents=True)
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=out))
    assert main(["run", cfg_path]) == 2
    assert (f"[scenario] out_dir: cannot write {out / 'lambda_series.csv'}: "
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("section,key,value,code,needle", [
    ("tolerances", "invariant_tol", "nan", 2,
     "[tolerances] invariant_tol: cannot parse 'nan' as a number"),
    ("tolerances", "cond_threshold", "nan", 2,
     "[tolerances] cond_threshold: cannot parse 'nan' as a number"),
    ("tolerances", "cond_threshold", "0", 2,
     "[tolerances]: cond_threshold must be a finite number >= 1"),
    ("tolerances", "invariant_tol", "-1", 2,
     "[tolerances]: invariant_tol must be a finite number > 0"),
    ("weak_coupling", "gamma", "nan", 2,
     "[weak_coupling] gamma: cannot parse 'nan' as a number"),
    ("weak_coupling", "delta", "inf", 2,
     "[weak_coupling] delta: must be finite (got inf)"),
    ("custom_pc", "gamma_plus", "inf", 2,
     "[custom_pc] gamma_plus: must be finite (got inf)"),
    ("custom_pc", "omega0", "-inf", 2,
     "[custom_pc] omega0: must be finite (got -inf)"),
    ("scenario", "t_max", "inf", 2,
     "[scenario] t_max: must be positive and finite"),
    ("scenario", "beta_list", "1, inf", 2,
     "[scenario] beta_list: inverse temperatures must be positive and "
     "finite"),
    ("scenario", "beta_list", "1, nan", 2,
     "[scenario] beta_list: cannot parse '1, nan' as comma-separated "
     "numbers"),
])
def test_non_finite_input_is_stopped_at_the_boundary(tmp_path, capsys,
                                                     section, key, value,
                                                     code, needle):
    model = "custom_pc" if section == "custom_pc" else "weak_coupling"
    sections = {"scenario": {"model": model, "beta_list": "1.0",
                             "n_steps": "32", "out_dir": tmp_path / "out"},
                model: {}, "tolerances": {}}
    sections[section][key] = value
    body = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())
    assert main(["run", write_config(tmp_path, body)]) == code
    err = capsys.readouterr().err
    assert needle in err
    assert "Warning" not in err
    assert not (tmp_path / "out" / "lambda_series.csv").exists()


@pytest.mark.parametrize("model,section,key,value,t", [
    ("weak_coupling", "weak_coupling", "gamma", "1e300", "0.2"),
    ("custom_pc", "custom_pc", "gamma_minus", "1e300", "0.2"),
    ("weak_coupling", "scenario", "t_max", "1e300", "2e+298"),
])
def test_rates_whose_e_to_the_i_overflows_exit_3_naming_it(
        tmp_path, capsys, model, section, key, value, t):
    # e^I passes the range of a double within the first step: the message
    # names J = c e^I and the time, and no numpy warning is printed
    sections = {"scenario": {"model": model, "beta_list": "1.0",
                             "n_steps": "50", "t_max": "10",
                             "out_dir": tmp_path / "out"}, model: {}}
    sections[section][key] = value
    body = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_config(tmp_path, body)]) == 3
    err = capsys.readouterr().err
    assert f"ConstructionError: J = c e^I overflows at t = {t}: " in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if w.category is RuntimeWarning]


def test_validate_fast_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail" not in out


# command lines only argparse reads: (argv, exit code, stream, fragments)
ARGPARSE_LINES = {
    "help": (["-h"], 0, "out", ["usage: mapthermo [-h] {run,validate,map-info}",
                                "execute a scenario config"]),
    "long_help": (["--help"], 0, "out", ["usage: mapthermo [-h]",
                                         "diagnose a stored map-trajectory"]),
    "run_help": (["run", "-h"], 0, "out", ["usage: mapthermo run [-h] config",
                                           "INI scenario file"]),
    "unknown_command": (["bogus"], 2, "err", [
        "usage: mapthermo [-h]",
        "mapthermo: error: argument command: invalid choice: 'bogus'"]),
    "run_without_config": (["run"], 2, "err", [
        "usage: mapthermo run [-h] config",
        "mapthermo run: error: the following arguments are required: config"]),
    "extra_argument": (["run", "a.ini", "b.ini"], 2, "err", [
        "mapthermo: error: unrecognized arguments: b.ini"]),
    "config_like_an_option": (["run", "-a.ini"], 2, "err", [
        "usage: mapthermo run [-h] config",
        "mapthermo run: error: the following arguments are required: config"]),
}


@pytest.mark.parametrize("argv, code, stream, fragments",
                         list(ARGPARSE_LINES.values()), ids=list(ARGPARSE_LINES))
def test_help_and_bad_command_lines_go_to_argparse(argv, code, stream,
                                                   fragments, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    printed = getattr(capsys.readouterr(), stream)
    for fragment in fragments:
        assert fragment in printed


def test_validate_takes_an_abbreviated_full(monkeypatch, capsys):
    import mapthermo.validation
    calls = []
    monkeypatch.setattr(mapthermo.validation, "run_checks",
                        lambda full: calls.append(full) or [])
    assert main(["validate", "--fu"]) == 0
    assert calls == [True]
    assert "validate (full): 0/0 checks passed" in capsys.readouterr().out


def test_map_info_reports_stored_trajectory(tmp_path, capsys):
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(16))
    path = str(tmp_path / "stored.maps")
    save_map_trajectory(traj, path)
    assert main(["map-info", path]) == 0
    out = capsys.readouterr().out
    assert "dim=2 grid_points=17" in out
    assert "derivatives=yes grid=uniform from 0" in out
    assert "summary: 0 singular" in out


# header problems above valid data rows, and the line that names each
BAD_MAP_HEADERS = {
    "wrong_tag": ("# other-maps v1\n"
                  "# dim=2 vectorization=column-stacking derivatives=1\n", 1),
    "no_tag": ("# dim=2 vectorization=column-stacking derivatives=1\n", 1),
    "dim_not_a_number": ("# mapthermo-maps v1\n"
                         "# dim=two vectorization=column-stacking "
                         "derivatives=1\n", 2),
    "field_without_value": ("# mapthermo-maps v1\n"
                            "# dim=2 vectorization=column-stacking "
                            "derivatives\n", 2),
}


def write_map_file_with_header(path, header):
    """A new map file at `path`: a saved trajectory's rows under `header`.
    The rows come from a second new file, since rewriting a file in place
    costs far more than writing a new one on some disks."""
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(16))
    saved = path.with_name(path.name + ".saved")
    save_map_trajectory(traj, str(saved))
    rows = [line for line in saved.read_text().splitlines(keepends=True)
            if not line.startswith("#")]
    path.write_text(header + "".join(rows))


def test_map_info_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=0\n"
                    "0.0,snake\n")
    assert main(["map-info", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    for problem, (header, line) in BAD_MAP_HEADERS.items():
        path = tmp_path / f"{problem}.maps"
        write_map_file_with_header(path, header)
        assert main(["map-info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{path}:{line}: " in err


@pytest.mark.parametrize("problem", sorted(BAD_MAP_HEADERS))
def test_run_rejects_a_bad_map_file_header(tmp_path, capsys, problem):
    header, line = BAD_MAP_HEADERS[problem]
    write_map_file_with_header(tmp_path / "bad.maps", header)
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {out}

        [custom_map_file]
        path = bad.maps
    """.format(out=tmp_path / "out"))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{tmp_path / 'bad.maps'}:{line}: " in err
    assert err.count(str(tmp_path / "bad.maps")) == 1


# data problems found before a map file's stacks are allocated, and their
# line
BAD_MAP_ROWS = {
    "undecodable_bytes": (b"# dim=2 vectorization=column-stacking "
                          b"derivatives=0\n\xff\xfe,1\n", 3),
    "dim_line_disagrees_with_columns": (b"# dim=100000 vectorization="
                                        b"column-stacking derivatives=0\n"
                                        b"0.0,1\n", 3),
}


@pytest.mark.parametrize("problem", sorted(BAD_MAP_ROWS))
@pytest.mark.parametrize("command", ["map-info", "run"])
def test_bad_map_file_rows_exit_2_with_the_line(tmp_path, capsys, problem,
                                                command):
    body, line = BAD_MAP_ROWS[problem]
    path = tmp_path / "bad.maps"
    path.write_bytes(b"# mapthermo-maps v1\n" + body)
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {out}

        [custom_map_file]
        path = bad.maps
    """.format(out=tmp_path / "out"))
    arg = str(path) if command == "map-info" else cfg_path
    assert main([command, arg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{path}:{line}: " in err


# grids that quadrature.grid_spacing or the MapTrajectory checks reject,
# the reason they give and the line of the first row at fault
BAD_MAP_GRIDS = {
    "single_row": ([0.0], "at least two points", 3),
    "not_increasing": ([0.0, 0.1, 0.1], "strictly increasing", 5),
    "not_uniform": ([0.0, 0.1, 0.3], "uniform", 5),
    "not_starting_at_zero": ([0.1, 0.2, 0.3], "must start at 0", 3),
}


@pytest.mark.parametrize("problem", sorted(BAD_MAP_GRIDS))
def test_run_rejects_a_map_file_with_a_bad_grid(tmp_path, capsys, problem):
    times, reason, line = BAD_MAP_GRIDS[problem]
    identity = ",".join(map(repr, np.eye(4, dtype=complex).reshape(-1)
                            .view(float).tolist()))
    path = tmp_path / "bad.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=0\n"
                    + "".join(f"{t!r},{identity}\n" for t in times))
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {out}

        [custom_map_file]
        path = bad.maps
    """.format(out=tmp_path / "out"))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}:{line}: grid" in err
    assert err.count(str(path)) == 1
    assert reason in err


@pytest.mark.parametrize("derivatives", [True, False])
def test_a_two_row_map_file_runs_only_with_derivatives(tmp_path, capsys,
                                                       derivatives):
    # the finite-difference stencils need three rows; derivatives need none
    traj = random_gksl_trajectory(2, np.random.default_rng(3), [0.0, 0.1])
    if not derivatives:
        traj = MapTrajectory(times=traj.times, maps=traj.maps)
    path = tmp_path / "two_rows.maps"
    save_map_trajectory(traj, str(path))
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {out}

        [custom_map_file]
        path = two_rows.maps
    """.format(out=tmp_path / "out"))
    assert main(["run", cfg_path]) == (0 if derivatives else 2)
    err = capsys.readouterr().err
    if not derivatives:   # the header's three lines, then rows 4 and 5
        assert f"config error: {path}:5: " in err and "three rows" in err


def test_map_info_marks_invalid_rows(tmp_path, capsys):
    # row 3 is not Hermiticity-preserving, as in the trajectory check tests
    times = np.linspace(0.0, 1.0, 9)
    maps = random_gksl_trajectory(3, np.random.default_rng(8),
                                  times).maps.astype(complex)
    maps[3] = maps[3] + np.diag(np.arange(9)) * 1e-3j
    maps = column_stacked(maps)
    path = tmp_path / "one_bad_row.maps"
    path.write_text(
        "# mapthermo-maps v1\n"
        "# dim=3 vectorization=column-stacking derivatives=0\n"
        + "".join(",".join(f"{x:.16e}" for x in (t, *m.reshape(-1).view(float)))
                  + "\n" for t, m in zip(times, maps)))
    assert main(["map-info", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[3:-1]
    assert [r.split(",")[0] for r in rows] == [f"{t:.6g}" for t in times]
    assert [("invalid:" in r) for r in rows] == [k == 3 for k in range(9)]
    assert rows[3].startswith(f"{times[3]:.6g},inf,singular,invalid: ")
    assert "not Hermiticity-preserving" in rows[3]
    assert "1 singular" in lines[-1] and "1 invalid rows" in lines[-1]


@pytest.mark.parametrize("times, grid", [
    ([0.0, 0.5, 1.0], "uniform from 0"),
    ([0.0, 0.5, 0.5], "line 6: grid must be strictly increasing"),
    ([0.0, 0.5, 1.5], "line 6: grid must be uniform"),
    ([0.5, 1.0, 1.5], "line 3: starts at 0.5, not 0"),
    ([0.0], "line 3: grid needs at least two points"),
])
def test_map_info_prints_the_grid_verdict(tmp_path, capsys, times, grid):
    identity = ",".join(map(repr, np.eye(4, dtype=complex).reshape(-1)
                            .view(float).tolist()))
    rows = [f"{t!r},{identity}\n" for t in times]
    path = tmp_path / "grid.maps"
    path.write_text("# mapthermo-maps v1\n"
                    "# dim=2 vectorization=column-stacking derivatives=0\n"
                    + rows[0] + "# a comment\n" + "".join(rows[1:]))
    assert main(["map-info", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(
        f" derivatives=no grid={grid}")


def test_run_reports_an_undefined_exponential(tmp_path, capsys):
    # resonant vacuum exchange: beta P(t) leaves the range of exp on the
    # window, which is a numerical failure (exit 3), not a crash
    cfg_path = write_config(tmp_path, """\
        [scenario]
        model = jaynes_cummings
        beta_list = 1
        t_max = 60
        n_steps = 2400
        out_dir = {out}

        [jaynes_cummings]
        omega = 1.0
        omega_m = 1.0
        g = 0.1
    """.format(out=tmp_path / "out"))
    assert main(["run", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: ConstructionError" in err
    assert re.search(r"undefined at t = [0-9.]+, beta = 1:", err)


def test_run_closed_coherent_reports_an_undefined_exponential(tmp_path,
                                                              capsys):
    # a drive amplitude of 2000 takes beta H(t) out of the range of exp
    # mid-drive: exit 3 naming t and beta, not a traceback
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = closed_coherent
        n_steps = 400
        out_dir = {tmp_path / "out"}

        [closed_coherent]
        delta = 2000
    """)
    assert main(["run", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: ConstructionError" in err
    assert re.search(r"undefined at t = [0-9.]+, beta = [0-9.]+:", err)


DIST_BODY = """\
    [scenario]
    model = weak_coupling
    beta_list = 1.0
    t_max = 10
    n_steps = 64
    out_dir = {out}
    distribution_times = {times}

    [weak_coupling]
    gamma = 0.01
"""


@pytest.mark.parametrize("times", ["-5", "1000", "2.5, 1000"])
def test_distribution_time_outside_the_grid_exits_2(tmp_path, capsys, times):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, DIST_BODY.format(out=out, times=times))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg_path}: [scenario] distribution_times: " in err
    assert "the grid [0, 10]" in err
    assert times.split(", ")[-1] in err
    assert not list(out.iterdir())


def test_distribution_time_within_half_a_step_of_the_end_snaps(tmp_path):
    out = tmp_path / "out"
    late = 10 + 0.4 * 10 / 64
    cfg_path = write_config(tmp_path, DIST_BODY.format(out=out,
                                                       times=repr(late)))
    assert main(["run", cfg_path]) == 0
    assert (out / "distribution_t10.csv").exists()


def test_two_distribution_times_on_one_grid_point_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, DIST_BODY.format(
        out=out, times="2.5, 1, 2.5000001"))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "2.5, 2.5000000999999998 all select grid time 2.5" in err
    assert not list(out.iterdir())


def test_distribution_times_with_one_file_label_are_refused(tmp_path):
    # 1.2 and 1.200005 snap to rows 240000 and 240001 of a 300 001-point
    # grid, which "%.6g" both labels 1.2: one file would replace the other
    cfg = parse_config(write_config(tmp_path, DIST_BODY.format(
        out=tmp_path / "out", times="1.2, 1.200005").replace(
            "t_max = 10", "t_max = 1.5").replace("n_steps = 64",
                                                 "n_steps = 300000")))
    times = cli._grid(cfg)
    assert times.size == 300_001
    with pytest.raises(ConfigError) as exc:
        cli._distribution_indices(cfg, times)
    assert ("[scenario] distribution_times: 1.2, 1.200005 select grid times "
            "1.2000000000000002, 1.200005 of the grid [0, 1.5], which share "
            "the file distribution_t1.2.csv") in str(exc.value)
    # one request more on either row: every request of the file is named
    with pytest.raises(ConfigError, match=re.escape(
            "1.2, 1.200005, 1.2000048999999999 select")):
        cli._distribution_indices(replace(
            cfg, distribution_times=(1.2, 1.200005, 1.2000049)), times)


def test_map_file_distribution_time_outside_the_grid_names_the_file(
        tmp_path, capsys):
    p = WeakCouplingParams()
    traj, _ = pc_trajectory(weak_coupling_rates(p), p.grid(32))
    map_path = tmp_path / "stored.maps"
    save_map_trajectory(traj, str(map_path))
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {tmp_path / "out"}
        distribution_times = 11

        [custom_map_file]
        path = stored.maps
    """)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"map file {map_path}" in err and "11" in err


# run and map-info in a fresh interpreter: the test process has scipy loaded
_IMPORT_PROBE = """\
import sys
from mapthermo.cli import main
from mapthermo.dynamics import save_map_trajectory
from mapthermo.params import WeakCouplingParams, weak_coupling_rates
from mapthermo.phase_covariant import pc_trajectory

config, map_path = sys.argv[1:3]
assert main(["run", config]) == 0
p = WeakCouplingParams()
save_map_trajectory(pc_trajectory(weak_coupling_rates(p), p.grid(16))[0],
                    map_path)
assert main(["map-info", map_path]) == 0
print("loaded:", *sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy"
                         or m == "mapthermo.validation"))
"""


def source_env() -> dict[str, str]:
    """This environment, with the package source first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_run_and_map_info_load_neither_scipy_nor_the_suite(tmp_path):
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, cfg_path,
         str(tmp_path / "stored.maps")],
        env=source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


# standard modules a run must not load: dataclasses compiles each class's
# methods with exec, argparse imports gettext, and building its parser locale
STARTUP_STDLIB = {"argparse", "dataclasses", "gettext", "locale"}
# the mapthermo modules and those of STARTUP_STDLIB a fresh interpreter holds
# after some cli steps, each step a (command, argument) pair: "parse_config"
# or a subcommand
_MODULES_PROBE = f"""\
import sys
from mapthermo.cli import main, parse_config

for command, arg in zip(sys.argv[1::2], sys.argv[2::2]):
    if command == "parse_config":
        parse_config(arg)
    else:
        assert main([command, arg]) == 0
print(*sorted(m for m in sys.modules
              if m.startswith("mapthermo.") or m in {sorted(STARTUP_STDLIB)}))
"""
MODEL_MODULES = {"mapthermo.params", "mapthermo.models",
                 "mapthermo.phase_covariant", "mapthermo.coherent"}


def loaded_after(*steps: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *steps],
                          env=source_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_a_map_file_run_and_map_info_load_no_model_module(tmp_path):
    p = WeakCouplingParams()
    map_path = str(tmp_path / "stored.maps")
    save_map_trajectory(pc_trajectory(weak_coupling_rates(p), p.grid(16))[0],
                        map_path)
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = custom_map_file
        beta_list = 1.0
        out_dir = {tmp_path / "out"}

        [custom_map_file]
        path = stored.maps
    """)
    at_ready = loaded_after("parse_config", cfg_path)
    assert not at_ready & STARTUP_STDLIB
    assert "mapthermo.dynamics" in at_ready   # compiled before the run
    loaded = loaded_after("run", cfg_path, "map-info", map_path)
    assert "mapthermo.dynamics" in loaded
    assert not loaded & MODEL_MODULES
    assert not loaded & STARTUP_STDLIB


def test_map_info_into_a_closed_pipe_exits_1_quietly(tmp_path):
    # `mapthermo map-info <file> | head -1`: the 2001 rows overflow the pipe
    # buffer, so the writer always meets the closed pipe
    p = WeakCouplingParams()
    path = str(tmp_path / "long.maps")
    save_map_trajectory(pc_trajectory(weak_coupling_rates(p), p.grid(2000))[0],
                        path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mapthermo.cli", "map-info", path],
        env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert proc.stdout.readline() == f"map file: {path}\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def test_weak_coupling_loads_its_model_before_the_run(tmp_path):
    # parse_config compiles the builders, so that no run pays for them
    cfg_path = write_config(tmp_path, WEAK_BODY.format(out=tmp_path / "out"))
    loaded = loaded_after("parse_config", cfg_path)
    assert MODEL_MODULES - loaded == {"mapthermo.models", "mapthermo.coherent"}
    assert not loaded & STARTUP_STDLIB
    after_run = loaded_after("run", cfg_path)
    assert not after_run & STARTUP_STDLIB
    # the map-file format: at neither step
    assert "mapthermo.dynamics" not in loaded | after_run


def test_a_jaynes_cummings_run_loads_no_map_file_format(tmp_path):
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = jaynes_cummings
        beta_list = 1.0
        t_max = 5
        n_steps = 16
        out_dir = {tmp_path / "out"}

        [jaynes_cummings]
    """)
    loaded = loaded_after("parse_config", cfg_path)
    assert "mapthermo.models" in loaded
    assert "mapthermo.dynamics" not in loaded | loaded_after("run", cfg_path)


def test_a_closed_coherent_run_loads_the_closed_drive(tmp_path):
    cfg_path = write_config(tmp_path, f"""\
        [scenario]
        model = closed_coherent
        n_steps = 16
        out_dir = {tmp_path / "out"}

        [closed_coherent]
    """)
    at_ready, after_run = (loaded_after(step, cfg_path)
                           for step in ("parse_config", "run"))
    assert "mapthermo.coherent" in at_ready & after_run
    assert "mapthermo.dynamics" not in at_ready | after_run
