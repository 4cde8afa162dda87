"""Scripts that call the library from outside the package, run as
subprocesses on small inputs: the angle sweep and the closed-drive bench,
the coherent API's only callers outside `src`, and the drive and exchange
sweeps, the only callers of `exchange_factor_series` and `csv_text`
outside the tests. An API change that breaks them fails here."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mapthermo.csvout import csv_text
from mapthermo.models import exchange_factor_series
from mapthermo.params import JCParams

ROOT = Path(__file__).resolve().parent.parent
SWEEP_HEADER = "t,lambda_w,lambda_w_bound,lambda_u"


def run_script(name: str, *args: str, cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                   env=env, cwd=cwd, check=True, capture_output=True)


def test_angle_sweep_writes_one_row_per_angle(tmp_path):
    run_script("run_coherent_angle_sweep.py", "--angles", "0.3", "0.8",
               "--n-steps", "32", "--out-dir", str(tmp_path / "out"),
               cwd=tmp_path)
    with open(tmp_path / "out" / "angle_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["angle"]) for r in rows] == [0.3, 0.8]
    for r in rows:
        value, gt, chain = (float(r[k]) for k in (
            "exp_avg_w", "golden_thompson_bound", "chain_bound"))
        assert value <= gt <= chain
        assert float(r["mean_w_slack"]) >= 0.0


def test_bench_coherent_records_a_run(tmp_path):
    out = tmp_path / "BENCH_coherent.json"
    run_script("bench_coherent.py", "--label", "smoke", "--repeats", "1",
               "--out", str(out), cwd=tmp_path)
    run = json.loads(out.read_text())["runs"]["smoke"]["coherent"]
    assert run["shape"] == {"model": "closed_coherent", "n_steps": 4000}
    assert set(run["s_best"]) == {"run", "coherent_work_fluctuation"}


def test_drive_sweep_writes_one_file_per_beta(tmp_path):
    run_script("run_drive_sweep.py", "--n-steps", "64", "--betas", "1", "3",
               "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    for beta in ("1", "3"):
        lines = (tmp_path / "out" / f"drive_beta{beta}.csv").read_text(
            ).splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 65


def test_exchange_windows_write_the_library_series(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "run_exchange_windows", ROOT / "scripts" / "run_exchange_windows.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run_script("run_exchange_windows.py", "--windows", "weak", "hot",
               "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
    for name in ("weak", "hot"):
        omega_m, g, beta_mode, beta_ref, t_f, n = script.WINDOWS[name]
        series = exchange_factor_series(
            JCParams(omega_m=omega_m, g=g, beta=beta_mode),
            np.linspace(0.0, t_f, n + 1), beta_ref)
        header, body = (tmp_path / "out" / f"exchange_{name}.csv"
                        ).read_text().split("\n", 1)
        assert header == SWEEP_HEADER
        assert body.count("\n") == n + 1
        assert body == csv_text(list(series))
