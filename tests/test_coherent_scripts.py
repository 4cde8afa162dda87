"""The scripts that drive the closed drive (`coherent`) from outside the
package, run as subprocesses on small inputs: the angle sweep and the
closed-drive bench. They are the coherent API's only callers outside
`src`, so an API change that breaks them fails here."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
