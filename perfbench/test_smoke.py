"""Tests of the benchmark itself, in smoke mode (tiny sizes).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(*args: str) -> dict:
    out = _run(*args)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, out.stderr
    assert res["failed"] == 0
    assert res["attempted"] >= 3
    return res


def _units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_one_command_runs_every_workload_with_every_metric():
    res = _result("--seed", "7", "--trace", "0")
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert _units(res) == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_single_workload_emits_the_declared_end_to_end_metrics():
    # the form in which a benchmark runner calls the command, one workload
    # per call
    res = _result("--workload", "gksl_file", "--trace", "0")
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    record_path = tmp_path / "record.json"
    res = _result("--workload", "exchange_hot", "--trace", "1",
                  "--out", str(record_path))
    record = json.loads(record_path.read_text())
    assert set(record["machine"]) == {
        "nproc", "cpu_model", "caches", "python", "numpy", "scipy",
        "blas_threads", "git_commit", "seed"}
    assert record["metrics"] == res["metrics"]
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = res["metrics"]
    assert metrics["wc_cli.fluctuations.report_rows"]["value"] == 130
    assert metrics["gksl_file.fluctuations.report_rows"]["value"] == 33
    for name, m in metrics.items():
        if not name.endswith("trace_overhead_s"):
            assert m["value"] > 0, name


def test_failed_check_is_reported_and_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "mapthermo" / "cli.py"
    cli.write_text(cli.read_text() + "\n\ndef main(argv=None):\n    return 3\n")
    out = _run("--workload", "wc_cli", cwd=tmp_path)
    assert out.returncode == 1
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 3


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "wc_cli", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
