"""The label merge of `scripts/bench_record.py`, loaded by path, and a
small run of `scripts/bench_map_io.py`, whose record backs the map-file
speed claims."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_record.py"


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_merge_writes_its_topic_and_keeps_the_other_labels(tmp_path):
    record_run = load_bench_record().record_run
    path = str(tmp_path / "BENCH_x.json")
    record_run(path, "old topic", "parent", "report", {"s": 1.0})
    record_run(path, "new topic", "change", "report", {"s": 0.5})
    with open(path) as fh:
        record = json.load(fh)
    assert record["topic"] == "new topic"
    assert record["runs"]["parent"]["report"] == {"s": 1.0}
    assert record["runs"]["change"]["report"] == {"s": 0.5}
    assert "machine" in record["runs"]["parent"]

    record_run(path, "newer topic", "parent", "report", {"s": 2.0})
    with open(path) as fh:
        record = json.load(fh)
    assert record["topic"] == "newer topic"
    assert record["runs"]["parent"]["report"] == {"s": 2.0}
    assert record["runs"]["change"]["report"] == {"s": 0.5}


def test_bench_map_io_runs_against_a_source_tree(tmp_path):
    # d = 2, N = 8, this tree against itself: every step of a recorded run
    src = str(ROOT / "src")
    out = tmp_path / "BENCH_map_io.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_map_io.py"),
                    "--label", "smoke", "--out", str(out), "--dim", "2",
                    "--steps", "8", "--repeats", "1", "--against", src],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    run = json.loads(out.read_text())["runs"]["smoke"]["map_io"]
    assert (run["dim"], run["n_steps"]) == (2, 8)
    assert set(run["against"]) == {"written", "repr", "g17",
                                   "written_gate_off", "save_map_trajectory"}


def test_bench_startup_runs_against_a_source_tree(tmp_path):
    # one spawn per probe, this tree against itself
    src = str(ROOT / "src")
    out = tmp_path / "BENCH_startup.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_startup.py"),
                    "--label", "smoke", "--out", str(out), "--repeats", "1",
                    "--against", src],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    run = json.loads(out.read_text())["runs"]["smoke"]["startup"]
    probes = {"wc_cli", "custom_map_file"}
    assert probes < set(run["spawn_to_ready_s"])
    assert set(run["scenarios"]) == set(run["against"]) == probes
    for scenario in probes:
        for rec, prefix in ((run["scenarios"][scenario], ""),
                            (run["against"][scenario], "against_")):
            modules = rec[prefix + "modules"]
            assert "mapthermo.cli" in modules
            assert set(rec[prefix + "self_import_us"]) == set(modules)
            assert rec[prefix + "stdlib_loaded"] == []
    wc, map_file = (set(run["scenarios"][s]["modules"])
                    for s in ("wc_cli", "custom_map_file"))
    assert "mapthermo.params" in wc and "mapthermo.models" not in wc
    assert not {"mapthermo.params", "mapthermo.models"} & map_file
