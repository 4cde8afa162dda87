"""The label merge of `scripts/bench_record.py`, loaded by path."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


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
