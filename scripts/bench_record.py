"""The machine record and the --label merge shared by the bench scripts.

Each bench script measures one source tree and merges its result into a JSON
file under a label, so runs of two trees (for example a parent commit and a
change) sit side by side with the machine each ran on.
"""

import json
import os
import platform

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def record_run(path: str, topic: str, label: str, key: str,
               result: dict) -> None:
    """Store `result` under runs[label][key] of the JSON file at `path`,
    next to the machine record, keeping the other labels' runs."""
    record = {"topic": topic, "runs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record["runs"][label] = {"machine": machine(), key: result}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
