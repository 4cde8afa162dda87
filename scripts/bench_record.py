"""The machine record, the --label merge, the --against alternation and the
in-process `mapthermo run` timer shared by the bench scripts.

Each bench script measures one source tree and merges its result into a JSON
file under a label, so runs of two trees (for example a parent commit and a
change) sit side by side with the machine each ran on. With --against, a
script times both trees in alternation and records the ratio per pair.
"""

import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import platform
import shutil
import sys
import time

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
    next to the machine record, keeping the other labels' runs; the file's
    topic becomes `topic`, so a script whose scope grew says so."""
    runs = {}
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    runs[label] = {"machine": machine(), key: result}
    record = {"topic": topic, "runs": runs}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def alternate(ours, theirs, repeats: int) -> tuple[list, list]:
    """The results of two calls made in turn, `repeats` each after one
    warm-up call each, the order swapped each round, so that a drift of the
    host's speed falls on both alike."""
    ours()
    theirs()
    results = ([], [])
    for i in range(repeats):
        for k in ((0, 1), (1, 0))[i % 2]:
            results[k].append((ours, theirs)[k]())
    return results


def timed(call):
    """`call` made to return its wall time in seconds."""
    def run() -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start
    return run


def run_timer(main, scenario: str, work_dir: str, name: str):
    """A call returning the wall time of one in-process `mapthermo run`
    (`main` is a tree's `cli.main`, stdout discarded) of the config text
    `scenario`, whose "{out_dir}" each call fills with a new directory. The
    directory and the config, written to `work_dir`, are made before the
    timed region; after it the run's files are flushed to disk and removed,
    so that no sample writes over, or pays for, another's files."""
    calls = itertools.count()

    def run() -> float:
        out_dir = os.path.join(work_dir, f"{name}_{next(calls)}")
        os.makedirs(out_dir)
        config = f"{out_dir}.ini"
        with open(config, "w") as fh:
            fh.write(scenario.format(out_dir=out_dir))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", config])
        wall = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"mapthermo run {config} failed")
        flush_and_remove(out_dir)
        os.remove(config)
        return wall
    return run


def flush_and_remove(out_dir: str) -> None:
    """Flush the files in `out_dir` to disk, then remove it."""
    for entry in os.scandir(out_dir):
        with open(entry.path, "rb") as fh:
            os.fsync(fh.fileno())
    shutil.rmtree(out_dir)


def ratio_summary(walls: list[float], against_walls: list[float]) -> dict:
    """Per pair, this tree's wall time over the other's: median, quartiles,
    and the number of pairs this tree was faster in."""
    ratio = np.array(walls) / np.array(against_walls)
    return {"ratio_median": float(np.median(ratio)),
            "ratio_quartiles": np.quantile(ratio, [0.25, 0.75]).tolist(),
            "faster_in": int(np.sum(ratio < 1)),
            "s": walls, "against_s": against_walls}


def import_tree(src: str, module: str):
    """The submodule `module` of the mapthermo package under `src`, with
    the package imported as mapthermo_against so that it sits beside the
    tree on PYTHONPATH."""
    if "mapthermo_against" not in sys.modules:
        root = os.path.join(src, "mapthermo")
        spec = importlib.util.spec_from_file_location(
            "mapthermo_against", os.path.join(root, "__init__.py"),
            submodule_search_locations=[root])
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return importlib.import_module(f"mapthermo_against.{module}")
