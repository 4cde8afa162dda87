"""Wall time of reading and writing a map file, and of `mapthermo run` on it.

Writes one seeded random GKSL trajectory, by default in the shape of the
benchmark's gksl_file workload (--dim 6, --steps 400, t in [0, 1], with
derivatives: about 49 MB of text), to a temporary directory, as
`save_map_trajectory` writes it and again with every cell respelt as
`repr` and as `%.17g` write it, as a tomography fit or another simulator
might. It times `read_map_file` on each spelling, on the written file once more with the exact kernel's import gate
switched off (as where np.longdouble is not the x87 format),
`save_map_trajectory` (each call to a new file, removed after the timed
region) and an in-process `mapthermo run` of a `custom_map_file` scenario
on the written file (each into a new out_dir, `bench_record.run_timer`),
best of --repeats after one warm-up call each, and
records the tracemalloc peak of one `read_map_file` call. Warm calls do not
see what a fresh process pays the first time it reads a file (memory the
allocator has not yet handed out, or has given back to the system, faults
in page by page), which is what every `mapthermo run` pays: so --fresh
samples, one new interpreter each, time the first `read_map_file` or the
first `load_map_trajectory` call on the written file, with the minor page
faults over the call (`ru_minflt`) and the child's peak resident size
(VmHWM). The result is merged into a JSON file under --label, so runs of
two source trees sit side by side, for example a parent commit and a
change, each put first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_map_io.py --label change

Runs made one after the other carry the host's drift in speed between them.
With --against the src directory of a second tree (say a checkout of the
parent commit), both trees are imported into one process, checked to read
every file to the same bits and to write the same bytes, and their
`read_map_file` calls alternate, so that each spelling gets a ratio per
pair of calls, as do their `save_map_trajectory` calls and their fresh
samples, which alternate between the trees too.

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import filecmp
import functools
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np

import mapthermo
import mapthermo.dynamics as dynamics
from bench_record import (alternate, import_tree, ratio_summary,
                          record_run, run_timer, timed)
from mapthermo.cli import main as cli_main
from mapthermo.dynamics import read_map_file, save_map_trajectory
from mapthermo.validation import random_gksl_trajectory

DIM, N_STEPS, SEED = 6, 400, 0   # the defaults of --dim and --steps
RESPELLINGS = {"repr": repr, "g17": "{:.17g}".format}
SCENARIO = """\
[scenario]
model = custom_map_file
beta_list = 1.0
series = lambda, invertibility
out_dir = {out_dir}

[custom_map_file]
path = trajectory.maps
"""


FRESH_CALLS = ("read_map_file", "load_map_trajectory")
# one fresh sample: the first call of `name` on `path` in a new interpreter
# that imports the package from `src`; prints wall time, page faults, VmHWM
FRESH_CHILD = """\
import json, resource, sys, time
src, name, path = sys.argv[1:]
sys.path.insert(0, src)
from mapthermo import dynamics
call = getattr(dynamics, name)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
call(path)
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
print(json.dumps({"s": wall, "minflt": faults, "vmhwm_kb": hwm}))
"""


def fresh_sample(src: str, name: str, path: str) -> dict:
    """One fresh sample (FRESH_CHILD) of the tree under `src`."""
    out = subprocess.run([sys.executable, "-c", FRESH_CHILD, src, name, path],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def fresh_samples(trees: dict, path: str, samples: int) -> dict:
    """`samples` fresh samples of each call for each tree (name: src), the
    trees and calls taking turns, the first tree swapped each round, as
    lists per tree, call and field."""
    result = {tree: {name: {"s": [], "minflt": [], "vmhwm_kb": []}
                     for name in FRESH_CALLS} for tree in trees}
    for i in range(samples):
        for tree, src in list(trees.items())[::(-1) ** i]:
            for name in FRESH_CALLS:
                for key, value in fresh_sample(src, name, path).items():
                    result[tree][name][key].append(value)
    return result


def fresh_summary(runs: dict) -> dict:
    """The median of each field of `fresh_samples`' lists, beside them."""
    return {name: {**fields, **{f"{key}_median": float(np.median(values))
                                for key, values in fields.items()}}
            for name, fields in runs.items()}


def wall_times(call, repeats: int) -> list[float]:
    call()
    return [timed(call)() for _ in range(repeats)]


def save_timer(module, traj, work_dir: str, name: str):
    """A call returning the wall time of `module.save_map_trajectory` of
    `traj` to a new file, which it removes after the timed region."""
    calls = itertools.count()

    def save() -> float:
        path = os.path.join(work_dir, f"{name}_{next(calls)}.maps")
        start = time.perf_counter()
        module.save_map_trajectory(traj, path)
        wall = time.perf_counter() - start
        os.remove(path)
        return wall
    return save


def respell(src: str, dst: str, spell) -> None:
    """Copy a map file with every data cell written by `spell`."""
    with open(src) as fin, open(dst, "w") as fout:
        for line in fin:
            if not line.startswith("#"):
                cells = [spell(float(c)) for c in line.split(",")]
                line = ",".join(cells) + "\n"
            fout.write(line)


def readers(module, paths: dict) -> dict:
    """Calls of `module.read_map_file` on each spelling, and on the written
    file with the kernel's import gate switched off."""
    def without_gate():
        # create=True: a tree without the kernel has no gate, reads as usual
        with mock.patch.object(module, "_EXACT", False, create=True):
            module.read_map_file(paths["written"])
    calls = {name: functools.partial(module.read_map_file, path)
             for name, path in paths.items()}
    calls["written_gate_off"] = without_gate
    return calls


def against(paths: dict, traj, work_dir: str, src: str,
            repeats: int) -> dict:
    """Per spelling, this tree's read time over that of the tree under
    `src`, call by call in alternation, after a check that both trees read
    the same bits, and the same for the write after a check that both
    write the same bytes."""
    other = import_tree(src, "dynamics")
    result = {}
    for name, path in paths.items():
        for a, b in zip(read_map_file(path), other.read_map_file(path)):
            if a.tobytes() != b.tobytes():
                raise SystemExit(f"{src} reads {name} to other bits")
    calls = zip(readers(dynamics, paths).items(),
                readers(other, paths).values())
    for (name, ours), theirs in calls:
        result[name] = ratio_summary(*alternate(timed(ours), timed(theirs),
                                                repeats))
    theirs_path = os.path.join(work_dir, "against.maps")
    other.save_map_trajectory(traj, theirs_path)
    if not filecmp.cmp(paths["written"], theirs_path, shallow=False):
        raise SystemExit(f"{src} writes the trajectory to other bytes")
    os.remove(theirs_path)
    result["save_map_trajectory"] = ratio_summary(*alternate(
        save_timer(dynamics, traj, work_dir, "ours"),
        save_timer(other, traj, work_dir, "theirs"), repeats))
    return result


def measure(work_dir: str, dim: int, n_steps: int, repeats: int,
            fresh: int, against_src: str | None) -> dict:
    traj = random_gksl_trajectory(dim, np.random.default_rng(SEED),
                                  np.linspace(0.0, 1.0, n_steps + 1))
    map_path = os.path.join(work_dir, "trajectory.maps")
    save_map_trajectory(traj, map_path)
    paths = {"written": map_path}
    for name, spell in RESPELLINGS.items():
        paths[name] = os.path.join(work_dir, f"{name}.maps")
        respell(map_path, paths[name], spell)
    reads = {name: wall_times(call, repeats)
             for name, call in readers(dynamics, paths).items()}
    save_walls = [save_timer(dynamics, traj, work_dir, "saved")()
                  for _ in range(repeats + 1)][1:]
    run = run_timer(cli_main, SCENARIO, work_dir, "run")
    run_walls = [run() for _ in range(repeats + 1)][1:]
    tracemalloc.start()
    try:
        read_map_file(map_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = {"dim": dim, "n_steps": n_steps, "seed": SEED,
              "map_file_bytes": {name: os.path.getsize(path)
                                 for name, path in paths.items()},
              "read_map_file_s_best": {name: min(walls)
                                       for name, walls in reads.items()},
              "read_map_file_s": reads,
              "read_map_file_tracemalloc_peak_mb": peak / 1e6,
              "save_map_trajectory_s_best": min(save_walls),
              "save_map_trajectory_s": save_walls,
              "run_s_best": min(run_walls), "run_s": run_walls}
    trees = {"ours": os.path.dirname(os.path.dirname(mapthermo.__file__))}
    if against_src:
        trees["theirs"] = against_src
    runs = fresh_samples(trees, map_path, fresh)
    result["fresh"] = fresh_summary(runs["ours"])
    if against_src:
        result["against"] = against(paths, traj, work_dir, against_src,
                                    repeats)
        result["fresh_against"] = {
            name: {**ratio_summary(runs["ours"][name]["s"],
                                   runs["theirs"][name]["s"]),
                   "minflt": runs["ours"][name]["minflt"],
                   "against_minflt": runs["theirs"][name]["minflt"],
                   "vmhwm_kb": runs["ours"][name]["vmhwm_kb"],
                   "against_vmhwm_kb": runs["theirs"][name]["vmhwm_kb"]}
            for name in FRESH_CALLS}
    return result


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time read_map_file, save_map_trajectory and mapthermo "
                    "run on a map file")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_map_io.json")
    ap.add_argument("--dim", type=int, default=DIM,
                    help="Hilbert-space dimension d of the trajectory")
    ap.add_argument("--steps", type=int, default=N_STEPS,
                    help="grid steps N of the trajectory")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--fresh", type=int, default=5,
                    help="fresh-process samples of each first call")
    ap.add_argument("--against", metavar="SRC",
                    help="the src directory of a second source tree: time "
                         "its read_map_file and save_map_trajectory in "
                         "alternation with this one's")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as work_dir:
        result = measure(work_dir, args.dim, args.steps, args.repeats,
                         args.fresh, args.against)
    reads = ", ".join(f"{name} {best:.3f} s" for name, best
                      in result["read_map_file_s_best"].items())
    print(f"read_map_file best: {reads} (peak "
          f"{result['read_map_file_tracemalloc_peak_mb']:.1f} MB); "
          f"save_map_trajectory best "
          f"{result['save_map_trajectory_s_best']:.3f} s; "
          f"run best {result['run_s_best']:.3f} s")
    for name, fields in result["fresh"].items():
        print(f"fresh {name}: median {fields['s_median']:.3f} s, "
              f"{fields['minflt_median']:.0f} minor faults, VmHWM "
              f"{fields['vmhwm_kb_median'] / 1024:.1f} MB")
    for name, pair in {**result.get("against", {}), **{
            f"fresh {name}": pair for name, pair
            in result.get("fresh_against", {}).items()}}.items():
        print(f"{name}: {pair['ratio_median']:.3f} of the other tree's "
              f"time, faster in {pair['faster_in']} of {len(pair['s'])}")
    record_run(args.out, "map-file parsing and writing, first calls in fresh "
                         "processes, and mapthermo run on the gksl_file "
                         "shape", args.label, "map_io", result)


if __name__ == "__main__":
    main()
