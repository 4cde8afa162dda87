"""Start-up time of `mapthermo run`: spawn to ready, one process per sample.

Writes two scenarios to a temporary directory: a weak-coupling one in the
shape of the benchmark's wc_cli workload (N = 2000, four beta, two
distribution times), and a custom_map_file one that names a small stored
GKSL map file (d = 2, 17 rows), as the gksl_file workload does. Each sample
spawns a fresh interpreter that imports `mapthermo.cli`, parses a scenario
with `parse_config` and prints the system-wide monotonic clock; the sample
is that time less the clock just before the spawn. Two floors are timed the
same way: an interpreter that imports nothing (`python -c pass`) and one
that imports numpy. Per scenario the child also reports whether any `scipy`
module was loaded by then, which of the standard modules in STARTUP_STDLIB
and which `mapthermo` modules were, and as many spawns again under
`-X importtime` give each of those modules' self import time (median, in
microseconds).

The tree timed is the one that holds the `mapthermo` package this script
imports, so put its src directory first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_startup.py --label change

With --against the src directory of a second tree (say a checkout of the
parent commit), the two trees' spawns alternate per scenario, the order
swapped each round, so that the host's drift in speed falls on both alike,
and each pair gives a ratio; the second tree's modules and self import
times are recorded beside. The result is merged into a JSON file under
--label.
"""

import argparse
import functools
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import mapthermo
from bench_record import alternate, ratio_summary, record_run
from mapthermo.dynamics import save_map_trajectory
from mapthermo.validation import random_gksl_trajectory

N_STEPS, BETAS, T_F = 2000, (0.5, 1.0, 2.0, 4.0), 10.0
MAP_DIM, MAP_STEPS = 2, 16
SCENARIOS = {
    "wc_cli": f"""\
[scenario]
model = weak_coupling
beta_list = {", ".join(map(repr, BETAS))}
n_steps = {N_STEPS}
distribution_times = {T_F / 4!r}, {3 * T_F / 4!r}
series = lambda, invertibility, pc_coefficients
out_dir = out

[weak_coupling]
gamma = 0.01
""",
    "custom_map_file": """\
[scenario]
model = custom_map_file
beta_list = 1.0
series = lambda, invertibility
out_dir = out

[custom_map_file]
path = trajectory.maps
""",
}
FLOORS = {
    "python_pass": "import time; print(time.monotonic())",
    "import_numpy": "import time, numpy; print(time.monotonic())",
}
# standard modules that cost start-up: dataclasses compiles each class's
# methods with exec, argparse imports gettext, and building its parser locale
STARTUP_STDLIB = ("argparse", "dataclasses", "gettext", "locale")
# ready: the clock, then whether scipy is loaded, which of STARTUP_STDLIB
# are, and the mapthermo modules
READY = (
    "import sys, time\n"
    "from mapthermo.cli import parse_config\n"
    "parse_config(sys.argv[1])\n"
    "print(time.monotonic())\n"
    "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    f"print(*(m for m in {STARTUP_STDLIB!r} if m in sys.modules))\n"
    "print(*sorted(m for m in sys.modules if m.startswith('mapthermo')))")


def spawn(code: str, src: str, config: str,
          *flags: str) -> tuple[float, list[str], str]:
    """Seconds from spawn to ready of one child, the lines it printed after
    the clock, and its stderr."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    out = subprocess.run([sys.executable, *flags, "-c", code, config],
                         env=env, capture_output=True, text=True, check=True)
    ready, *lines = out.stdout.splitlines()
    return float(ready) - start, lines, out.stderr


def self_import_us(src: str, config: str, repeats: int) -> dict:
    """Median self import time in microseconds of each mapthermo module
    that `READY` loads, over `repeats` spawns under -X importtime."""
    samples: dict[str, list[int]] = {}
    for _ in range(repeats):
        *_, stderr = spawn(READY, src, config, "-X", "importtime")
        for line in stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <module>"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("mapthermo"):
                samples.setdefault(parts[2].strip(), []).append(
                    int(parts[0].split(":")[1]))
    return {name: statistics.median(us) for name, us in sorted(samples.items())}


def summary(walls: list[float]) -> dict:
    return {"median": statistics.median(walls), "best": min(walls),
            "s": walls}


def scenario_record(src: str, config: str, samples: list, repeats: int,
                    prefix: str = "") -> dict:
    """What one tree loaded by ready for one scenario, from its timed
    samples' reports and from -X importtime spawns."""
    modules = self_import_us(src, config, repeats)
    return {prefix + "scipy_loaded": any(lines[0] == "True"
                                         for _, lines, _ in samples),
            prefix + "stdlib_loaded": sorted(set().union(
                *(lines[1].split() for _, lines, _ in samples))),
            prefix + "modules": samples[0][1][2].split(),
            prefix + "self_import_us": modules,
            prefix + "self_import_us_total": sum(modules.values())}


def measure(src: str, configs: dict, repeats: int) -> dict:
    result = {"n_steps": N_STEPS, "betas": list(BETAS),
              "map_file": {"dim": MAP_DIM, "n_steps": MAP_STEPS},
              "repeats": repeats, "spawn_to_ready_s": {}, "scenarios": {}}
    for probe, code in FLOORS.items():
        spawn(code, src, "")  # warm the file cache
        result["spawn_to_ready_s"][probe] = summary(
            [spawn(code, src, "")[0] for _ in range(repeats)])
    for scenario, config in configs.items():
        spawn(READY, src, config)
        samples = [spawn(READY, src, config) for _ in range(repeats)]
        result["spawn_to_ready_s"][scenario] = summary(
            [wall for wall, *_ in samples])
        result["scenarios"][scenario] = scenario_record(src, config, samples,
                                                        repeats)
    return result


def against(src: str, other: str, configs: dict, repeats: int) -> dict:
    """Per scenario, spawn to ready for this tree over that of the tree
    under `other`, spawn by spawn in alternation."""
    result = {}
    for scenario, config in configs.items():
        ours, theirs = alternate(functools.partial(spawn, READY, src, config),
                                 functools.partial(spawn, READY, other,
                                                   config), repeats)
        result[scenario] = ratio_summary([wall for wall, *_ in ours],
                                         [wall for wall, *_ in theirs])
        result[scenario].update(scenario_record(other, config, theirs,
                                                repeats, "against_"))
    return result


def write_inputs(work_dir: str) -> dict:
    """The scenario files, and the map file they name, in `work_dir`."""
    save_map_trajectory(random_gksl_trajectory(
        MAP_DIM, np.random.default_rng(0),
        np.linspace(0.0, 1.0, MAP_STEPS + 1)),
        os.path.join(work_dir, "trajectory.maps"))
    configs = {}
    for scenario, text in SCENARIOS.items():
        configs[scenario] = os.path.join(work_dir, f"{scenario}.ini")
        with open(configs[scenario], "w") as fh:
            fh.write(text)
    return configs


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time spawn to ready of mapthermo run's start-up")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_startup.json")
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--against", metavar="SRC",
                    help="the src directory of a second source tree: "
                         "alternate its spawns with this one's")
    args = ap.parse_args()

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        mapthermo.__file__)))
    with tempfile.TemporaryDirectory() as work_dir:
        configs = write_inputs(work_dir)
        result = measure(src, configs, args.repeats)
        if args.against:
            result["against"] = against(src, os.path.abspath(args.against),
                                        configs, args.repeats)
    for probe, times in result["spawn_to_ready_s"].items():
        print(f"{probe}: median {times['median']:.3f} s, "
              f"best {times['best']:.3f} s")
    for scenario, rec in result["scenarios"].items():
        print(f"{scenario}: scipy loaded {rec['scipy_loaded']}, "
              f"{', '.join(rec['stdlib_loaded']) or 'none'} of "
              f"{', '.join(STARTUP_STDLIB)} loaded, "
              f"{len(rec['modules'])} mapthermo modules, self import "
              f"{rec['self_import_us_total'] / 1e3:.1f} ms")
    for scenario, pair in result.get("against", {}).items():
        print(f"{scenario} against {args.against}: "
              f"{pair['ratio_median']:.3f} of its time, faster in "
              f"{pair['faster_in']} of {args.repeats}; its self import "
              f"{pair['against_self_import_us_total'] / 1e3:.1f} ms")
    record_run(args.out, "spawn to ready of mapthermo run at the wc_cli "
                         "shape and for a stored map file", args.label,
               "startup", result)


if __name__ == "__main__":
    main()
