"""Start-up time of `mapthermo run`: spawn to ready, one process per sample.

Writes a weak-coupling scenario in the shape of the benchmark's wc_cli
workload (N = 2000, four beta, two distribution times) to a temporary
directory. Each sample spawns a fresh interpreter that imports
`mapthermo.cli`, parses the scenario with `parse_config` and prints the
system-wide monotonic clock; the sample is that time less the clock just
before the spawn. Two floors are timed the same way: an interpreter that
imports nothing (`python -c pass`) and one that imports numpy. The child
also reports whether any `scipy` module was loaded by then.

The tree timed is the one that holds the `mapthermo` package this script
imports, so put its src directory first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_startup.py --label change

With --against the src directory of a second tree (say a checkout of the
parent commit), the two trees' spawns alternate, the order swapped each
round, so that the host's drift in speed falls on both alike, and each pair
gives a ratio. The result is merged into a JSON file under --label.
"""

import argparse
import functools
import os
import statistics
import subprocess
import sys
import tempfile
import time

import mapthermo
from bench_record import alternate, ratio_summary, record_run

N_STEPS, BETAS, T_F = 2000, (0.5, 1.0, 2.0, 4.0), 10.0
SCENARIO = f"""\
[scenario]
model = weak_coupling
beta_list = {", ".join(map(repr, BETAS))}
n_steps = {N_STEPS}
distribution_times = {T_F / 4!r}, {3 * T_F / 4!r}
series = lambda, invertibility, pc_coefficients
out_dir = out

[weak_coupling]
gamma = 0.01
"""
PROBES = {
    "python_pass": "import time; print(time.monotonic(), False)",
    "import_numpy": "import time, numpy; print(time.monotonic(), False)",
    "cli_parse_config": (
        "import sys, time\n"
        "from mapthermo.cli import parse_config\n"
        "parse_config(sys.argv[1])\n"
        "print(time.monotonic(),"
        " any(m.split('.')[0] == 'scipy' for m in sys.modules))"),
}


def spawn(probe: str, src: str, config: str) -> tuple[float, bool]:
    """Seconds from spawn to ready of one child, and whether it had scipy
    loaded by then."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBES[probe], config],
                         env=env, capture_output=True, text=True, check=True)
    ready, scipy_loaded = out.stdout.split()
    return float(ready) - start, scipy_loaded == "True"


def summary(walls: list[float]) -> dict:
    return {"median": statistics.median(walls), "best": min(walls),
            "s": walls}


def measure(src: str, config: str, repeats: int) -> dict:
    result = {"n_steps": N_STEPS, "betas": list(BETAS),
              "repeats": repeats, "spawn_to_ready_s": {}}
    for probe in PROBES:
        spawn(probe, src, config)  # warm the file cache
        samples = [spawn(probe, src, config) for _ in range(repeats)]
        result["spawn_to_ready_s"][probe] = summary([s for s, _ in samples])
        if probe == "cli_parse_config":
            result["scipy_loaded"] = any(loaded for _, loaded in samples)
    return result


def against(src: str, other: str, config: str, repeats: int) -> dict:
    """Spawn to ready of the cli probe for this tree over that of the tree
    under `other`, spawn by spawn in alternation."""
    ours, theirs = alternate(
        functools.partial(spawn, "cli_parse_config", src, config),
        functools.partial(spawn, "cli_parse_config", other, config), repeats)
    result = ratio_summary([wall for wall, _ in ours],
                           [wall for wall, _ in theirs])
    result["scipy_loaded"] = any(loaded for _, loaded in ours)
    result["against_scipy_loaded"] = any(loaded for _, loaded in theirs)
    return result


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
        config = os.path.join(work_dir, "scenario.ini")
        with open(config, "w") as fh:
            fh.write(SCENARIO)
        result = measure(src, config, args.repeats)
        if args.against:
            result["against"] = against(src, os.path.abspath(args.against),
                                        config, args.repeats)
    for probe, times in result["spawn_to_ready_s"].items():
        print(f"{probe}: median {times['median']:.3f} s, "
              f"best {times['best']:.3f} s")
    print(f"scipy loaded: {result['scipy_loaded']}")
    pair = result.get("against")
    if pair:
        print(f"against {args.against}: {pair['ratio_median']:.3f} of its "
              f"time, faster in {pair['faster_in']} of {args.repeats}")
    record_run(args.out, "spawn to ready of mapthermo run at the wc_cli "
                         "shape", args.label, "startup", result)


if __name__ == "__main__":
    main()
