"""Wall time of the closed drive (`closed_coherent`) in process.

It times an in-process `mapthermo run` of the default closed_coherent
scenario at N = 4000 (stdout discarded, each run into a new out_dir,
`bench_record.run_timer`) and `coherent_work_fluctuation`
alone on that grid (the protocol and the initial construction built
outside the timed region), best of --repeats after one warm-up call each.
The result is merged into a JSON file under --label:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_coherent.py --label change

With --against the src directory of a second tree (say a checkout of the
parent commit), both trees are imported into one process, each first runs
the scenario once and the two coherent_series.csv files must be
byte-identical; then each timed run alternates with the other tree's, so
that each gets a ratio per pair of runs. Only the run is compared: the
second tree's `coherent_work_fluctuation` may take one row per call.

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import contextlib
import importlib
import io
import os
import tempfile

from bench_record import (alternate, import_tree, ratio_summary,
                          record_run, run_timer, timed)
from mapthermo.params import ClosedCoherentParams

N_STEPS = 4000
SCENARIO = f"""\
[scenario]
model = closed_coherent
n_steps = {N_STEPS}
out_dir = {{out_dir}}

[closed_coherent]
"""
CSV = "coherent_series.csv"


class Tree:
    """The run this script times, on one source tree's modules: `timer`
    times it, `run` makes it once into the tree's own output directory
    under `work_dir`, to compare the series it writes."""

    def __init__(self, module, work_dir: str, name: str):
        self.module = module
        self.out_dir = os.path.join(work_dir, name)
        self.config = os.path.join(work_dir, f"{name}.ini")
        with open(self.config, "w") as fh:
            fh.write(SCENARIO.format(out_dir=self.out_dir))
        self.timer = run_timer(module("cli").main, SCENARIO, work_dir,
                               f"{name}_timed")

    def run(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if self.module("cli").main(["run", self.config]) != 0:
                raise SystemExit(f"mapthermo run {self.config} failed")

    def series_bytes(self) -> bytes:
        with open(os.path.join(self.out_dir, CSV), "rb") as fh:
            return fh.read()

    def fluctuation(self):
        """A call of `coherent_work_fluctuation` on the scenario's whole
        grid, its inputs built now."""
        coherent = self.module("coherent")
        p = ClosedCoherentParams()   # either tree's protocol reads its fields
        times = p.grid(N_STEPS)
        rho0, hams, unitaries = coherent.closed_coherent_protocol(p, times)
        data = coherent.coherent_initial_construction(rho0, hams[0])
        return lambda: coherent.coherent_work_fluctuation(
            data, unitaries, hams, times)


def measure(work_dir: str, repeats: int, against_src: str | None) -> dict:
    ours = Tree(lambda name: importlib.import_module(f"mapthermo.{name}"),
                work_dir, "ours")
    walls = {}
    for key, call in (("run", ours.timer),
                      ("coherent_work_fluctuation",
                       timed(ours.fluctuation()))):
        call()
        walls[key] = [call() for _ in range(repeats)]
    result = {"shape": {"model": "closed_coherent", "n_steps": N_STEPS},
              "s_best": {key: min(w) for key, w in walls.items()},
              "s": walls}
    if against_src:
        theirs = Tree(lambda name: import_tree(against_src, name), work_dir,
                      "theirs")
        ours.run()
        theirs.run()
        if ours.series_bytes() != theirs.series_bytes():
            raise SystemExit(f"{CSV} differs between trees")
        result["against"] = {"run": ratio_summary(*alternate(
            ours.timer, theirs.timer, repeats))}
    return result


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time mapthermo run and coherent_work_fluctuation on the "
                    "closed drive at N = 4000")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_coherent.json")
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--against", metavar="SRC",
                    help="the src directory of a second source tree: check "
                         "that it writes the same series, then time it in "
                         "alternation with this one")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as work_dir:
        result = measure(work_dir, args.repeats, args.against)
    print(", ".join(f"{key} best {best * 1e3:.1f} ms"
                    for key, best in result["s_best"].items()))
    for key, pair in result.get("against", {}).items():
        print(f"{key}: {pair['ratio_median']:.3f} of the other tree's time, "
              f"faster in {pair['faster_in']} of {args.repeats}")
    record_run(args.out, "mapthermo run and coherent_work_fluctuation on the "
                         "closed drive at N = 4000", args.label, "coherent",
               result)


if __name__ == "__main__":
    main()
