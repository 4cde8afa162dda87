"""Wall time of the fluctuation tables, the two-point distributions and of
`mapthermo run` in process.

Two shapes, those of the benchmark's wc_cli and gksl_file workloads:

  wc_cli     weak-coupling qubit, d = 2, N = 2000, beta = 0.5, 1, 2, 4
  gksl_file  seeded random GKSL map file, d = 6, N = 400, beta = 1

For each shape it times the fluctuation tables of all its betas on a fresh
`ThermoPipeline` (the pipeline is built outside the timed region, so the
tables pay for every spectrum they need, as `mapthermo run` does), the table
of the first beta alone on a fresh pipeline (`first_beta`: the pipeline's
caches fill there) and, on a pipeline that has made that table, the time
per beta of the tables of all its betas (`further_beta`), and an
in-process `mapthermo run` of the shape's scenario (stdout discarded, each
run into a new out_dir, `bench_record.run_timer`), best of --repeats after
one warm-up call each. A tree's tables come from its all-beta pass
(`fluctuation_tables`), or from one `fluctuation_table` call per beta in a
tree that has none. At the wc_cli shape it also times the two-point
distributions of the run's two distribution times at all four betas, as
the tree's `run` makes them (`distributions`: the work observables, the
initial states and the distribution calls, on a pipeline whose caches a
table has filled). At both shapes it times the L2 steps on a trajectory
built from the shape's stacks just before each call: the condition
numbers, the inverse stack, `generator_splits` (with those two made) and
the `ThermoPipeline` set-up. It times the CSV writer on the numeric columns
of the tables a wc_cli run writes (lambda_series.csv, pc_coefficients.csv
and the cells of invertibility.csv, 100 050 cells): the first call in a
fresh process (cold, --repeats processes) and the best of --repeats calls
after a warm-up. The result is merged into a JSON file under --label, so
runs of two source trees sit side by side, each put first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_report.py --label change

With --against the src directory of a second tree (say a checkout of the
parent commit), both trees are imported into one process, their tables and
distributions are checked to agree to 1e-12 relative and their writers to
spell the columns to the same bytes, and each timed call (each cold
process, too) alternates with the other tree's, so that each gets a ratio
per pair of calls.

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import importlib
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_record import (alternate, import_tree, ratio_summary,
                          record_run, run_timer, timed)
from mapthermo.dynamics import save_map_trajectory
from mapthermo.fluctuations import fluctuation_table
from mapthermo.models import WeakCouplingParams, weak_coupling_rates
from mapthermo.observables import ThermoPipeline
from mapthermo.phase_covariant import pc_trajectory
from mapthermo.validation import random_gksl_trajectory

WC_STEPS, WC_BETAS, WC_DIST_TIMES = 2000, (0.5, 1.0, 2.0, 4.0), (2.5, 7.5)
L2_CALLS = ("condition_numbers", "inverse", "generator_splits", "pipeline")
GKSL_DIM, GKSL_STEPS, GKSL_BETAS, SEED = 6, 400, (1.0,), 0
SCENARIOS = {
    "wc_cli": f"""\
[scenario]
model = weak_coupling
beta_list = {", ".join(map(repr, WC_BETAS))}
n_steps = {WC_STEPS}
distribution_times = {", ".join(map(repr, WC_DIST_TIMES))}
series = lambda, invertibility, pc_coefficients
out_dir = {{out_dir}}

[weak_coupling]
""",
    "gksl_file": f"""\
[scenario]
model = custom_map_file
beta_list = {", ".join(map(repr, GKSL_BETAS))}
series = lambda, invertibility
out_dir = {{out_dir}}

[custom_map_file]
path = trajectory.maps
""",
}


class Tree:
    """The calls this script times, on one source tree's modules;
    `module(name)` returns the tree's mapthermo submodule `name`."""

    def __init__(self, module, work_dir: str):
        self.module = module
        self.work_dir = work_dir
        models = module("models")
        p = models.WeakCouplingParams()
        self.trajs = {
            "wc_cli": module("phase_covariant").pc_trajectory(
                models.weak_coupling_rates(p), p.grid(WC_STEPS))[0],
            "gksl_file": module("dynamics").load_map_trajectory(
                os.path.join(work_dir, "trajectory.maps"))}
        self.betas = {"wc_cli": WC_BETAS, "gksl_file": GKSL_BETAS}

    def tables(self, shape: str, betas=None, warm: bool = False):
        """A call making the shape's tables (at `betas`, by default all the
        shape's) on a pipeline built now; with `warm`, the pipeline has
        made the table of the shape's first beta before."""
        pipe = self.module("observables").ThermoPipeline(self.trajs[shape])
        fluctuations = self.module("fluctuations")
        betas = self.betas[shape] if betas is None else betas
        if warm:
            fluctuations.fluctuation_table(pipe, self.betas[shape][0])
        if hasattr(fluctuations, "fluctuation_tables"):
            return lambda: fluctuations.fluctuation_tables(pipe, betas)
        return lambda: [fluctuations.fluctuation_table(pipe, beta)
                        for beta in betas]

    def distributions(self):
        """A call making the wc_cli shape's distributions the way the tree's
        `run` does, on a pipeline whose caches a table has filled."""
        pipe = self.module("observables").ThermoPipeline(self.trajs["wc_cli"])
        fluctuations = self.module("fluctuations")
        fluctuations.fluctuation_table(pipe, WC_BETAS[0])
        ops = self.module("operators")
        maps, times = pipe.traj.maps, pipe.times
        indices = [int(np.argmin(np.abs(times - t))) for t in WC_DIST_TIMES]

        def run():
            work, _ = pipe.work_heat_observables()
            first = work[0]
            if not hasattr(ops, "Superoperator"):   # Gibbs states by beta
                return [fluctuations.tpms_distribution(
                    WC_BETAS, maps[i], first, work[i]) for i in indices]
            if hasattr(fluctuations, "_initial_states"):
                states = fluctuations._initial_states(pipe, WC_BETAS)
                return [fluctuations.tpms_distribution(
                    states, ops.Superoperator(maps[i]), first, work[i])
                    for i in indices]
            states = [ops.DensityMatrix._checked(
                fluctuations._initial_state(pipe, beta)) for beta in WC_BETAS]
            return [[fluctuations.tpms_distribution(
                rho, ops.Superoperator(maps[i]), first, work[i])
                for rho in states] for i in indices]
        return run

    def l2_timer(self, shape: str, what: str):
        """A call returning the wall time of one L2 step on a trajectory
        built just before it from the shape's stacks (construction is not
        timed): the condition numbers, the inverse stack, the generator
        split (on a trajectory whose condition numbers and inverses are
        made) or the `ThermoPipeline` set-up."""
        dynamics = self.module("dynamics")
        traj = self.trajs[shape]

        def run() -> float:
            fresh = dynamics.MapTrajectory(times=traj.times, maps=traj.maps,
                                           derivatives=traj.derivatives)
            if what == "generator_splits":
                fresh.inverses()
            call = {"condition_numbers": lambda: fresh.condition_numbers,
                    "inverse": lambda: fresh._inverse_stack,
                    "generator_splits":
                        lambda: dynamics.generator_splits(fresh),
                    "pipeline": lambda: self.module(
                        "observables").ThermoPipeline(fresh)}[what]
            return timed(call)()
        return run

    def timer(self, shape: str, what: str):
        """A call returning the wall time of the shape's tables (on a
        pipeline built just before them), of the first beta's table, of a
        further beta's (per beta), of an L2 step (`l2_timer`), of its
        in-process run, of the wc_cli distributions or of the CSV writer on
        the wc_cli columns."""
        if what == "tables":
            return lambda: timed(self.tables(shape))()
        if what == "first_beta":
            return lambda: timed(self.tables(shape, self.betas[shape][:1]))()
        if what == "further_beta":
            per = len(self.betas[shape])
            return lambda: timed(self.tables(shape, warm=True))() / per
        if what == "distributions":
            return lambda: timed(self.distributions())()
        if what in L2_CALLS:
            return self.l2_timer(shape, what)
        if what == "writer":
            write = writer(self.module)
            columns = wc_cli_columns()
            return timed(lambda: [write(c) for c in columns])
        return run_timer(self.module("cli").main, SCENARIOS[shape],
                         self.work_dir, shape)


def writer(module):
    """The tree's CSV writer as a call from columns to text: `csv_text`,
    or before it the lines of `csv_lines`, joined."""
    dynamics = module("dynamics")
    if hasattr(dynamics, "csv_text"):
        return dynamics.csv_text
    csv_lines = module("fluctuations").csv_lines
    return lambda columns: "".join(line + "\n" for line in csv_lines(columns))


def wc_cli_columns() -> list[list[np.ndarray]]:
    """The numeric columns of lambda_series.csv, pc_coefficients.csv and
    invertibility.csv of a wc_cli run, computed by this script's tree so
    that both trees' writers spell the same numbers."""
    p = WeakCouplingParams()
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(WC_STEPS))
    pipe = ThermoPipeline(traj)
    tables = [fluctuation_table(pipe, beta) for beta in WC_BETAS]
    return [[np.concatenate([np.broadcast_to(getattr(table, name),
                                             table.time.shape)
                             for table in tables])
             for name in ("time", "beta") + COLUMNS],
            [coeffs.times, coeffs.a, coeffs.b, coeffs.c, coeffs.d_par,
             coeffs.d_perp, coeffs.I, coeffs.J],
            [traj.times, traj.condition_numbers]]


# a fresh interpreter: import the tree's writer, then time its first call
COLD = """
import importlib, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from bench_report import writer
with np.load(sys.argv[2]) as data:
    columns = [[data[f"{k}_{j}"] for j in range(data[f"width_{k}"])]
               for k in range(3)]
write = writer(lambda name: importlib.import_module(f"mapthermo.{name}"))
start = time.perf_counter()
for c in columns:
    write(c)
print(time.perf_counter() - start)
"""


def cold_writer(src: str, columns_path: str):
    """A call returning the wall time of the writer's first pass over the
    wc_cli columns in a fresh interpreter on the tree under `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    here = os.path.dirname(os.path.abspath(__file__))

    def run() -> float:
        out = subprocess.run([sys.executable, "-c", COLD, here,
                              columns_path], env=env, capture_output=True,
                             text=True, check=True)
        return float(out.stdout)
    return run


def check_writers(ours: Tree, theirs: Tree) -> None:
    """Exit unless both trees' writers spell the wc_cli columns to the
    same text."""
    for columns in wc_cli_columns():
        if writer(ours.module)(columns) != writer(theirs.module)(columns):
            raise SystemExit("the trees' writers spell the columns "
                             "differently")


COLUMNS = ("lambda_u", "lambda_w", "lambda_w_bound", "exp_avg_w",
           "exp_avg_q", "delta_F_bar", "mean_w", "dissipated_bound")


def check_agreement(ours: Tree, theirs: Tree) -> None:
    """Exit unless both trees' tables agree to 1e-12 relative (mean_w,
    delta_F_bar and dissipated_bound, which cancel to zero at t = 0, to
    1e-12 of their largest value or of 1, the scale of the traces, log
    partition functions and eigenvalues whose differences they are), and
    so do
    their wc_cli distributions (outcomes and probabilities, scale 1)."""
    for shape in SCENARIOS:
        for a, b in zip(ours.tables(shape)(), theirs.tables(shape)()):
            for name in COLUMNS:
                x, y = getattr(a, name), getattr(b, name)
                scale = np.maximum(np.abs(x), np.abs(y))
                if name in ("mean_w", "delta_F_bar", "dissipated_bound"):
                    scale = max(1.0, scale.max())
                if np.any(np.abs(x - y) > 1e-12 * scale):
                    raise SystemExit(f"{shape} {name} differs between trees")
    ours_dists, theirs_dists = ([d for at_time in tree.distributions()()
                                 for d in at_time] for tree in (ours, theirs))
    for a, b in zip(ours_dists, theirs_dists):
        for x, y in ((a.outcomes, b.outcomes), (a.probs, b.probs)):
            if x.shape != y.shape or np.any(
                    np.abs(x - y) > 1e-12 * np.maximum(1.0, np.abs(y))):
                raise SystemExit("wc_cli distributions differ between trees")


def measure(work_dir: str, repeats: int, against_src: str | None) -> dict:
    traj = random_gksl_trajectory(
        GKSL_DIM, np.random.default_rng(SEED),
        np.linspace(0.0, 1.0, GKSL_STEPS + 1))
    save_map_trajectory(traj, os.path.join(work_dir, "trajectory.maps"))
    ours = Tree(lambda name: importlib.import_module(f"mapthermo.{name}"),
                work_dir)
    keys = [(shape, what) for shape in SCENARIOS
            for what in ("tables", "first_beta", "further_beta", "run",
                         *L2_CALLS)]
    keys += [("wc_cli", what) for what in ("distributions", "writer")]
    walls = {}
    for shape, what in keys:
        call = ours.timer(shape, what)
        call()
        walls[f"{shape}.{what}"] = [call() for _ in range(repeats)]
    columns = wc_cli_columns()
    columns_path = os.path.join(work_dir, "wc_cli_columns.npz")
    np.savez(columns_path, **{f"{k}_{j}": c for k, cols in enumerate(columns)
                              for j, c in enumerate(cols)},
             **{f"width_{k}": len(cols) for k, cols in enumerate(columns)})
    ours_src = os.path.dirname(os.path.dirname(
        os.path.abspath(importlib.import_module("mapthermo").__file__)))
    walls["wc_cli.writer_cold"] = [cold_writer(ours_src, columns_path)()
                                   for _ in range(repeats)]
    result = {"wc_cli_shape": {"dim": 2, "n_steps": WC_STEPS,
                               "betas": list(WC_BETAS)},
              "gksl_file_shape": {"dim": GKSL_DIM, "n_steps": GKSL_STEPS,
                                  "betas": list(GKSL_BETAS), "seed": SEED},
              "writer_cells": sum(c.size for cols in columns for c in cols),
              "s_best": {key: min(w) for key, w in walls.items()},
              "s": walls}
    if against_src:
        theirs = Tree(lambda name: import_tree(against_src, name), work_dir)
        check_agreement(ours, theirs)
        check_writers(ours, theirs)
        result["against"] = {
            f"{shape}.{what}": ratio_summary(*alternate(
                ours.timer(shape, what), theirs.timer(shape, what), repeats))
            for shape, what in keys}
        result["against"]["wc_cli.writer_cold"] = ratio_summary(*alternate(
            cold_writer(ours_src, columns_path),
            cold_writer(against_src, columns_path), repeats))
    return result


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time the fluctuation tables, the two-point "
                    "distributions, the L2 steps, mapthermo run and the CSV "
                    "writer on the wc_cli and gksl_file shapes")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_report.json")
    ap.add_argument("--repeats", type=int, default=8)
    ap.add_argument("--against", metavar="SRC",
                    help="the src directory of a second source tree: time "
                         "it in alternation with this one")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as work_dir:
        result = measure(work_dir, args.repeats, args.against)
    print(", ".join(f"{key} best {best * 1e3:.1f} ms"
                    for key, best in result["s_best"].items()))
    for key, pair in result.get("against", {}).items():
        print(f"{key}: {pair['ratio_median']:.3f} of the other tree's time, "
              f"faster in {pair['faster_in']} of {args.repeats}")
    record_run(args.out, "fluctuation tables, two-point distributions, "
                         "L2 steps, mapthermo run and the CSV writer on the "
                         "wc_cli and gksl_file shapes",
               args.label, "report", result)


if __name__ == "__main__":
    main()
