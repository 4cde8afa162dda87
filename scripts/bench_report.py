"""Wall time of the fluctuation tables, the two-point distributions and of
`mapthermo run` in process.

Two shapes, those of the benchmark's wc_cli and gksl_file workloads:

  wc_cli     weak-coupling qubit, d = 2, N = 2000, beta = 0.5, 1, 2, 4
  gksl_file  seeded random GKSL map file, d = 6, N = 400, beta = 1

For each shape it times the fluctuation tables of all its betas on a fresh
`ThermoPipeline` (the pipeline is built outside the timed region, so the
tables pay for every spectrum they need, as `mapthermo run` does), the table
of the first beta alone on a fresh pipeline (`first_beta`: the spectra of
K(t), P(t) and O_w(t) on every row and of K(0), the diagonals in them, and
one beta's weights and sums), and an in-process `mapthermo run` of the
shape's scenario (stdout discarded, each run into a new out_dir,
`bench_record.run_timer`), best of --repeats after one warm-up call each. A
tree's tables come from its all-beta pass (`fluctuation_tables`). At the
wc_cli shape it also times the two-point distributions of the run's two
distribution times at all four betas, as the tree's `run` makes them
(`distributions`: the work observables and the distribution calls at the
four betas, on a fresh pipeline). At both shapes it times the L2 steps on
a trajectory built from the shape's stacks just before each call: the
condition numbers, the inverse stack, `generator_splits` (with those two
made) and the `ThermoPipeline` set-up. It times the CSV writer as `run` uses it
(`csvout.csv_bytes`, then `cli._write`) on the tables a wc_cli run writes
(lambda_series.csv, pc_coefficients.csv and the numeric cells of
invertibility.csv, 100 050 cells), written as files into a new out_dir
made before the timed region and flushed and removed after it: the first
pass in a fresh process (cold, --repeats processes) and the best of
--repeats passes after a warm-up. The result is merged into a JSON file
under --label, so runs of two source trees sit side by side, each put first
on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_report.py --label change

With --against the src directory of a second tree (say a checkout of the
parent commit), both trees are imported into one process, their tables and
distributions are checked to agree to 1e-12 relative and their writers to
write the same bytes, and each timed call (each cold process, too)
alternates with the other tree's, so that each gets a ratio per pair of
calls.

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import importlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from bench_record import (alternate, flush_and_remove, import_tree,
                          ratio_summary, record_run, run_timer, timed)
from mapthermo.dynamics import save_map_trajectory
from mapthermo.fluctuations import fluctuation_tables
from mapthermo.params import WeakCouplingParams, weak_coupling_rates
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
        self.trajectory = module("trajectory")
        p = WeakCouplingParams()
        self.trajs = {
            "wc_cli": module("phase_covariant").pc_trajectory(
                weak_coupling_rates(p), p.grid(WC_STEPS))[0],
            "gksl_file": module("dynamics").load_map_trajectory(
                os.path.join(work_dir, "trajectory.maps"))}
        self.betas = {"wc_cli": WC_BETAS, "gksl_file": GKSL_BETAS}

    def tables(self, shape: str, betas=None):
        """A call making the shape's tables (at `betas`, by default all the
        shape's) on a pipeline built now."""
        pipe = self.module("observables").ThermoPipeline(self.trajs[shape])
        fluctuations = self.module("fluctuations")
        betas = self.betas[shape] if betas is None else betas
        return lambda: fluctuations.fluctuation_tables(pipe, betas)

    def distributions(self):
        """A call making the wc_cli shape's distributions the way the tree's
        `run` does, on a pipeline built now."""
        pipe = self.module("observables").ThermoPipeline(self.trajs["wc_cli"])
        fluctuations = self.module("fluctuations")
        maps, times = pipe.traj.maps, pipe.times
        indices = [int(np.argmin(np.abs(times - t))) for t in WC_DIST_TIMES]

        def run():
            work, _ = pipe.work_heat_observables()
            return [fluctuations.tpms_distribution(
                WC_BETAS, maps[i], work[0], work[i]) for i in indices]
        return run

    def l2_timer(self, shape: str, what: str):
        """A call returning the wall time of one L2 step on a trajectory
        built just before it from the shape's stacks (construction is not
        timed): the condition numbers, the inverse stack, the generator
        split (on a trajectory whose condition numbers and inverses are
        made) or the `ThermoPipeline` set-up."""
        trajectory = self.trajectory
        traj = self.trajs[shape]

        def run() -> float:
            fresh = trajectory.MapTrajectory(
                times=traj.times, maps=traj.maps,
                derivatives=traj.derivatives)
            if what == "generator_splits":
                fresh.inverses()
            call = {"condition_numbers": lambda: fresh.condition_numbers,
                    "inverse": lambda: fresh._inverse_stack,
                    "generator_splits":
                        lambda: trajectory.generator_splits(fresh),
                    "pipeline": lambda: self.module(
                        "observables").ThermoPipeline(fresh)}[what]
            return timed(call)()
        return run

    def timer(self, shape: str, what: str):
        """A call returning the wall time of the shape's tables (on a
        pipeline built just before them), of the first beta's table, of an
        L2 step (`l2_timer`), of its
        in-process run, of the wc_cli distributions or of the CSV writer
        writing the wc_cli tables (`writer_timer`)."""
        if what == "tables":
            return lambda: timed(self.tables(shape))()
        if what == "first_beta":
            return lambda: timed(self.tables(shape, self.betas[shape][:1]))()
        if what == "distributions":
            return lambda: timed(self.distributions())()
        if what in L2_CALLS:
            return self.l2_timer(shape, what)
        if what == "writer":
            return writer_timer(writer(self.module), self.work_dir)
        return run_timer(self.module("cli").main, SCENARIOS[shape],
                         self.work_dir, shape)


def writer(module):
    """The tree's CSV writer as `run` uses it: a call writing the wc_cli
    tables (`wc_cli_tables`) as files into a directory."""
    cli, spell = module("cli"), module("csvout").csv_bytes

    def write(out_dir: str, tables) -> None:
        cfg = SimpleNamespace(out_dir=out_dir)
        for name, header, columns in tables:
            cli._write(cfg, name, spell(columns, header.encode()), [])
    return write


def wc_cli_tables() -> list[tuple[str, str, list[np.ndarray]]]:
    """The file name, header and numeric columns of lambda_series.csv,
    pc_coefficients.csv and invertibility.csv of a wc_cli run, computed by
    this script's tree so that both trees' writers spell the same
    numbers."""
    p = WeakCouplingParams()
    traj, coeffs = pc_trajectory(weak_coupling_rates(p), p.grid(WC_STEPS))
    tables = fluctuation_tables(ThermoPipeline(traj), WC_BETAS)
    lambda_series = [np.concatenate([np.broadcast_to(getattr(table, name),
                                                     table.time.shape)
                                     for table in tables])
                     for name in ("time", "beta") + COLUMNS]
    return [(name, header, columns) for (name, header), columns in zip(
        TABLE_FILES, [lambda_series,
                      [coeffs.times, coeffs.a, coeffs.b, coeffs.c,
                       coeffs.d_par, coeffs.d_perp, coeffs.I, coeffs.J],
                      [traj.times, traj.condition_numbers]])]


def save_tables(path: str, tables) -> None:
    np.savez(path, **{f"{k}_{j}": c
                      for k, (_, _, columns) in enumerate(tables)
                      for j, c in enumerate(columns)})


def load_tables(path: str) -> list[tuple[str, str, list[np.ndarray]]]:
    """The tables `save_tables` stored, their names and headers as
    `wc_cli_tables` gives them."""
    with np.load(path) as data:
        return [(name, header, [data[f"{k}_{j}"]
                                for j in range(header.count(",") + 1)])
                for k, (name, header) in enumerate(TABLE_FILES)]


def writer_timer(write, work_dir: str):
    """A call returning the wall time of `write` writing the wc_cli tables
    into a new out_dir, made before the timed region and flushed and
    removed after it."""
    tables = wc_cli_tables()

    def run() -> float:
        out_dir = tempfile.mkdtemp(dir=work_dir)
        wall = timed(lambda: write(out_dir, tables))()
        flush_and_remove(out_dir)
        return wall
    return run


# a fresh interpreter: import the tree's writer, then time its first pass
COLD = """
import importlib, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from bench_record import flush_and_remove
from bench_report import load_tables, writer
tables, out_dir = load_tables(sys.argv[2]), tempfile.mkdtemp(dir=sys.argv[3])
write = writer(lambda name: importlib.import_module(f"mapthermo.{name}"))
start = time.perf_counter()
write(out_dir, tables)
print(time.perf_counter() - start)
flush_and_remove(out_dir)
"""


def cold_writer(src: str, tables_path: str, work_dir: str):
    """A call returning the wall time of the writer's first pass over the
    wc_cli tables in a fresh interpreter on the tree under `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    here = os.path.dirname(os.path.abspath(__file__))

    def run() -> float:
        out = subprocess.run([sys.executable, "-c", COLD, here, tables_path,
                              work_dir], env=env, capture_output=True,
                             text=True, check=True)
        return float(out.stdout)
    return run


def check_writers(ours: Tree, theirs: Tree, work_dir: str) -> None:
    """Exit unless both trees' writers write the wc_cli tables to the same
    bytes."""
    tables, files = wc_cli_tables(), []
    for tree in (ours, theirs):
        out_dir = tempfile.mkdtemp(dir=work_dir)
        writer(tree.module)(out_dir, tables)
        files.append({name: Path(out_dir, name).read_bytes()
                      for name, _, _ in tables})
        shutil.rmtree(out_dir)
    if files[0] != files[1]:
        raise SystemExit("the trees' writers write the tables differently")


COLUMNS = ("lambda_u", "lambda_w", "lambda_w_bound", "exp_avg_w",
           "exp_avg_q", "delta_F_bar", "mean_w", "dissipated_bound")
TABLE_FILES = (("lambda_series.csv", ",".join(("t", "beta") + COLUMNS)),
               ("pc_coefficients.csv", "t,a,b,c,d_par,d_perp,I,J"),
               ("invertibility.csv", "t,condition_number"))


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
            for what in ("tables", "first_beta", "run",
                         *L2_CALLS)]
    keys += [("wc_cli", what) for what in ("distributions", "writer")]
    walls = {}
    for shape, what in keys:
        call = ours.timer(shape, what)
        call()
        walls[f"{shape}.{what}"] = [call() for _ in range(repeats)]
    tables = wc_cli_tables()
    tables_path = os.path.join(work_dir, "wc_cli_tables.npz")
    save_tables(tables_path, tables)
    ours_src = os.path.dirname(os.path.dirname(
        os.path.abspath(importlib.import_module("mapthermo").__file__)))
    walls["wc_cli.writer_cold"] = [
        cold_writer(ours_src, tables_path, work_dir)()
        for _ in range(repeats)]
    result = {"wc_cli_shape": {"dim": 2, "n_steps": WC_STEPS,
                               "betas": list(WC_BETAS)},
              "gksl_file_shape": {"dim": GKSL_DIM, "n_steps": GKSL_STEPS,
                                  "betas": list(GKSL_BETAS), "seed": SEED},
              "writer_cells": sum(c.size for _, _, columns in tables
                                  for c in columns),
              "s_best": {key: min(w) for key, w in walls.items()},
              "s": walls}
    if against_src:
        theirs = Tree(lambda name: import_tree(against_src, name), work_dir)
        check_agreement(ours, theirs)
        check_writers(ours, theirs, work_dir)
        result["against"] = {
            f"{shape}.{what}": ratio_summary(*alternate(
                ours.timer(shape, what), theirs.timer(shape, what), repeats))
            for shape, what in keys}
        result["against"]["wc_cli.writer_cold"] = ratio_summary(*alternate(
            cold_writer(ours_src, tables_path, work_dir),
            cold_writer(against_src, tables_path, work_dir), repeats))
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
