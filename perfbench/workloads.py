"""The three workloads: seeded inputs, expected output size and output checks.

Sizes define a workload; the seed only draws physical parameters (or the
random generator) within fixed ranges, so every seed costs the same work.
No seed or size is chosen to avoid a failure: a failing seed is reported.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mapthermo.dynamics import save_map_trajectory
from mapthermo.models import WeakCouplingParams, weak_coupling_rates
from mapthermo.observables import ThermoPipeline
from mapthermo.phase_covariant import (pc_dissipated_bound, pc_integrals,
                                       pc_lambda_u, pc_lambda_w,
                                       pc_mean_work_and_deltaF, pc_thermo)
from mapthermo.validation import random_gksl_trajectory

WORKLOADS = ("wc_cli", "gksl_file", "exchange_hot")

WHY = {
    "wc_cli": "mapthermo run, weak coupling, N=2000, 4 beta: the per-row "
              "report loop (L4) dominates",
    "gksl_file": "mapthermo run on a d=6 random GKSL map file, N=400: file "
                 "parsing, the qudit split and 36x36 SVDs dominate",
    "exchange_hot": "exchange-window library route on the hot JC window: "
                    "the 13816-level sum (models) dominates; L2-L5 bypassed",
}

ORACLE_TOL = 1e-6       # the tolerance `mapthermo validate` uses
INVARIANT_TOL = 1e-9    # the CLI's default invariant_tol
BALANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
HOT_DIP_MAX = 0.99      # acceptance criterion 08


@dataclass(frozen=True)
class Sizes:
    wc_steps: int
    wc_betas: tuple[float, ...]
    gksl_dim: int
    gksl_steps: int
    ex_steps: int
    ex_t_f: float


FULL = Sizes(wc_steps=2000, wc_betas=(0.5, 1.0, 2.0, 4.0), gksl_dim=6,
             gksl_steps=400, ex_steps=1600, ex_t_f=400.0)
SMOKE = Sizes(wc_steps=64, wc_betas=(0.5, 1.0), gksl_dim=3, gksl_steps=32,
              ex_steps=200, ex_t_f=400.0)


@dataclass
class Prepared:
    """A workload's inputs on disk plus what the parent checks per sample.

    check(out_dir, child_result) returns a list of problems; empty is a pass.
    """

    name: str
    input_dir: str
    rows: int
    check: Callable[[str, dict], list[str]]
    layer: dict  # set-up measurements reported with the trace


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _load_csv(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _read_lambda_series(out_dir: str, rows: int,
                        problems: list[str]) -> np.ndarray | None:
    path = os.path.join(out_dir, "lambda_series.csv")
    if not os.path.exists(path):
        problems.append("lambda_series.csv missing")
        return None
    data = _load_csv(path)
    if data.shape != (rows, 10):
        problems.append(f"lambda_series.csv has shape {data.shape}, "
                        f"expected ({rows}, 10)")
        return None
    return data


def prepare_wc_cli(seed: int, sizes: Sizes, input_dir: str) -> Prepared:
    rng = _rng("wc_cli", seed)
    params = {"omega0": 1.0, "delta": float(rng.uniform(0.8, 1.2)),
              "Omega": math.pi / 20.0, "gamma": float(rng.uniform(0.008, 0.012)),
              "beta": float(rng.uniform(0.8, 1.2))}
    betas = sizes.wc_betas
    wc = WeakCouplingParams(**params)
    t_f = wc.default_t_f
    _write(os.path.join(input_dir, "scenario.ini"), "\n".join([
        "[scenario]",
        "model = weak_coupling",
        "beta_list = " + ", ".join(repr(b) for b in betas),
        f"n_steps = {sizes.wc_steps}",
        f"distribution_times = {t_f / 4!r}, {3 * t_f / 4!r}",
        "series = lambda, invertibility, pc_coefficients",
        "out_dir = out",
        "",
        "[weak_coupling]",
        *(f"{k} = {v!r}" for k, v in params.items()),
        ""]))
    _write(os.path.join(input_dir, "inputs.json"), json.dumps(
        {"params": params, "beta_list": list(betas),
         "n_steps": sizes.wc_steps}))

    # closed-form oracle, one block of rows per beta as the CLI writes them
    coeffs = pc_integrals(weak_coupling_rates(wc),
                          np.linspace(0.0, t_f, sizes.wc_steps + 1))
    thermo = pc_thermo(coeffs)
    blocks = []
    for beta in betas:
        lam, bound = pc_lambda_w(thermo, coeffs, beta)
        mean_w, _ = pc_mean_work_and_deltaF(thermo, coeffs, beta)
        blocks.append(np.column_stack([
            pc_lambda_u(coeffs, beta), lam, bound, mean_w,
            pc_dissipated_bound(thermo, coeffs, beta)]))
    expected = np.vstack(blocks)
    rows = expected.shape[0]
    # lambda_u, lambda_w, lambda_w_bound, mean_w, dissipated_bound
    columns = [2, 3, 4, 8, 9]

    def check(out_dir: str, _result: dict) -> list[str]:
        problems: list[str] = []
        data = _read_lambda_series(out_dir, rows, problems)
        if data is not None:
            dev = np.abs(data[:, columns] - expected)
            worst = float(np.max(dev)) if np.all(np.isfinite(dev)) else math.inf
            if not worst <= ORACLE_TOL:
                problems.append(f"generic vs closed forms deviate by "
                                f"{worst:.3e} > {ORACLE_TOL:g}")
        names = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
        for name in ("invertibility.csv", "pc_coefficients.csv",
                     "run_manifest.ini"):
            if name not in names:
                problems.append(f"{name} missing")
        n_dist = sum(n.startswith("distribution_t") for n in names)
        if n_dist != 2:
            problems.append(f"{n_dist} distribution files, expected 2")
        return problems

    n = sizes.wc_steps + 1
    layer = {"dynamics.grid_points": n, "dynamics.map_dim": 2,
             # maps plus analytic derivatives, complex128
             "dynamics.trajectory_bytes_computed": 2 * n * 16 * 16}
    return Prepared("wc_cli", input_dir, rows, check, layer)


def prepare_gksl_file(seed: int, sizes: Sizes, input_dir: str) -> Prepared:
    rng = _rng("gksl_file", seed)
    traj = random_gksl_trajectory(sizes.gksl_dim, rng,
                                  np.linspace(0.0, 1.0, sizes.gksl_steps + 1))
    map_path = os.path.join(input_dir, "trajectory.maps")
    start = time.perf_counter()
    save_map_trajectory(traj, map_path)
    save_s = time.perf_counter() - start
    _write(os.path.join(input_dir, "scenario.ini"), "\n".join([
        "[scenario]",
        "model = custom_map_file",
        "beta_list = 1.0",
        "series = lambda, invertibility",
        "out_dir = out",
        "",
        "[custom_map_file]",
        "path = trajectory.maps",
        ""]))
    # the first law is a property of the pipeline on this input: check once
    balance = ThermoPipeline(traj).balance_residual()
    rows = sizes.gksl_steps + 1
    d2 = sizes.gksl_dim ** 2
    layer = {
        # set-up only: the write side of the file format
        "dynamics.save_map_trajectory_s": save_s,
        "dynamics.map_file_bytes": os.path.getsize(map_path),
        # maps plus analytic derivatives, complex128
        "dynamics.trajectory_bytes_computed": 2 * rows * d2 * d2 * 16,
        "dynamics.grid_points": rows,
        "dynamics.map_dim": sizes.gksl_dim,
    }

    def check(out_dir: str, _result: dict) -> list[str]:
        problems: list[str] = []
        if not balance <= BALANCE_TOL:
            problems.append(f"first-law balance residual {balance:.3e} "
                            f"> {BALANCE_TOL:g}")
        data = _read_lambda_series(out_dir, rows, problems)
        if data is not None:
            if not np.all(np.isfinite(data)):
                problems.append("lambda_series.csv has non-finite values")
            elif np.any(data[:, 3] > data[:, 4] + INVARIANT_TOL):
                problems.append("lambda_w exceeds its bound")
        return problems

    return Prepared("gksl_file", input_dir, rows, check, layer)


def prepare_exchange_hot(seed: int, sizes: Sizes, input_dir: str) -> Prepared:
    rng = _rng("exchange_hot", seed)
    inputs = {"jc": {"omega": 1.0, "omega_m": 2.0,
                     "g": float(rng.uniform(0.009, 0.011)), "beta": 1e-3},
              "beta_ref": float(rng.uniform(0.9, 1.1)),
              "t_f": sizes.ex_t_f, "n_steps": sizes.ex_steps}
    _write(os.path.join(input_dir, "inputs.json"), json.dumps(inputs))
    rows = sizes.ex_steps + 1

    def check(out_dir: str, result: dict) -> list[str]:
        problems: list[str] = []
        path = os.path.join(out_dir, "exchange_hot.csv")
        if not os.path.exists(path):
            return ["exchange_hot.csv missing"]
        data = _load_csv(path)
        if data.shape != (rows, 4):
            return [f"exchange_hot.csv has shape {data.shape}, "
                    f"expected ({rows}, 4)"]
        lam, bound = data[:, 1], data[:, 2]
        if not np.all(np.isfinite(lam)):
            problems.append("lambda_w is not finite")
        elif np.any(lam > bound + INVARIANT_TOL):
            problems.append("lambda_w exceeds its bound")
        elif not float(lam.min()) < HOT_DIP_MAX:
            problems.append(f"hot-mode dip {lam.min():.4f} not below "
                            f"{HOT_DIP_MAX}")
        residual = result.get("generator_residual", math.inf)
        if not residual <= RESIDUAL_TOL:
            problems.append(f"extraction generator_residual {residual:.3e} "
                            f"> {RESIDUAL_TOL:g}")
        return problems

    return Prepared("exchange_hot", input_dir, rows, check, {})


PREPARE = {"wc_cli": prepare_wc_cli, "gksl_file": prepare_gksl_file,
           "exchange_hot": prepare_exchange_hot}
