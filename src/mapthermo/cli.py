"""Command-line entry point.

Three subcommands:

  run <config>       execute one scenario and write its CSV series
  validate [--full]  run the built-in consistency checks
  map-info <file>    print map diagnostics for a stored trajectory file

Configs are INI files (configparser syntax, ``;`` or ``#`` inline comments).
A run writes deterministic output: the same config produces byte-identical
files, and ``run_manifest.ini`` echoes every effective parameter (defaulted
ones tagged ``; default``) so the manifest itself is a valid config.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (ConfigError, ConstructionError, NoMatchingBeta,
                     SingularMap, TruncationError)
from .operators import (COND_THRESHOLD_DEFAULT, Superoperator,
                        cptp_diagnostics, condition_number, gibbs_state)
from .dynamics import (condition_flags, invertibility_report,
                       load_map_trajectory, read_map_file)
from .phase_covariant import PCRates, pc_trajectory
from .observables import ThermoPipeline
# fluctuation_report is unused here but stays a module attribute: the traced
# benchmark run (perfbench/child.py) wraps it by name.
from .fluctuations import (CLUSTER_TOL, NEGATIVE_PROB_TOL, PROB_SUM_TOL,
                           FluctuationReport, fluctuation_report,  # noqa: F401
                           fluctuation_table, tpms_distribution)
from .observables import (HERMITIZE_TOL, coherent_initial_construction,
                          coherent_work_fluctuation)
from .models import (ClosedCoherentParams, JCParams, WeakCouplingParams,
                     closed_coherent_protocol, jc_reduced_map,
                     weak_coupling_rates)
from .validation import format_report, run_checks

MODELS = ("weak_coupling", "jaynes_cummings", "custom_pc", "custom_map_file",
          "closed_coherent")

# series tokens a config may request, per model
_SERIES_BY_MODEL = {
    "weak_coupling": ("lambda", "invertibility", "pc_coefficients"),
    "custom_pc": ("lambda", "invertibility", "pc_coefficients"),
    "jaynes_cummings": ("lambda", "invertibility"),
    "custom_map_file": ("lambda", "invertibility"),
    "closed_coherent": ("coherent",),
}

_REQUIRED = object()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Tolerances:
    cond_threshold: float = COND_THRESHOLD_DEFAULT
    invariant_tol: float = 1e-9


@dataclass
class ScenarioConfig:
    model: str
    params: object
    t_max: float | None
    n_steps: int
    beta_list: tuple[float, ...]
    out_dir: str
    series: tuple[str, ...]
    distribution_times: tuple[float, ...]
    tolerances: Tolerances
    map_path: str | None = None
    # (key, rendered value, took_default) per section, in manifest order
    entries: dict[str, list[tuple[str, str, bool]]] = field(default_factory=dict)


class _SectionReader:
    """Typed key access with consumed-key tracking and manifest recording."""

    def __init__(self, cp: configparser.ConfigParser, section: str,
                 cfg_entries: dict, path: str):
        self.cp = cp
        self.section = section
        self.path = path
        self.seen: set[str] = set()
        self.entries = cfg_entries.setdefault(section, [])

    def _raw(self, key: str):
        if self.cp.has_option(self.section, key):
            self.seen.add(key)
            return self.cp.get(self.section, key).strip()
        return None

    def _record(self, key: str, rendered: str, took_default: bool):
        self.entries.append((key, rendered, took_default))

    def _fail(self, key: str, msg: str):
        raise ConfigError(f"{self.path}: [{self.section}] {key}: {msg}")

    def get_str(self, key: str, default=_REQUIRED,
                choices: tuple[str, ...] | None = None) -> str:
        raw = self._raw(key)
        if raw is None:
            if default is _REQUIRED:
                self._fail(key, "required key is missing")
            raw, took_default = default, True
        else:
            took_default = False
        if choices is not None and raw not in choices:
            self._fail(key, f"must be one of {', '.join(choices)} (got {raw!r})")
        self._record(key, raw, took_default)
        return raw

    def get_float(self, key: str, default=_REQUIRED) -> float:
        raw = self._raw(key)
        if raw is None:
            if default is _REQUIRED:
                self._fail(key, "required key is missing")
            self._record(key, _fmt(default), True)
            return float(default)
        try:
            val = float(raw)
        except ValueError:
            self._fail(key, f"cannot parse {raw!r} as a number")
        self._record(key, _fmt(val), False)
        return val

    def get_int(self, key: str, default=_REQUIRED) -> int:
        raw = self._raw(key)
        if raw is None:
            if default is _REQUIRED:
                self._fail(key, "required key is missing")
            self._record(key, str(default), True)
            return int(default)
        try:
            val = int(raw)
        except ValueError:
            self._fail(key, f"cannot parse {raw!r} as an integer")
        self._record(key, str(val), False)
        return val

    def get_float_list(self, key: str, default=_REQUIRED) -> tuple[float, ...]:
        raw = self._raw(key)
        if raw is None:
            if default is _REQUIRED:
                self._fail(key, "required key is missing")
            vals, took_default = tuple(default), True
        else:
            took_default = False
            try:
                vals = tuple(float(x) for x in raw.split(",") if x.strip())
            except ValueError:
                self._fail(key, f"cannot parse {raw!r} as comma-separated numbers")
        self._record(key, ", ".join(_fmt(v) for v in vals), took_default)
        return vals

    def forbid(self, key: str, why: str):
        if self.cp.has_option(self.section, key):
            self._fail(key, why)

    def finish(self):
        extra = set(self.cp.options(self.section)) - self.seen
        if extra:
            self._fail(sorted(extra)[0], "unknown key")


def parse_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # keys are case-sensitive (Omega vs omega0)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not cp.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")

    entries: dict[str, list[tuple[str, str, bool]]] = {}
    scen = _SectionReader(cp, "scenario", entries, path)
    model = scen.get_str("model", choices=MODELS)

    known = {"scenario", model, "tolerances", "manifest"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"{path}: unexpected section [{section}] "
                              f"for model {model}")

    params, map_path, default_t_max = _parse_model_params(cp, model, entries,
                                                          path)

    out_dir = scen.get_str("out_dir", default="out")
    if model == "closed_coherent":
        scen.forbid("beta_list",
                    "closed_coherent derives beta from the initial state")
        beta_list = ()
    else:
        beta_list = scen.get_float_list("beta_list")
        if not beta_list:
            raise ConfigError(f"{path}: [scenario] beta_list: empty list")
        if any(b <= 0 for b in beta_list):
            raise ConfigError(f"{path}: [scenario] beta_list: "
                              "inverse temperatures must be positive")

    if model == "custom_map_file":
        scen.forbid("t_max", "the grid comes from the map file")
        scen.forbid("n_steps", "the grid comes from the map file")
        t_max, n_steps = None, 0
    else:
        if default_t_max is None:
            t_max = scen.get_float("t_max")
        else:
            t_max = scen.get_float("t_max", default=default_t_max)
        if t_max <= 0:
            raise ConfigError(f"{path}: [scenario] t_max: must be positive")
        n_steps = scen.get_int("n_steps", default=1000)
        if n_steps < 16:
            raise ConfigError(f"{path}: [scenario] n_steps: must be >= 16")

    allowed = _SERIES_BY_MODEL[model]
    raw_series = scen.get_str("series", default=", ".join(allowed))
    series = tuple(s.strip() for s in raw_series.split(",") if s.strip())
    for s in series:
        if s not in allowed:
            raise ConfigError(f"{path}: [scenario] series: {s!r} is not "
                              f"available for {model} (allowed: "
                              f"{', '.join(allowed)})")

    if model == "closed_coherent":
        scen.forbid("distribution_times",
                    "closed_coherent emits no sampled distributions")
        dist_times = ()
    else:
        dist_times = scen.get_float_list("distribution_times", default=())
    scen.finish()

    tol_reader = _SectionReader(cp, "tolerances", entries, path) \
        if cp.has_section("tolerances") else None
    if tol_reader is not None:
        tolerances = Tolerances(
            cond_threshold=tol_reader.get_float("cond_threshold",
                                                default=COND_THRESHOLD_DEFAULT),
            invariant_tol=tol_reader.get_float("invariant_tol", default=1e-9))
        tol_reader.finish()
    else:
        tolerances = Tolerances()
        entries["tolerances"] = [
            ("cond_threshold", _fmt(tolerances.cond_threshold), True),
            ("invariant_tol", _fmt(tolerances.invariant_tol), True)]

    return ScenarioConfig(model=model, params=params, t_max=t_max,
                          n_steps=n_steps, beta_list=beta_list,
                          out_dir=out_dir, series=series,
                          distribution_times=dist_times,
                          tolerances=tolerances, map_path=map_path,
                          entries=entries)


def _parse_model_params(cp, model, entries, path):
    """Returns (params object, map path or None, default t_max or None)."""
    if model != "custom_map_file" and not cp.has_section(model):
        raise ConfigError(f"{path}: missing [{model}] section")
    reader = _SectionReader(cp, model, entries, path) \
        if cp.has_section(model) else None

    def build(factory, **kwargs):
        try:
            return factory(**kwargs)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: [{model}]: {exc}")

    if model == "weak_coupling":
        params = build(
            WeakCouplingParams,
            omega0=reader.get_float("omega0", default=1.0),
            delta=reader.get_float("delta", default=1.0),
            Omega=reader.get_float("Omega", default=math.pi / 20.0),
            gamma=reader.get_float("gamma", default=0.01),
            beta=reader.get_float("beta", default=1.0),
            drive_mode=reader.get_str("drive_mode", default="monotonic",
                                      choices=("monotonic", "periodic")),
            gamma_z=reader.get_float("gamma_z", default=0.0))
        reader.finish()
        return params, None, params.default_t_f

    if model == "jaynes_cummings":
        raw_n = reader.get_str("n_max", default="auto")
        if raw_n == "auto":
            n_max = None
        else:
            try:
                n_max = int(raw_n)
            except ValueError:
                raise ConfigError(f"{path}: [{model}] n_max: expected an "
                                  f"integer or 'auto', got {raw_n!r}")
        params = build(
            JCParams,
            omega=reader.get_float("omega", default=1.0),
            omega_m=reader.get_float("omega_m", default=2.0),
            g=reader.get_float("g", default=0.01),
            beta=reader.get_float("beta", default=math.inf),
            n_max=n_max,
            tail_margin=reader.get_float("tail_margin", default=1e-12))
        reader.finish()
        return params, None, None

    if model == "custom_pc":
        vals = {
            "omega0": reader.get_float("omega0", default=1.0),
            "delta": reader.get_float("delta", default=0.0),
            "Omega": reader.get_float("Omega", default=1.0),
            "gamma_plus": reader.get_float("gamma_plus", default=0.0),
            "gamma_minus": reader.get_float("gamma_minus", default=0.0),
            "gamma_z": reader.get_float("gamma_z", default=0.0),
        }
        reader.finish()
        return vals, None, None

    if model == "custom_map_file":
        if reader is None:
            raise ConfigError(f"{path}: missing [custom_map_file] section")
        rel = reader.get_str("path")
        reader.finish()
        map_path = os.path.join(os.path.dirname(os.path.abspath(path)), rel) \
            if not os.path.isabs(rel) else rel
        if not os.path.exists(map_path):
            raise ConfigError(f"{path}: [custom_map_file] path: "
                              f"{map_path} does not exist")
        return None, map_path, None

    params = build(
        ClosedCoherentParams,
        omega0=reader.get_float("omega0", default=1.0),
        delta=reader.get_float("delta", default=1.0),
        Omega=reader.get_float("Omega", default=math.pi / 20.0),
        beta0=reader.get_float("beta0", default=1.0),
        rotation_angle=reader.get_float("rotation_angle", default=0.5),
        drive_mode=reader.get_str("drive_mode", default="monotonic",
                                  choices=("monotonic", "periodic")))
    reader.finish()
    return params, None, params.default_t_f


# ---------------------------------------------------------------------------
# scenario execution

def _grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)


def _build_trajectory(cfg: ScenarioConfig):
    """Returns (trajectory, pc coefficients or None)."""
    if cfg.model == "weak_coupling":
        return pc_trajectory(weak_coupling_rates(cfg.params), _grid(cfg))
    if cfg.model == "custom_pc":
        v = cfg.params
        omega0, delta, big_omega = v["omega0"], v["delta"], v["Omega"]

        def omega(t):
            return omega0 + delta * np.sin(big_omega * np.asarray(t)) ** 2

        def const(value):
            return lambda t: np.full_like(np.asarray(t, dtype=float), value)

        rates = PCRates(omega=omega, gamma_plus=const(v["gamma_plus"]),
                        gamma_minus=const(v["gamma_minus"]),
                        gamma_z=const(v["gamma_z"]))
        return pc_trajectory(rates, _grid(cfg))
    if cfg.model == "jaynes_cummings":
        traj, _ = jc_reduced_map(cfg.params, _grid(cfg))
        return traj, None
    try:
        return load_map_trajectory(cfg.map_path), None
    except ConstructionError as exc:
        raise ConfigError(f"map file {cfg.map_path}: {exc}")


def _write(out_dir: str, name: str, lines: list[str],
           written: list[str]) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(path)


def _distribution_label(t: float) -> str:
    return format(t, ".6g")


def run_scenario(cfg: ScenarioConfig) -> list[str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    written: list[str] = []
    if cfg.model == "closed_coherent":
        _run_coherent(cfg, written)
    else:
        _run_map_model(cfg, written)
    _write_manifest(cfg, written)
    return written


def _run_map_model(cfg: ScenarioConfig, written: list[str]) -> None:
    traj, coeffs = _build_trajectory(cfg)
    pipe = ThermoPipeline(traj, cond_threshold=cfg.tolerances.cond_threshold)

    if "lambda" in cfg.series:
        lines = [FluctuationReport.CSV_HEADER]
        for beta in cfg.beta_list:
            table = fluctuation_table(pipe, beta)
            table.check_invariants(cfg.tolerances.invariant_tol)
            lines.extend(table.csv_rows())
        _write(cfg.out_dir, "lambda_series.csv", lines, written)

    if "invertibility" in cfg.series:
        lines = ["t,condition_number,flag"]
        for row in invertibility_report(traj, cfg.tolerances.cond_threshold):
            lines.append(f"{_fmt(row.time)},{_fmt(row.condition_number)},"
                         f"{row.flag}")
        _write(cfg.out_dir, "invertibility.csv", lines, written)

    if "pc_coefficients" in cfg.series and coeffs is not None:
        lines = ["t,a,b,c,d_par,d_perp,I,J"]
        for i in range(coeffs.times.size):
            cells = (coeffs.times[i], coeffs.a[i], coeffs.b[i], coeffs.c[i],
                     coeffs.d_par[i], coeffs.d_perp[i], coeffs.I[i],
                     coeffs.J[i])
            lines.append(",".join(_fmt(v) for v in cells))
        _write(cfg.out_dir, "pc_coefficients.csv", lines, written)

    if cfg.distribution_times:
        work, _ = pipe.work_heat_observables()
        K0 = pipe.effective_hamiltonian_series()[0]
        for t_req in cfg.distribution_times:
            i = int(np.argmin(np.abs(traj.times - t_req)))
            lines = ["beta,outcome,probability"]
            for beta in cfg.beta_list:
                rho_g = gibbs_state(K0, beta)
                dist = tpms_distribution(rho_g, traj.maps[i], work[0], work[i])
                for outcome, prob in zip(dist.outcomes, dist.probs):
                    lines.append(f"{_fmt(beta)},{_fmt(outcome)},{_fmt(prob)}")
            label = _distribution_label(float(traj.times[i]))
            _write(cfg.out_dir, f"distribution_t{label}.csv", lines, written)


def _run_coherent(cfg: ScenarioConfig, written: list[str]) -> None:
    times = _grid(cfg)
    rho0, hams, unitaries = closed_coherent_protocol(cfg.params, times)
    data = coherent_initial_construction(rho0, hams[0])
    e0 = hams[0].expectation(rho0)
    lines = ["t,beta,exp_avg_w,golden_thompson_bound,jarzynski_factor,"
             "chain_bound,delta_F_bar,lambda_min_xi,mean_w"]
    for i in range(times.size):
        res = coherent_work_fluctuation(data, unitaries[i], hams[i])
        rho_t = unitaries[i] @ rho0.matrix @ unitaries[i].conj().T
        mean_w = float(np.trace(hams[i].matrix @ rho_t).real) - e0
        cells = (times[i], res.beta, res.value, res.golden_thompson_bound,
                 res.jarzynski_factor, res.final_bound, res.delta_F_bar,
                 res.lambda_min_xi, mean_w)
        lines.append(",".join(_fmt(v) for v in cells))
    _write(cfg.out_dir, "coherent_series.csv", lines, written)


def _write_manifest(cfg: ScenarioConfig, written: list[str]) -> None:
    lines = [
        "[manifest]",
        "format = mapthermo-run v1",
        f"version = {__version__}",
        # fixed internal tolerances, recorded for reproducibility
        f"cluster_tol = {_fmt(CLUSTER_TOL)}",
        f"hermitize_tol = {_fmt(HERMITIZE_TOL)}",
        f"negative_prob_tol = {_fmt(NEGATIVE_PROB_TOL)}",
        f"prob_sum_tol = {_fmt(PROB_SUM_TOL)}",
    ]
    for section in ("scenario", cfg.model, "tolerances"):
        if section not in cfg.entries:
            continue
        lines.append("")
        lines.append(f"[{section}]")
        for key, rendered, took_default in cfg.entries[section]:
            tag = "  ; default" if took_default else ""
            lines.append(f"{key} = {rendered}{tag}")
    _write(cfg.out_dir, "run_manifest.ini", lines, written)


# ---------------------------------------------------------------------------
# map-info

def _cmd_map_info(path: str) -> int:
    try:
        times, mats, derivs = read_map_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read map file: {exc}")
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    dim = int(round(math.sqrt(mats[0].shape[0])))
    print(f"map file: {path}")
    print(f"dim={dim} grid_points={times.size} "
          f"t_range=[{times[0]:.6g}, {times[-1]:.6g}] "
          f"derivatives={'yes' if derivs is not None else 'no'}")
    conds = []
    reports = []
    for m in mats:
        try:
            s = Superoperator(m)
        except ConstructionError as exc:
            reports.append(exc)
            conds.append(math.inf)
            continue
        reports.append(cptp_diagnostics(s))
        conds.append(condition_number(s))
    flags = condition_flags(np.array(conds))
    print("t,condition_number,flag,choi_min,tp_residual,unital_residual,"
          "hermiticity_residual")
    worst_choi, worst_tp = 0.0, 0.0
    n_bad = 0
    for t, c, flag, rep in zip(times, conds, flags, reports):
        if isinstance(rep, ConstructionError):
            n_bad += 1
            print(f"{t:.6g},{c:.6g},{flag},invalid: {rep}")
            continue
        worst_choi = min(worst_choi, rep.choi_min_eigenvalue)
        worst_tp = max(worst_tp, rep.trace_preserving_residual)
        print(f"{t:.6g},{c:.6g},{flag},{rep.choi_min_eigenvalue:.6g},"
              f"{rep.trace_preserving_residual:.6g},"
              f"{rep.unital_residual:.6g},{rep.hermiticity_residual:.6g}")
    n_sing = sum(f == "singular" for f in flags)
    n_spike = sum(f == "spike" for f in flags)
    print(f"summary: {n_sing} singular, {n_spike} spike-flagged, "
          f"{n_bad} invalid rows, worst choi_min={worst_choi:.6g}, "
          f"worst tp_residual={worst_tp:.6g}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapthermo",
        description="Work, heat and internal-energy fluctuation statistics "
                    "of driven open quantum systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="INI scenario file")
    p_val = sub.add_parser("validate", help="run built-in consistency checks")
    p_val.add_argument("--full", action="store_true",
                       help="include refinement studies and model oracles")
    p_info = sub.add_parser("map-info",
                            help="diagnose a stored map-trajectory file")
    p_info.add_argument("path", help="map file in the mapthermo-maps format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            for path in run_scenario(parse_config(args.config)):
                print(path)
            return 0
        if args.command == "validate":
            results = run_checks(full=args.full)
            print(format_report(results, args.full))
            return 0 if all(r.passed for r in results) else 1
        return _cmd_map_info(args.path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularMap, TruncationError, NoMatchingBeta,
            ConstructionError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
