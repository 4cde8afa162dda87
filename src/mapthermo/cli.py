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

import configparser
import importlib
import math
import os
import sys
from functools import cache

import numpy as np

from . import __version__
from .errors import (ConfigError, ConstructionError, NoMatchingBeta,
                     SingularMap, TruncationError)
from .operators import COND_THRESHOLD_DEFAULT, dagger
from .csvout import csv_bytes
from .quadrature import grid_fault
from .observables import ThermoPipeline
from .records import fields, record
from .trajectory import condition_flags, invertibility_report, map_faults
# fluctuation_report is unused here but stays a module attribute: the traced
# benchmark run (perfbench/child.py) wraps it by name.
from .fluctuations import (CLUSTER_TOL, NEGATIVE_PROB_TOL, PROB_SUM_TOL,
                           FluctuationTable,
                           fluctuation_report,  # noqa: F401
                           fluctuation_tables, tpms_distribution)
# Each model's modules load with the config that names it (`_params_class`,
# `_map_path`), and `dynamics`, the map-file format, with map-info too.

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


def _number(raw: str) -> float:
    """float(raw), refusing NaN, which every comparison check lets pass;
    inf stays for the checks of its key (`_SectionReader.read`)."""
    x = float(raw)
    if math.isnan(x):
        raise ValueError(raw)
    return x


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_number(x) for x in raw.split(",") if x.strip())


# value kind -> (parse, render, what the value must be); a key's kind is the
# type of its default. A None default is JCParams.n_max, spelled "auto".
_KINDS = {
    str: (str, str, None),
    float: (_number, _fmt, "a number"),
    int: (int, str, "an integer"),
    tuple: (_float_list, lambda v: ", ".join(map(_fmt, v)),
            "comma-separated numbers"),
    type(None): (lambda raw: None if raw == "auto" else int(raw),
                 lambda v: "auto" if v is None else str(v),
                 "an integer or 'auto'"),
}


@record
class Tolerances:
    """The optional [tolerances] section."""

    cond_threshold: float = COND_THRESHOLD_DEFAULT
    invariant_tol: float = 1e-9

    def __post_init__(self):
        if not (1.0 <= self.cond_threshold < math.inf):
            raise ValueError("cond_threshold must be a finite number >= 1")
        if not (0.0 < self.invariant_tol < math.inf):
            raise ValueError("invariant_tol must be a finite number > 0")


@record
class ScenarioConfig:
    path: str  # the config file it was parsed from
    model: str
    params: object
    t_max: float | None
    n_steps: int
    beta_list: tuple[float, ...]
    out_dir: str
    series: tuple[str, ...]
    distribution_times: tuple[float, ...]
    tolerances: Tolerances
    map_path: str | None
    # (key, rendered value, took_default) per section, in manifest order
    entries: dict[str, list[tuple[str, str, bool]]]


class _SectionReader:
    """Typed key access with consumed-key tracking and manifest recording."""

    def __init__(self, cp: configparser.ConfigParser, section: str,
                 cfg_entries: dict, path: str):
        self.cp = cp
        self.section = section
        self.path = path
        self.seen: set[str] = set()
        self.entries = cfg_entries.setdefault(section, [])

    def _fail(self, key: str, msg: str):
        raise ConfigError(f"{self.path}: [{self.section}] {key}: {msg}")

    def get(self, key: str, default=_REQUIRED, kind: type | None = None,
            choices: tuple[str, ...] | None = None):
        """The value of `key` parsed as `kind` (by default the type of
        `default`; see _KINDS), or `default` when the key is missing, which
        is an error when no default is given. Records the manifest entry."""
        parse, render, what = _KINDS[kind or type(default)]
        if not self.cp.has_option(self.section, key):
            if default is _REQUIRED:
                self._fail(key, "required key is missing")
            value, took_default = default, True
        else:
            self.seen.add(key)
            raw = self.cp.get(self.section, key).strip()
            try:
                value, took_default = parse(raw), False
            except ValueError:
                self._fail(key, f"cannot parse {raw!r} as {what}")
        if choices is not None and value not in choices:
            self._fail(key, f"must be one of {', '.join(choices)} "
                            f"(got {value!r})")
        self.entries.append((key, render(value), took_default))
        return value

    def forbid(self, key: str, why: str):
        if self.cp.has_option(self.section, key):
            self._fail(key, why)

    def finish(self):
        # a missing section has no options, so every key took its default
        if self.cp.has_section(self.section):
            extra = set(self.cp.options(self.section)) - self.seen
            if extra:
                self._fail(sorted(extra)[0], "unknown key")

    def read(self, cls):
        """An instance of the record `cls` with each field read as a key
        of this section, the field's default as the key's default. A float
        field takes an infinite value only where inf is its default, as for
        [jaynes_cummings] beta, where it selects the vacuum."""
        values = {f.name: self.get(f.name, f.default) for f in fields(cls)}
        for f in fields(cls):
            value = values[f.name]
            if (isinstance(value, float) and math.isinf(value)
                    and f.default != math.inf):
                self._fail(f.name, f"must be finite (got {value})")
        try:
            params = cls(**values)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{self.path}: [{self.section}]: {exc}")
        self.finish()
        return params


# per model but custom_map_file: its parameter record in `params` (fields
# are the section's keys, defaults the keys' defaults) and its builder module
_PARAMS = {"weak_coupling": ("WeakCouplingParams", "phase_covariant"),
           "jaynes_cummings": ("JCParams", "models"),
           "custom_pc": ("CustomPCParams", "phase_covariant"),
           "closed_coherent": ("ClosedCoherentParams", "coherent")}


def _params_class(model: str) -> type:
    """The parameter record of `model`, its builder imported now, so that
    the model's code compiles before a run starts."""
    from . import params
    name, builder = _PARAMS[model]
    importlib.import_module(f".{builder}", __package__)
    return getattr(params, name)


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
    model = scen.get("model", kind=str, choices=MODELS)

    known = {"scenario", model, "tolerances", "manifest"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"{path}: unexpected section [{section}] "
                              f"for model {model}")
    if not cp.has_section(model):
        raise ConfigError(f"{path}: missing [{model}] section")
    reader = _SectionReader(cp, model, entries, path)
    if model == "custom_map_file":
        params, map_path = None, _map_path(reader)
    else:
        params, map_path = reader.read(_params_class(model)), None

    out_dir = scen.get("out_dir", "out")
    if model == "closed_coherent":
        scen.forbid("beta_list",
                    "closed_coherent derives beta from the initial state")
        beta_list = ()
    else:
        beta_list = scen.get("beta_list", kind=tuple)
        if not beta_list:
            raise ConfigError(f"{path}: [scenario] beta_list: empty list")
        if not all(0 < b < math.inf for b in beta_list):
            raise ConfigError(f"{path}: [scenario] beta_list: inverse "
                              "temperatures must be positive and finite")
        repeated = sorted({b for b in beta_list if beta_list.count(b) > 1})
        if repeated:
            raise ConfigError(f"{path}: [scenario] beta_list: "
                              f"{', '.join(map(_fmt, repeated))} listed more "
                              "than once")

    if model == "custom_map_file":
        scen.forbid("t_max", "the grid comes from the map file")
        scen.forbid("n_steps", "the grid comes from the map file")
        t_max, n_steps = None, 0
    else:
        t_max = scen.get("t_max", getattr(params, "default_t_f", _REQUIRED),
                         kind=float)
        if not 0 < t_max < math.inf:
            raise ConfigError(f"{path}: [scenario] t_max: must be positive "
                              "and finite")
        n_steps = scen.get("n_steps", 1000)
        if n_steps < 16:
            raise ConfigError(f"{path}: [scenario] n_steps: must be >= 16")

    allowed = _SERIES_BY_MODEL[model]
    raw_series = scen.get("series", ", ".join(allowed))
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
        dist_times = scen.get("distribution_times", ())
    scen.finish()

    tolerances = _SectionReader(cp, "tolerances", entries, path).read(
        Tolerances)

    return ScenarioConfig(path=path, model=model, params=params, t_max=t_max,
                          n_steps=n_steps, beta_list=beta_list,
                          out_dir=out_dir, series=series,
                          distribution_times=dist_times,
                          tolerances=tolerances, map_path=map_path,
                          entries=entries)


def _map_path(reader: _SectionReader) -> str:
    """The [custom_map_file] path, relative to the config's directory; the
    map-file format is imported now, as `_params_class` imports a model."""
    from . import dynamics  # noqa: F401
    rel = reader.get("path", kind=str)
    reader.finish()
    # an absolute rel replaces the directory
    map_path = os.path.join(os.path.dirname(os.path.abspath(reader.path)), rel)
    if not os.path.exists(map_path):
        raise ConfigError(f"{reader.path}: [custom_map_file] path: "
                          f"{map_path} does not exist")
    return map_path


# ---------------------------------------------------------------------------
# scenario execution

def _grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_steps + 1)


# pc_trajectory and load_map_trajectory stay module attributes: the traced
# benchmark run (perfbench/child.py) wraps them by name. Their modules load
# on the first call, which `parse_config` has already made for its model.
def pc_trajectory(rates, times: np.ndarray):
    from .phase_covariant import pc_trajectory as build
    return build(rates, times)


def load_map_trajectory(path: str):
    from .dynamics import load_map_trajectory as load
    return load(path)


def _build_trajectory(cfg: ScenarioConfig):
    """Returns (trajectory, pc coefficients or None)."""
    if cfg.model == "custom_map_file":
        try:
            return load_map_trajectory(cfg.map_path), None
        except (ConstructionError, OSError) as exc:  # each names the map file
            raise ConfigError(f"{exc} ([custom_map_file] path of {cfg.path})")
    if cfg.model == "jaynes_cummings":
        from .models import jc_reduced_map  # loaded by parse_config
        return jc_reduced_map(cfg.params, _grid(cfg))[0], None
    from .params import custom_pc_rates, weak_coupling_rates
    rates = (weak_coupling_rates if cfg.model == "weak_coupling"
             else custom_pc_rates)
    return pc_trajectory(rates(cfg.params), _grid(cfg))


def _out_dir_error(cfg: ScenarioConfig, what: str,
                   exc: OSError) -> ConfigError:
    return ConfigError(f"{cfg.path}: [scenario] out_dir: cannot {what}: "
                       f"{exc.strerror or exc}")


def _write(cfg: ScenarioConfig, name: str, data, written: list[str]) -> None:
    """Write `data` to out_dir/name: bytes (a CSV buffer) as they are, text
    (the manifest) as `parse_config` reads it, in the locale's encoding."""
    path = os.path.join(cfg.out_dir, name)
    try:
        with (open(path, "w", newline="\n") if isinstance(data, str)
              else open(path, "wb")) as fh:
            fh.write(data)
    except OSError as exc:
        raise _out_dir_error(cfg, f"write {path}", exc)
    written.append(path)


def run_scenario(cfg: ScenarioConfig) -> list[str]:
    try:  # before the trajectory is built
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise _out_dir_error(cfg, f"create the directory {cfg.out_dir}",
                             exc)
    written: list[str] = []
    if cfg.model == "closed_coherent":
        _run_coherent(cfg, written)
    else:
        _run_map_model(cfg, written)
    _write_manifest(cfg, written)
    return written


def _distribution_file(t: float) -> str:
    """The file of the distributions at grid time t, labelled to 6 digits."""
    return f"distribution_t{format(float(t), '.6g')}.csv"


def _distribution_indices(cfg: ScenarioConfig, times: np.ndarray) -> list[int]:
    """The grid index nearest each requested distribution time. A request
    more than half a grid step outside the grid, or two requests that would
    write one file (they snap to one grid time, or to two with one 6-digit
    label), is a ConfigError."""
    if not cfg.distribution_times:
        return []
    where = f"{cfg.path}: [scenario] distribution_times"
    grid = f"the grid [{_fmt(times[0])}, {_fmt(times[-1])}]" + (
        f" of map file {cfg.map_path}" if cfg.map_path else "")
    requests = np.asarray(cfg.distribution_times)
    lo = times[0] - 0.5 * (times[1] - times[0])
    hi = times[-1] + 0.5 * (times[-1] - times[-2])
    outside = requests[~((requests >= lo) & (requests <= hi))]
    if outside.size:
        raise ConfigError(f"{where}: {', '.join(map(_fmt, outside))}: more than "
                          f"half a step outside {grid}")
    indices = np.argmin(np.abs(times[:, None] - requests), axis=0)
    files = np.array([_distribution_file(t) for t in times[indices]])
    for name in files:
        same = files == name
        if same.sum() > 1:
            rows = np.unique(times[indices[same]])
            picks = (f"all select grid time {_fmt(rows[0])} of {grid}"
                     if rows.size == 1 else
                     f"select grid times {', '.join(map(_fmt, rows))} of "
                     f"{grid}, which share the file {name}")
            raise ConfigError(
                f"{where}: {', '.join(map(_fmt, requests[same]))} {picks}")
    return indices.tolist()


def _run_map_model(cfg: ScenarioConfig, written: list[str]) -> None:
    traj, coeffs = _build_trajectory(cfg)
    dist_indices = _distribution_indices(cfg, traj.times)
    pipe = ThermoPipeline(traj, cond_threshold=cfg.tolerances.cond_threshold)

    if "lambda" in cfg.series:
        tables = fluctuation_tables(pipe, cfg.beta_list)
        for table in tables:
            table.check_invariants(cfg.tolerances.invariant_tol)
        columns = zip(*(table.csv_columns() for table in tables))
        _write(cfg, "lambda_series.csv", csv_bytes(
            map(np.concatenate, columns),
            FluctuationTable.CSV_HEADER.encode()), written)

    if "invertibility" in cfg.series:
        conds, flags = invertibility_report(traj,
                                            cfg.tolerances.cond_threshold)
        _write(cfg, "invertibility.csv", csv_bytes(
            [traj.times, conds], b"t,condition_number,flag", flags), written)

    if "pc_coefficients" in cfg.series and coeffs is not None:
        _write(cfg, "pc_coefficients.csv", csv_bytes(
            [coeffs.times, coeffs.a, coeffs.b, coeffs.c, coeffs.d_par,
             coeffs.d_perp, coeffs.I, coeffs.J], b"t,a,b,c,d_par,d_perp,I,J"),
            written)

    if dist_indices:
        work, _ = pipe.work_heat_observables()
        first = work[0]
        for i in dist_indices:
            dists = tpms_distribution(cfg.beta_list, traj.maps[i], first,
                                      work[i])
            _write(cfg, _distribution_file(traj.times[i]), csv_bytes(
                [np.repeat(cfg.beta_list, [d.outcomes.size for d in dists]),
                 np.concatenate([d.outcomes for d in dists]),
                 np.concatenate([d.probs for d in dists])],
                b"beta,outcome,probability"), written)


def _run_coherent(cfg: ScenarioConfig, written: list[str]) -> None:
    from . import coherent  # loaded by parse_config
    times = _grid(cfg)
    rho0, hams, unitaries = coherent.closed_coherent_protocol(cfg.params,
                                                              times)
    data = coherent.coherent_initial_construction(rho0, hams[0])
    res = coherent.coherent_work_fluctuation(data, unitaries, hams, times)
    rho_t = unitaries @ rho0 @ dagger(unitaries)
    mean_w = (np.trace(hams @ rho_t, axis1=-2, axis2=-1).real
              - np.trace(hams[0] @ rho0).real)
    _write(cfg, "coherent_series.csv", csv_bytes(
        [times, np.full(times.shape, res.beta), res.value,
         res.golden_thompson_bound, res.jarzynski_factor, res.final_bound,
         res.delta_F_bar, np.full(times.shape, res.lambda_min_xi), mean_w],
        b"t,beta,exp_avg_w,golden_thompson_bound,jarzynski_factor,"
        b"chain_bound,delta_F_bar,lambda_min_xi,mean_w"), written)


def _write_manifest(cfg: ScenarioConfig, written: list[str]) -> None:
    lines = [
        "[manifest]",
        "format = mapthermo-run v1",
        f"version = {__version__}",
        # fixed internal tolerances, recorded for reproducibility
        f"cluster_tol = {_fmt(CLUSTER_TOL)}",
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
    _write(cfg, "run_manifest.ini", "\n".join(lines) + "\n", written)


# ---------------------------------------------------------------------------
# map-info

def _cmd_map_info(path: str) -> int:
    from . import dynamics
    try:
        times, mats, derivs = dynamics.read_map_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read map file: {exc}")
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    dim = math.isqrt(mats.shape[-1])
    fault = (grid_fault(times) if times[0] == 0.0
             else (0, f"starts at {times[0]:.6g}, not 0"))
    grid = ("uniform from 0" if fault is None
            else f"line {dynamics.data_row_line(path, fault[0])}: {fault[1]}")
    print(f"map file: {path}")
    print(f"dim={dim} grid_points={times.size} "
          f"t_range=[{times[0]:.6g}, {times[-1]:.6g}] "
          f"derivatives={'yes' if derivs is not None else 'no'} grid={grid}")
    stack = dynamics.basis_maps(mats, dynamical=True)
    faults = map_faults(stack, times)   # the construction check's messages
    invalid = np.isin(np.arange(times.size), list(faults))
    conds = np.linalg.cond(stack.real)
    conds[invalid] = math.inf
    flags = condition_flags(conds)
    rep = dynamics.cptp_diagnostics_stack(mats)
    print("t,condition_number,flag,choi_min,tp_residual,unital_residual,"
          "hermiticity_residual")
    for k, (t, c, flag) in enumerate(zip(times, conds, flags)):
        if invalid[k]:
            print(f"{t:.6g},{c:.6g},{flag},invalid: {faults[k]}")
            continue
        print(f"{t:.6g},{c:.6g},{flag},{rep.choi_min_eigenvalue[k]:.6g},"
              f"{rep.trace_preserving_residual[k]:.6g},"
              f"{rep.unital_residual[k]:.6g},"
              f"{rep.hermiticity_residual[k]:.6g}")
    valid = ~invalid
    worst_choi = float(rep.choi_min_eigenvalue[valid].min(initial=0.0))
    worst_tp = float(rep.trace_preserving_residual[valid].max(initial=0.0))
    n_bad = int(invalid.sum())
    n_sing = sum(f == "singular" for f in flags)
    n_spike = sum(f == "spike" for f in flags)
    print(f"summary: {n_sing} singular, {n_spike} spike-flagged, "
          f"{n_bad} invalid rows, worst choi_min={worst_choi:.6g}, "
          f"worst tp_residual={worst_tp:.6g}")
    return 0


# ---------------------------------------------------------------------------

@cache   # one per process: a second `main` call reuses it
def _build_parser():
    import argparse
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


def _command(argv: list[str]) -> tuple[str, str | bool]:
    """The command of argv and its argument: the config or map file, or
    validate's --full. `run CONFIG` and `map-info PATH` (the argument not
    starting with "-"), `validate` and `validate --full` are read here as
    argparse reads them; every other argv goes to argparse, which alone
    prints help, usage and errors (exit 2)."""
    match argv:
        case ["run" | "map-info" as command, arg] if not arg.startswith("-"):
            return command, arg
        case ["validate"]:
            return "validate", False
        case ["validate", "--full"]:
            return "validate", True
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return args.command, args.full
    return args.command, args.config if args.command == "run" else args.path


def main(argv: list[str] | None = None) -> int:
    command, arg = _command(sys.argv[1:] if argv is None else argv)
    try:
        if command == "run":
            for path in run_scenario(parse_config(arg)):
                print(path)
            code = 0
        elif command == "validate":
            # scipy and the suite load only here, so run and map-info skip them
            from .validation import format_report, run_checks
            results = run_checks(full=arg)
            print(format_report(results, arg))
            code = 0 if all(r.passed for r in results) else 1
        else:
            code = _cmd_map_info(arg)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left (`| head`): devnull takes the interpreter's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # arrays that numpy cannot allocate
        if command != "run":
            raise
        print(f"config error: {arg}: the run does not fit in memory: "
              f"{exc}", file=sys.stderr)
        return 2
    except (SingularMap, TruncationError, NoMatchingBeta,
            ConstructionError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
