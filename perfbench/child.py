"""One benchmark sample: a fresh interpreter that runs one workload once.

    python3 child.py <workload> <input_dir> <src_dir> run|trace

The current directory is the sample's directory; outputs go to ./out and
the timing record to ./result.json. Times are CLOCK_MONOTONIC readings
(time.monotonic), so the parent can subtract its own spawn time from
`t_ready` to get the set-up time from outside.

With "trace" the public calls into each layer are wrapped in spans. The
wrappers replace module attributes in this process only (names that `cli`,
`dynamics` and `observables` look up at call time, and two methods); the
library source is untouched. Untraced samples run exactly what a user runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
import tracemalloc


class Tracer:
    """In-memory spans: [name, start, end, parent index], written at exit."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p,
                 "workload": self.workload} for n, s, e, p in self.spans]


def _peak_mb(fn, *args, **kwargs):
    """Run fn under tracemalloc; returns (result, peak traced MB)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2 ** 20


# names `cli` looks up at call time -> span names (module of the callee)
_CLI_SPANS = (
    ("parse_config", "cli.parse_config"),
    ("run_scenario", "cli.run_scenario"),
    ("pc_trajectory", "phase_covariant.pc_trajectory"),
    ("load_map_trajectory", "dynamics.load_map_trajectory"),
    ("invertibility_report", "dynamics.invertibility_report"),
    ("fluctuation_report", "fluctuations.fluctuation_report"),
    ("tpms_distribution", "fluctuations.tpms_distribution"),
)


def _install_cli_tracing(tracer: Tracer, extra: dict) -> None:
    from mapthermo import cli, dynamics, observables
    from mapthermo.fluctuations import FluctuationReport

    for attr, name in _CLI_SPANS:
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    dynamics.read_map_file = tracer.wrap("dynamics.read_map_file",
                                         dynamics.read_map_file)
    observables.generator_splits = tracer.wrap(
        "dynamics.generator_splits", observables.generator_splits)
    observables.cumulative_simpson = tracer.wrap(
        "quadrature.cumulative_simpson", observables.cumulative_simpson)
    observables.ThermoPipeline.work_heat_observables = tracer.wrap(
        "observables.work_heat_observables",
        observables.ThermoPipeline.work_heat_observables)
    FluctuationReport.check_invariants = tracer.wrap(
        "fluctuations.check_invariants", FluctuationReport.check_invariants)

    pipeline_cls = observables.ThermoPipeline

    def pipeline(traj, **kwargs):
        with tracer.span("observables.pipeline_init"):
            pipe = pipeline_cls(traj, **kwargs)
        # force every back-propagation here, so the report spans hold L4 only
        with tracer.span("observables.path_operator_series"):
            pipe.path_operator_series()
        extra["traj"] = traj
        extra["pipeline_kwargs"] = kwargs
        return pipe

    cli.ThermoPipeline = pipeline


def _wc_closed_forms(tracer: Tracer, inputs: dict) -> None:
    """The closed-form oracle for the weak-coupling run, timed as one span."""
    import numpy as np
    from mapthermo.models import WeakCouplingParams, weak_coupling_rates
    from mapthermo.phase_covariant import (pc_dissipated_bound, pc_integrals,
                                           pc_lambda_u, pc_lambda_w,
                                           pc_mean_work_and_deltaF, pc_thermo)

    params = WeakCouplingParams(**inputs["params"])
    coeffs = pc_integrals(weak_coupling_rates(params),
                          np.linspace(0.0, params.default_t_f,
                                      inputs["n_steps"] + 1))
    with tracer.span("phase_covariant.closed_forms"):
        thermo = pc_thermo(coeffs)
        for beta in inputs["beta_list"]:
            pc_lambda_w(thermo, coeffs, beta)
            pc_lambda_u(coeffs, beta)
            pc_mean_work_and_deltaF(thermo, coeffs, beta)
            pc_dissipated_bound(thermo, coeffs, beta)


def _run_cli(workload: str, input_dir: str, tracer: Tracer | None,
             result: dict) -> None:
    from mapthermo import cli
    result["t_imported"] = time.monotonic()
    config = os.path.join(input_dir, "scenario.ini")
    cli.parse_config(config)
    result["t_ready"] = time.monotonic()
    extra: dict = {}
    if tracer is not None:
        _install_cli_tracing(tracer, extra)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", config])
    result["run_s"] = time.perf_counter() - start
    result["exit_code"] = code
    if tracer is None or code != 0:
        return
    # after the timed region: the oracle's cost, or one pipeline's memory
    if workload == "wc_cli":
        with open(os.path.join(input_dir, "inputs.json")) as fh:
            _wc_closed_forms(tracer, json.load(fh))
    else:
        from mapthermo.observables import ThermoPipeline
        n_spans = len(tracer.spans)
        _, result["pipeline_peak_mb"] = _peak_mb(
            ThermoPipeline, extra["traj"], **extra["pipeline_kwargs"])
        del tracer.spans[n_spans:]  # a rebuild for memory, not a second timing


def _run_exchange(input_dir: str, tracer: Tracer | None,
                  result: dict) -> None:
    import numpy as np
    from mapthermo.models import (JCParams, extract_pc_rates, jc_mode_count,
                                  jc_reduced_map)
    from mapthermo.phase_covariant import (pc_integrals, pc_lambda_u,
                                           pc_lambda_w, pc_thermo)
    result["t_imported"] = time.monotonic()
    with open(os.path.join(input_dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    params = JCParams(**inputs["jc"])
    beta_ref = inputs["beta_ref"]
    result["t_ready"] = time.monotonic()

    span = tracer.span if tracer is not None else (
        lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    times = np.linspace(0.0, inputs["t_f"], inputs["n_steps"] + 1)
    with span("models.jc_reduced_map"):
        traj, _ = jc_reduced_map(params, times)
    with span("models.extract_pc_rates"):
        extracted = extract_pc_rates(traj)
    with span("phase_covariant.pc_integrals"):
        coeffs = pc_integrals(extracted.as_rates(), traj.times)
    with span("phase_covariant.closed_forms"):
        thermo = pc_thermo(coeffs)
        lam, bound = pc_lambda_w(thermo, coeffs, beta_ref)
        lam_u = pc_lambda_u(coeffs, beta_ref)
    os.makedirs("out", exist_ok=True)
    with open(os.path.join("out", "exchange_hot.csv"), "w", newline="\n") as fh:
        fh.write("t,lambda_w,lambda_w_bound,lambda_u\n")
        for row in zip(traj.times, lam, bound, lam_u):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    result["run_s"] = time.perf_counter() - start
    result["exit_code"] = 0
    result["generator_residual"] = extracted.generator_residual
    result["jc_levels"] = jc_mode_count(params) + 1
    if tracer is not None:
        # tracemalloc slows the level sum by about a third: measure apart
        _, result["jc_reduced_map_peak_mb"] = _peak_mb(jc_reduced_map,
                                                       params, times)


def main() -> int:
    workload, input_dir, src_dir, mode = sys.argv[1:5]
    sys.path.insert(0, src_dir)
    result: dict = {"t_start": time.monotonic()}
    tracer = Tracer(workload) if mode == "trace" else None
    if workload == "exchange_hot":
        _run_exchange(input_dir, tracer, result)
    else:
        _run_cli(workload, input_dir, tracer, result)
    import mapthermo
    result["package_file"] = os.path.abspath(mapthermo.__file__)
    if tracer is not None:
        result["spans"] = tracer.records()
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
