"""Benchmark of `mapthermo run` and the exchange-window route.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out FILE]

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. Each sample is a fresh child process
(perfbench/child.py), started only after the previous one exits: a closed
loop with one client, one scenario per process, as users run the CLI.
Samples repeat while the next one is expected to end within --seconds (per
workload), at least three per workload, with calibrate() timed before the
first and after each one; timed end-to-end metrics are in reference seconds
(see CAL_REF_S). Every sample's outputs are checked; a failed check counts
as a failed sample and makes the exit code 1.

--trace 0 prints the end-to-end metrics. With one --workload, as a benchmark
runner calls it, they are named as in BENCHMARK.json (`run_s`); with the
default `all`, they carry the workload as a prefix (`wc_cli.run_s`).
--trace 1 runs three untraced and one traced sample of every workload and
prints the per-layer metrics, named <workload>.<module>.<metric>.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK_ROOT = ROOT / ".perfbench_tmp"

MIN_SAMPLES = 3
TRACE_UNTRACED = 3  # untraced samples per workload that the trace is set against
CHILD_TIMEOUT_S = 120.0
# Time of calibrate() on the reference host (README.md) when it is quiet.
# Timed end-to-end metrics are in reference seconds: wall seconds times
# CAL_REF_S over the mean time of calibrate() just before and just after the
# sample, all on one CPU, so the drift of the host's speed that the sample and
# the kernel share divides out.
CAL_REF_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("rows_per_s", "rows/s"),
              ("peak_rss_mb", "MB"))

# (workload, metric, unit); the --trace 1 output, in this order
PER_LAYER = (
    ("wc_cli", "cli.import_s", "s"),
    ("wc_cli", "cli.parse_config_s", "s"),
    ("wc_cli", "cli.run_scenario_s", "s"),
    ("wc_cli", "cli.unattributed_s", "s"),
    ("wc_cli", "cli.bytes_written", "bytes"),
    ("wc_cli", "phase_covariant.pc_trajectory_s", "s"),
    ("wc_cli", "phase_covariant.closed_forms_s", "s"),
    ("wc_cli", "dynamics.generator_splits_s", "s"),
    ("wc_cli", "dynamics.invertibility_report_s", "s"),
    ("wc_cli", "dynamics.grid_points", "count"),
    ("wc_cli", "dynamics.map_dim", "count"),
    ("wc_cli", "dynamics.trajectory_bytes_computed", "bytes"),
    ("wc_cli", "observables.pipeline_init_s", "s"),
    ("wc_cli", "observables.pipeline_self_s", "s"),
    ("wc_cli", "observables.path_operator_series_s", "s"),
    ("wc_cli", "observables.work_heat_observables_s", "s"),
    ("wc_cli", "fluctuations.tpms_distribution_s", "s"),
    ("wc_cli", "fluctuations.fluctuation_report_s", "s"),
    ("wc_cli", "fluctuations.report_us_per_row", "us"),
    ("wc_cli", "fluctuations.report_rows", "count"),
    ("wc_cli", "quadrature.cumulative_simpson_s", "s"),
    ("wc_cli", "ratio.generic_over_closed", "ratio"),
    ("wc_cli", "trace_overhead_s", "s"),
    ("gksl_file", "cli.import_s", "s"),
    ("gksl_file", "cli.parse_config_s", "s"),
    ("gksl_file", "cli.run_scenario_s", "s"),
    ("gksl_file", "cli.unattributed_s", "s"),
    ("gksl_file", "cli.bytes_written", "bytes"),
    ("gksl_file", "dynamics.save_map_trajectory_s", "s"),
    ("gksl_file", "dynamics.read_map_file_s", "s"),
    ("gksl_file", "dynamics.trajectory_validate_s", "s"),
    ("gksl_file", "dynamics.generator_splits_s", "s"),
    ("gksl_file", "dynamics.invertibility_report_s", "s"),
    ("gksl_file", "dynamics.grid_points", "count"),
    ("gksl_file", "dynamics.map_dim", "count"),
    ("gksl_file", "dynamics.map_file_bytes", "bytes"),
    ("gksl_file", "dynamics.trajectory_bytes_computed", "bytes"),
    ("gksl_file", "observables.pipeline_init_s", "s"),
    ("gksl_file", "observables.pipeline_self_s", "s"),
    ("gksl_file", "observables.path_operator_series_s", "s"),
    ("gksl_file", "observables.pipeline_peak_mb", "MB"),
    ("gksl_file", "fluctuations.fluctuation_report_s", "s"),
    ("gksl_file", "fluctuations.report_us_per_row", "us"),
    ("gksl_file", "fluctuations.report_rows", "count"),
    ("gksl_file", "quadrature.cumulative_simpson_s", "s"),
    ("gksl_file", "trace_overhead_s", "s"),
    ("exchange_hot", "cli.import_s", "s"),
    ("exchange_hot", "models.jc_reduced_map_s", "s"),
    ("exchange_hot", "models.jc_levels", "count"),
    ("exchange_hot", "models.jc_reduced_map_peak_mb", "MB"),
    ("exchange_hot", "models.extract_pc_rates_s", "s"),
    ("exchange_hot", "phase_covariant.pc_integrals_s", "s"),
    ("exchange_hot", "phase_covariant.closed_forms_s", "s"),
    ("exchange_hot", "trace_overhead_s", "s"),
)


def machine(seed: int, child_env: dict) -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor(),
            "caches": {}, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: child_env.get(k) for k in THREAD_VARS},
            "git_commit": "unknown", "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def calibrate() -> float:
    """Wall time of a fixed kernel in this process: a pure-Python loop, small
    dense eigensolves and vectorised transcendentals, the kinds of work the
    workloads spend their time in. No package code runs in it."""
    import numpy as np

    a = np.arange(36.0).reshape(6, 6)
    a = a + a.T
    v = np.linspace(0.0, 50.0, 200_000)
    start = time.perf_counter()
    x = 0
    for j in range(4_000_000):
        x += j * j
    for _ in range(5_000):
        np.linalg.eigh(a)
    for _ in range(25):
        np.exp(-1j * v)
        np.cos(v)
    return time.perf_counter() - start


def _digest(out_dir: Path) -> tuple[str, int]:
    """(sha256 over every output file's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            total += len(data)
            h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def run_sample(prep, sample_dir: Path, env: dict, mode: str) -> dict:
    """Run one child (mode run or trace) to completion and check its
    outputs."""
    sample_dir.mkdir(parents=True)
    cmd = [sys.executable, str(CHILD), prep.name, prep.input_dir, str(SRC),
           mode]
    with open(sample_dir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=sample_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        t_exit = time.monotonic()
    sample = {"mode": mode, "exit_code": proc.returncode,
              "wall_s": t_exit - t_spawn,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    result_path = sample_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    if proc.returncode != 0 or "run_s" not in result:
        tail = (sample_dir / "child.log").read_text(errors="replace")[-400:]
        sample["problems"].append(
            f"exit code {proc.returncode}: {tail.strip()}")
    else:
        package = result.get("package_file", "")
        if not package.startswith(str(SRC) + os.sep):
            sample["problems"].append(f"imported mapthermo from {package}")
        sample["setup_s"] = result["t_ready"] - t_spawn
        sample["import_s"] = result["t_imported"] - result["t_start"]
        sample["run_s"] = result["run_s"]
        sample["problems"] += prep.check(str(sample_dir / "out"), result)
    sample["digest"], sample["bytes_written"] = _digest(sample_dir / "out")
    sample["result"] = result
    shutil.rmtree(sample_dir)
    return sample


def _check_identical(samples: list[dict]) -> None:
    """Byte-identical outputs across the samples of one workload."""
    for s in samples[1:]:
        if s["digest"] != samples[0]["digest"]:
            s["problems"].append("outputs differ from the first sample's")


def _stats(values: list[float]) -> dict:
    q1, q3 = ((values[0], values[0]) if len(values) < 2
              else statistics.quantiles(values, n=4)[::2])
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(prep, samples: list[dict]) -> dict:
    """End-to-end metrics of one workload from its untraced samples. Times
    are in reference seconds: each sample's wall times times its `scale`;
    the wall-time medians are kept beside them."""
    timed = [s for s in samples if "run_s" in s]
    out = {"attempted": len(samples),
           "failed": sum(bool(s["problems"]) for s in samples),
           "rows": prep.rows, "metrics": {}}
    out["error_rate"] = out["failed"] / out["attempted"]
    if not timed:
        return out
    for key in ("setup_s", "run_s"):
        out["metrics"][key] = _stats([s[key] * s["scale"] for s in timed])
        out["metrics"][key]["wall_median"] = statistics.median(
            s[key] for s in timed)
    out["metrics"]["peak_rss_mb"] = _stats([s["peak_rss_mb"] for s in timed])
    n = len(timed)
    # a tail percentile only when at least ten samples lie beyond it
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles([s["run_s"] * s["scale"]
                                        for s in timed], n=100)
            out["metrics"]["run_s"][f"p{p}"] = cut[p - 1]
            break
    out["metrics"]["rows_per_s"] = {
        "median": prep.rows / out["metrics"]["run_s"]["median"], "n": n}
    return out


def _span_stats(spans: list[dict]) -> tuple[dict, dict]:
    """Total duration per span name, and count per span name."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        count[s["name"]] = count.get(s["name"], 0) + 1
    return total, count


def _children_total(spans: list[dict], parent_name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["parent"] is not None
               and spans[s["parent"]]["name"] == parent_name)


def layer_metrics(prep, untraced: list[dict], traced: dict) -> dict:
    """Per-layer metrics of one workload from its traced sample; the tracing
    overhead against the median of its untraced samples."""
    res = traced["result"]
    spans = res.get("spans", [])
    tot, cnt = _span_stats(spans)

    def span_s(name: str) -> float:
        return tot.get(name, 0.0)

    m = dict(prep.layer)
    m["cli.import_s"] = traced.get("import_s", 0.0)
    m["trace_overhead_s"] = traced.get("run_s", 0.0) - statistics.median(
        s.get("run_s", 0.0) for s in untraced)
    if prep.name == "exchange_hot":
        m["models.jc_reduced_map_s"] = span_s("models.jc_reduced_map")
        m["models.jc_levels"] = res.get("jc_levels", 0)
        m["models.jc_reduced_map_peak_mb"] = res.get("jc_reduced_map_peak_mb",
                                                     0.0)
        m["models.extract_pc_rates_s"] = span_s("models.extract_pc_rates")
        m["phase_covariant.pc_integrals_s"] = span_s(
            "phase_covariant.pc_integrals")
        m["phase_covariant.closed_forms_s"] = span_s(
            "phase_covariant.closed_forms")
        return m
    m["cli.parse_config_s"] = span_s("cli.parse_config")
    m["cli.run_scenario_s"] = span_s("cli.run_scenario")
    m["cli.unattributed_s"] = (span_s("cli.run_scenario")
                               - _children_total(spans, "cli.run_scenario"))
    m["cli.bytes_written"] = traced["bytes_written"]
    for name in ("phase_covariant.pc_trajectory", "dynamics.read_map_file",
                 "dynamics.generator_splits", "dynamics.invertibility_report",
                 "observables.pipeline_init",
                 "observables.path_operator_series",
                 "observables.work_heat_observables",
                 "fluctuations.tpms_distribution",
                 "quadrature.cumulative_simpson",
                 "phase_covariant.closed_forms"):
        m[name + "_s"] = span_s(name)
    m["dynamics.trajectory_validate_s"] = (
        span_s("dynamics.load_map_trajectory") - span_s("dynamics.read_map_file"))
    m["observables.pipeline_self_s"] = (
        span_s("observables.pipeline_init") - span_s("dynamics.generator_splits"))
    report_s = (span_s("fluctuations.fluctuation_report")
                + span_s("fluctuations.check_invariants"))
    rows = cnt.get("fluctuations.fluctuation_report", 0)
    m["fluctuations.fluctuation_report_s"] = report_s
    m["fluctuations.report_rows"] = rows
    m["fluctuations.report_us_per_row"] = 1e6 * report_s / max(rows, 1)
    m["observables.pipeline_peak_mb"] = res.get("pipeline_peak_mb", 0.0)
    closed = span_s("phase_covariant.closed_forms")
    m["ratio.generic_over_closed"] = (
        (m["observables.pipeline_init_s"] + report_s) / closed
        if closed > 0 else 0.0)
    return m


def _print_e2e(name: str, summary: dict, seed: int) -> None:
    m = summary["metrics"]
    print(f"workload {name}  seed {seed}  samples {summary['attempted']}  "
          f"failed {summary['failed']}")
    for key, unit in END_TO_END:
        if key not in m:
            print(f"  {key:<12} n/a")
            continue
        v = m[key]
        if "q1" in v:
            tail = "".join(f", {k} {v[k]:.4g}" for k in v if k.startswith("p"))
            wall = (f"; wall median {v['wall_median']:.4f} s"
                    if "wall_median" in v else "")
            print(f"  {key:<12} {v['median']:.4f} {unit}  (median; q1 "
                  f"{v['q1']:.4f}, q3 {v['q3']:.4f}{tail}; n={v['n']}{wall})")
        else:
            print(f"  {key:<12} {v['median']:.1f} {unit}  ({summary['rows']} "
                  f"rows / median run_s; n={v['n']})")
    print(f"  {'error_rate':<12} {summary['error_rate']:.4f} failed/attempted "
          f"({summary['failed']}/{summary['attempted']})")


def _problems(name: str, samples: list[dict]) -> None:
    for i, s in enumerate(samples):
        for p in s["problems"]:
            print(f"FAILED {name} sample {i}: {p}", file=sys.stderr)


def main() -> int:
    from workloads import FULL, PREPARE, SMOKE, WHY, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for testing the benchmark itself")
    ap.add_argument("--out", help="also write the full record to this file")
    args = ap.parse_args()

    sizes = SMOKE if args.smoke else FULL
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    names = WORKLOADS if (args.trace or args.workload == "all") \
        else (args.workload,)

    record = {"machine": machine(args.seed, env),
              "sizes": "smoke" if args.smoke else "full",
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    print("machine: " + json.dumps(record["machine"]))
    # One CPU for this process, its children and calibrate(): the vCPUs of
    # the reference host drift independently of each other.
    record["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu"]})
    calibrate()  # the first call pays for lazy imports and cold caches
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            input_dir = work / name / "input"
            input_dir.mkdir(parents=True)
            prep = PREPARE[name](args.seed, sizes, str(input_dir))
            entry = {"why": WHY[name], "rows": prep.rows}
            if args.trace:
                samples = [run_sample(prep, work / name / f"u{i}", env, "run")
                           for i in range(TRACE_UNTRACED)]
                samples.append(run_sample(prep, work / name / "t", env,
                                          "trace"))
                _check_identical(samples)
                layer = layer_metrics(prep, samples[:-1], samples[-1])
                entry["per_layer"] = layer
                total, count = _span_stats(
                    samples[-1]["result"].get("spans", []))
                entry["spans"] = {k: {"count": count[k], "total_s": total[k]}
                                  for k in total}
                for key, value in layer.items():
                    metrics[f"{name}.{key}"] = value
                print(f"workload {name}  traced  "
                      f"overhead {layer['trace_overhead_s']:.4f} s")
            else:
                start = time.monotonic()
                cal = [calibrate()]
                samples = []
                # start a sample only if it should end within --seconds
                while (len(samples) < MIN_SAMPLES
                       or time.monotonic() - start + statistics.median(
                           s["wall_s"] for s in samples) <= args.seconds):
                    samples.append(run_sample(
                        prep, work / name / f"s{len(samples)}", env, "run"))
                    cal.append(calibrate())
                for i, s in enumerate(samples):
                    s["scale"] = CAL_REF_S / statistics.mean(cal[i:i + 2])
                _check_identical(samples)
                summary = summarize(prep, samples)
                entry.update(summary)
                entry["calibration_s"] = cal
                _print_e2e(name, summary, args.seed)
                prefix = "" if len(names) == 1 else f"{name}."
                for key, unit in END_TO_END:
                    if key in summary["metrics"]:
                        metrics[prefix + key] = {
                            "value": summary["metrics"][key]["median"],
                            "unit": unit}
            entry["samples"] = [{k: v for k, v in s.items() if k != "result"}
                                for s in samples]
            _problems(name, samples)
            attempted += len(samples)
            failed += sum(bool(s["problems"]) for s in samples)
            record["workloads"][name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {f"{w}.{k}": {"value": metrics[f"{w}.{k}"], "unit": u}
                   for w, k, u in PER_LAYER}
    record["metrics"] = metrics
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "mapthermo" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mapthermo'}; run "
              "from the root of a mapthermo checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
