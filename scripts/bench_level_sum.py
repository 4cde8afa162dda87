"""Wall time and traced memory of the exchange-model level sum.

For each window of `run_exchange_windows.WINDOWS` this times
`jc_reduced_map` (best of --repeats after one warm-up call), counts the mode
levels and records the tracemalloc peak of one call. The result is merged
into a JSON file under --label, so runs of two source trees sit side by side,
for example a parent commit and a change, each put first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_level_sum.py --label change

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import time
import tracemalloc

import numpy as np

from bench_record import record_run
from mapthermo.models import JCParams, jc_mode_count, jc_reduced_map
from run_exchange_windows import WINDOWS


def measure(omega_m, g, beta_mode, t_f, n_steps, repeats: int) -> dict:
    params = JCParams(omega_m=omega_m, g=g, beta=beta_mode)
    times = np.linspace(0.0, t_f, n_steps + 1)
    jc_reduced_map(params, times)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        jc_reduced_map(params, times)
        walls.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        jc_reduced_map(params, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"levels": jc_mode_count(params) + 1, "n_steps": n_steps,
            "wall_s_best": min(walls), "wall_s": walls,
            "tracemalloc_peak_mb": peak / 1e6}


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time jc_reduced_map on the exchange windows")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_exchange.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    windows = {}
    for name, (omega_m, g, beta_mode, _, t_f, n_steps) in WINDOWS.items():
        windows[name] = measure(omega_m, g, beta_mode, t_f, n_steps,
                                args.repeats)
        print(f"{name}: {windows[name]['levels']} levels, best "
              f"{windows[name]['wall_s_best']:.4f} s, peak "
              f"{windows[name]['tracemalloc_peak_mb']:.1f} MB")
    record_run(args.out, "jc_reduced_map on the windows of "
                         "scripts/run_exchange_windows.py",
               args.label, "windows", windows)


if __name__ == "__main__":
    main()
