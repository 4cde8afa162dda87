"""Wall time and traced memory of the exchange-model level sum.

For each window of `run_exchange_windows.WINDOWS` this times
`jc_reduced_map` (best of --repeats after one warm-up call), counts the mode
levels and the nodes each frequency family of the level sum is evaluated on
(difference, sum and doubled angle; a family that is not compressed keeps
one node per level or block), and records the tracemalloc peak of one call;
it also records the peak on the hot window stretched to N = 20 000 steps,
where the level sum's left factor is largest. The result is merged into a
JSON file under --label, so runs of two source trees sit side by side, for
example a parent commit and a change, each put first on PYTHONPATH:

    OPENBLAS_NUM_THREADS=1 taskset -c 1 \\
        env PYTHONPATH=src python scripts/bench_level_sum.py --label change

Runs made one after the other carry the host's drift in speed between them.
With --against the src directory of a second tree (say a checkout of the
parent commit), both trees are imported into one process, checked to give
the same map coefficients to 1e-13 on every window, and their
`jc_reduced_map` calls alternate, so that each window gets a ratio per pair
of calls.

BLAS thread variables and the usable CPUs are recorded, not set.
"""

import argparse
import functools
import time
import tracemalloc

import numpy as np

from bench_record import (alternate, import_tree, ratio_summary,
                          record_run, timed)
from mapthermo import models
from mapthermo.models import jc_reduced_map
from mapthermo.params import JCParams, jc_mode_count
from run_exchange_windows import WINDOWS

# the hot window's grid stretched to N = 20 000 steps
LONG_HOT_STEPS = 20_000
# map coefficients both trees must agree on, and how closely
COEFFICIENTS = ("a", "b", "c", "d_par", "da", "db", "dc", "dd_par")
AGREE_TOL = 1e-13


def window(name: str, module=None, n_steps: int | None = None):
    """The parameters and grid of a window, with the JCParams of `module`
    (by default this tree's models)."""
    omega_m, g, beta_mode, _, t_f, steps = WINDOWS[name]
    params_cls = module.JCParams if module else JCParams
    return (params_cls(omega_m=omega_m, g=g, beta=beta_mode),
            np.linspace(0.0, t_f, (n_steps or steps) + 1))


def peak_mb(params, times) -> float:
    """The tracemalloc peak of one `jc_reduced_map` call, in MB."""
    tracemalloc.start()
    try:
        jc_reduced_map(params, times)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def node_counts(params, t_max: float) -> dict:
    """The nodes of each frequency family of this tree's level sum."""
    p = models._thermal_weights(params, jc_mode_count(params))
    families = models._frequency_families(params, p)
    return {family: models._chebyshev_nodes(freqs, amps, t_max)[0].size
            for family, (freqs, amps) in zip(("difference", "sum", "doubled"),
                                             families)}


def measure(name: str, repeats: int) -> dict:
    params, times = window(name)
    jc_reduced_map(params, times)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        jc_reduced_map(params, times)
        walls.append(time.perf_counter() - start)
    return {"levels": jc_mode_count(params) + 1,
            "nodes": node_counts(params, times[-1]),
            "n_steps": times.size - 1,
            "wall_s_best": min(walls), "wall_s": walls,
            "tracemalloc_peak_mb": peak_mb(params, times)}


def against(src: str, repeats: int) -> dict:
    """Per window, this tree's `jc_reduced_map` time over that of the tree
    under `src`, call by call in alternation, after a check that both trees
    give the same map coefficients to AGREE_TOL."""
    other = import_tree(src, "models")
    result = {}
    for name in WINDOWS:
        (params, times), (theirs, _) = window(name), window(name, other)
        _, ours_c = jc_reduced_map(params, times)
        _, theirs_c = other.jc_reduced_map(theirs, times)
        diff = max(float(np.max(np.abs(getattr(ours_c, k)
                                       - getattr(theirs_c, k))))
                   for k in COEFFICIENTS)
        if not diff <= AGREE_TOL:
            raise SystemExit(f"{src} gives other coefficients on the {name} "
                             f"window: max |difference| {diff:.3e}")
        calls = (functools.partial(jc_reduced_map, params, times),
                 functools.partial(other.jc_reduced_map, theirs, times))
        result[name] = ratio_summary(*alternate(*map(timed, calls), repeats))
        result[name]["max_abs_coefficient_difference"] = diff
    return result


def main() -> None:
    ap = argparse.ArgumentParser(
        description="time jc_reduced_map on the exchange windows")
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON file")
    ap.add_argument("--out", default="BENCH_exchange.json")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--against", metavar="SRC",
                    help="the src directory of a second source tree: time "
                         "its jc_reduced_map in alternation with this one's")
    args = ap.parse_args()

    windows = {}
    for name in WINDOWS:
        windows[name] = measure(name, args.repeats)
        print(f"{name}: {windows[name]['levels']} levels, nodes "
              f"{windows[name]['nodes']}, best "
              f"{windows[name]['wall_s_best']:.4f} s, peak "
              f"{windows[name]['tracemalloc_peak_mb']:.1f} MB")
    result = {"windows": windows, "long_hot": {
        "n_steps": LONG_HOT_STEPS,
        "tracemalloc_peak_mb": peak_mb(*window("hot", n_steps=LONG_HOT_STEPS))}}
    print(f"hot at N = {LONG_HOT_STEPS}: peak "
          f"{result['long_hot']['tracemalloc_peak_mb']:.1f} MB")
    if args.against:
        result["against"] = against(args.against, args.repeats)
        for name, pair in result["against"].items():
            print(f"{name}: {pair['ratio_median']:.3f} of the other tree's "
                  f"time, faster in {pair['faster_in']} of {args.repeats}, "
                  f"max |coefficient difference| "
                  f"{pair['max_abs_coefficient_difference']:.1e}")
    record_run(args.out, "jc_reduced_map on the windows of "
                         "scripts/run_exchange_windows.py",
               args.label, "level_sum", result)

if __name__ == "__main__":
    main()
