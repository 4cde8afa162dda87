"""Correction-factor windows of the qubit-boson exchange model.

Five regimes, one CSV each:

  cold      detuned mode at the reference temperature; slow oscillations
            with recurrences, factor hugging its bound
  hot       hot mode against a cold reference; the work factor dips well
            below one
  strong    ten times the coupling of the weak run on the same grid; an
            early work-factor peak with no counterpart in the
            internal-energy factor
  weak      the reference for the strong run
  resonant  resonant exchange from the vacuum, the deep non-Markovian
            regime: the rates diverge wherever the excited amplitude
            crosses zero, while the map coefficients stay finite

The factors are evaluated from the map coefficients of the exact reduced
map by the log-space closed forms, which stay finite over long windows
where a direct operator exponential overflows.
"""

import argparse
import math
import os

import numpy as np

from mapthermo.csvout import csv_text
from mapthermo.models import exchange_factor_series
from mapthermo.params import JCParams

# name -> (omega_m, g, beta_mode, beta_ref, t_f, n_steps)
WINDOWS = {
    "cold": (2.0, 0.01, 5.0, 5.0, 400.0, 2000),
    "hot": (2.0, 0.01, 1e-3, 1.0, 400.0, 1600),
    "strong": (1.5, 0.1, 0.2, 1.0, 60.0, 2400),
    "weak": (1.5, 0.01, 0.2, 1.0, 60.0, 2400),
    "resonant": (1.0, 0.1, math.inf, 1.0, 60.0, 2400),
}


def factor_series(omega_m, g, beta_mode, beta_ref, t_f, n_steps):
    params = JCParams(omega_m=omega_m, g=g, beta=beta_mode)
    return exchange_factor_series(params, np.linspace(0.0, t_f, n_steps + 1),
                                  beta_ref)


def main() -> None:
    ap = argparse.ArgumentParser(
        description="exchange-model correction-factor windows")
    ap.add_argument("--windows", nargs="+", choices=sorted(WINDOWS),
                    default=sorted(WINDOWS))
    ap.add_argument("--out-dir", default="out_exchange")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name in args.windows:
        omega_m, g, beta_mode, beta_ref, t_f, n_steps = WINDOWS[name]
        times, lam, bound, lu = factor_series(omega_m, g, beta_mode, beta_ref,
                                              t_f, n_steps)
        path = os.path.join(args.out_dir, f"exchange_{name}.csv")
        with open(path, "w") as fh:
            fh.write("t,lambda_w,lambda_w_bound,lambda_u\n"
                     + csv_text([times, lam, bound, lu]))
        print(f"{path}: lambda_w in [{lam.min():.6f}, {lam.max():.6f}], "
              f"max |lambda_w - 1| = {np.max(np.abs(lam - 1.0)):.3e}")


if __name__ == "__main__":
    main()
