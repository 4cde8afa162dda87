"""Sweep the bath inverse temperature for the driven weak-coupling qubit.

Writes one CSV per beta with the work and internal-energy correction factors
and the work-factor bound along the drive, and prints the final factor/bound
ratio so the low-temperature saturation trend is visible at a glance.
"""

import argparse
import os

from mapthermo.csvout import csv_text
from mapthermo.params import WeakCouplingParams, weak_coupling_rates
from mapthermo.phase_covariant import (pc_integrals, pc_lambda_u, pc_lambda_w,
                                       pc_thermo)


def main() -> None:
    ap = argparse.ArgumentParser(
        description="temperature sweep of the driven weak-coupling qubit")
    ap.add_argument("--betas", type=float, nargs="+", default=[1.0, 3.0, 10.0])
    ap.add_argument("--gamma", type=float, default=0.01)
    ap.add_argument("--drive-mode", choices=("monotonic", "periodic"),
                    default="monotonic")
    ap.add_argument("--n-steps", type=int, default=1000)
    ap.add_argument("--out-dir", default="out_drive_sweep")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for beta in args.betas:
        p = WeakCouplingParams(beta=beta, gamma=args.gamma,
                               drive_mode=args.drive_mode)
        coeffs = pc_integrals(weak_coupling_rates(p), p.grid(args.n_steps))
        th = pc_thermo(coeffs)
        lam, bound = pc_lambda_w(th, coeffs, beta)
        lu = pc_lambda_u(coeffs, beta)
        path = os.path.join(args.out_dir, f"drive_beta{beta:g}.csv")
        with open(path, "w") as fh:
            fh.write("t,lambda_w,lambda_w_bound,lambda_u\n"
                     + csv_text([coeffs.times, lam, bound, lu]))
        print(f"{path}: beta={beta:g} "
              f"final factor/bound ratio {lam[-1] / bound[-1]:.6f}")


if __name__ == "__main__":
    main()
