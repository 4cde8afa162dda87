"""Bound chain for rotated thermal initial states under the closed drive.

Sweeps the initial rotation angle and records, at the end of the drive, each
link of the chain

    <e^{-beta w}>  <=  Golden-Thompson bound  <=  Jarzynski factor x
                                                  e^{-beta lambda_min}

together with the matched inverse temperature and the mean-work inequality
slack. At angle zero the initial state is thermal and every link collapses
onto the Jarzynski factor.
"""

import argparse
import os

import numpy as np

from mapthermo.coherent import (ClosedCoherentParams,
                                closed_coherent_protocol,
                                coherent_initial_construction,
                                coherent_work_fluctuation)
from mapthermo.operators import HermitianOperator


def main() -> None:
    ap = argparse.ArgumentParser(
        description="rotation-angle sweep of the closed-drive bound chain")
    ap.add_argument("--angles", type=float, nargs="+",
                    default=[0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2])
    ap.add_argument("--beta0", type=float, default=1.0)
    ap.add_argument("--n-steps", type=int, default=400)
    ap.add_argument("--out-dir", default="out_coherent")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "angle_sweep.csv")
    rows = ["angle,beta,exp_avg_w,golden_thompson_bound,chain_bound,"
            "delta_F_bar,lambda_min_xi,mean_w_slack"]
    for angle in args.angles:
        p = ClosedCoherentParams(beta0=args.beta0, rotation_angle=angle)
        times = p.grid(args.n_steps)
        rho0, hams, unitaries = closed_coherent_protocol(p, times)
        H0 = HermitianOperator(hams[0])
        data = coherent_initial_construction(rho0, H0)
        # the end of the drive, as a stack of one
        res = coherent_work_fluctuation(data, unitaries[-1:], hams[-1:])
        value, gt, chain, dfb = (float(a[0]) for a in (
            res.value, res.golden_thompson_bound, res.final_bound,
            res.delta_F_bar))
        rho_t = unitaries[-1] @ rho0.matrix @ unitaries[-1].conj().T
        mean_w = float(np.trace(hams[-1] @ rho_t).real
                       - H0.expectation(rho0))
        slack = mean_w - dfb - data.lambda_min_xi
        cells = (angle, res.beta, value, gt, chain, dfb, res.lambda_min_xi,
                 slack)
        rows.append(",".join(f"{v:.17g}" for v in cells))
        print(f"angle={angle:g}: beta={res.beta:.4f} "
              f"value={value:.6f} <= gt={gt:.6f} <= chain={chain:.6f}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
