#!/usr/bin/env python3
"""Bad-model demo: calibration error trusts an ensemble whose members are
each overconfident, and the Bayesian check rejects it.

Member m of M predicts N(c_m, s^2) with c_m = Phi^-1((m + 1/2) / M) and
s^2 = 1 - Var(c), so each member is about four times too narrow for data
y ~ N(0, 1) and the members disagree, yet their mixture is close to N(0, 1).
Scored against the mixture with labels replicated independently per row, the
calibration error looks as expected and the check passes. Replicates that
share one sampled member across the rows are far more miscalibrated than the
data, so the Bayesian check fails with p = 0.

Usage: python3 scripts/bad_model_trusted.py [--seeds 10] [--n 2000]
"""
import argparse
from statistics import NormalDist

import numpy as np

from ppc_uq import ppc
from ppc_uq import statistics as st


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--models", type=int, default=20)
    ap.add_argument("--replicates", type=int, default=300)
    args = ap.parse_args()

    centres = np.array([NormalDist().inv_cdf((m + 0.5) / args.models)
                        for m in range(args.models)])
    preds = st.EnsemblePredictions.from_gaussians(
        np.tile(centres, (args.n, 1)),
        np.full((args.n, args.models), np.sqrt(1.0 - centres.var())))
    stat = ppc.CalibrationErrorStatistic()
    trusted = rejected = 0
    print(f"{'seed':>4}  {'p_indep':>8}  {'p_bayes':>8}")
    for seed in range(args.seeds):
        y = np.random.default_rng(seed).standard_normal(args.n)
        rep_i, rep_b = (ppc.run_ppc(preds, None, y, stat, mode,
                                    num_replicates=args.replicates, seed=seed)
                        for mode in (ppc.INDEPENDENT, ppc.BAYESIAN))
        trusted += rep_i.passed
        rejected += not rep_b.passed
        print(f"{seed:>4}  {rep_i.p_value:>8.4f}  {rep_b.p_value:>8.4f}")
    print(f"\nindependent passes: {trusted}/{args.seeds}")
    print(f"bayesian rejects: {rejected}/{args.seeds}")


if __name__ == "__main__":
    main()
