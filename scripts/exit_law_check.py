#!/usr/bin/env python3
"""Measured mean exit time against the small-noise law on the quadratic well."""
import argparse

from levylab.rng import RngStream
from levylab.objectives import quadratic
from levylab.studies import exit_time_study

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--alpha", type=float, default=1.5)
parser.add_argument("--eps", type=float, default=0.01)
parser.add_argument("--reps", type=int, default=200)
parser.add_argument("--eta", type=float, default=1e-3)
parser.add_argument("--seed", type=int, default=210)
args = parser.parse_args()

study = exit_time_study(
    quadratic(1), 0.0, args.alpha, args.eps, 1.0, args.eta, RngStream(args.seed),
    n_replicates=args.reps,
)
rel = study.mean_exit_time / study.predicted_mean - 1.0
print(f"alpha={args.alpha} eps={args.eps} reps={args.reps}")
print(f"measured mean exit time  {study.mean_exit_time:.2f}")
print(f"predicted (alpha/2) a^alpha / eps_eff^alpha  {study.predicted_mean:.2f}")
print(f"relative error {rel:+.1%}")
print(f"KS distance vs exponential law {study.ks_distance:.4f}")
print(f"exited {study.n_exited}, censored {study.n_censored}, diverged {study.n_diverged}")
