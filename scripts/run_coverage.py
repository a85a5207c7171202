#!/usr/bin/env python3
"""Bootstrap coverage experiment.

Draws panels from known truths, runs the percentile bootstrap on each, and
reports how often the quality intervals cover the truth (pooled over trials
and objects).
"""
import argparse
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from mallows_binomial.inference import bootstrap, simulate_cell


def one_trial(t, *, seed, J, I, M, R, theta, B, level, method):
    truth, data = simulate_cell(I, M, J, R, theta, np.random.default_rng([seed, 7, t]))
    summary = bootstrap(data, method=method, B=B, level=level, seed=seed * 1000 + t)
    lo, hi = summary.p_intervals[:, 0], summary.p_intervals[:, 1]
    return ((lo <= truth.p) & (truth.p <= hi)).astype(int)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--J", type=int, default=5)
    parser.add_argument("--I", type=int, default=40)
    parser.add_argument("--M", type=int, default=10)
    parser.add_argument("--R", type=int, default=5)
    parser.add_argument("--theta", type=float, default=2.0)
    parser.add_argument("--B", type=int, default=200)
    parser.add_argument("--level", type=float, default=0.90)
    parser.add_argument("--method", default="exact-crude")
    parser.add_argument("--seed", type=int, default=2032)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    worker = partial(one_trial, seed=args.seed, J=args.J, I=args.I, M=args.M,
                     R=args.R, theta=args.theta, B=args.B, level=args.level,
                     method=args.method)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(worker, range(args.trials), chunksize=10))
    else:
        rows = [worker(t) for t in range(args.trials)]
    cov = np.array(rows)
    print(f"nominal level {args.level:.2f}; pooled coverage {cov.mean():.3f} "
          f"over {args.trials} trials x {args.J} objects")
    print("per-object coverage:", np.round(cov.mean(axis=0), 3).tolist())


if __name__ == "__main__":
    main()
