#!/usr/bin/env python3
"""Reproduce the cargo-loading validation campaigns.

Runs the uniform-demand grid at m=100 and m=200 plus the truncated-Gaussian
grid at m=200, writing one result directory per cloud:

    out/<name>/trials.csv      one row per batch (s_star, p_hat, interval)
    out/<name>/epsilon.csv     the interval table used
    out/<name>/summary.json    config, coverage and discard counts, as simulate

W and V are placeholders (no published values); override on the command line
to explore other aircraft.
"""

import argparse
from pathlib import Path

from share_sense import (
    CargoConfig,
    TruncatedGaussianDemand,
    UniformDemand,
    run_campaign,
)
from share_sense.sensitivity import epsilon_table
from share_sense.serialize import write_campaign

DEMAND_RANGES = [(50.0, 150.0), (100.0, 400.0), (1000.0, 4000.0), (2000.0, 6000.0)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="campaign_results")
    parser.add_argument("--weight", type=float, default=20000.0, help="capacity in kg")
    parser.add_argument("--volume", type=float, default=30.0, help="capacity in m^3")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--beta", type=float, default=1e-7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    jobs = []
    for lo, hi in DEMAND_RANGES:
        jobs.append((f"m100_uniform_{int(lo)}_{int(hi)}", 100, UniformDemand(lo, hi)))
        jobs.append((f"m200_uniform_{int(lo)}_{int(hi)}", 200, UniformDemand(lo, hi)))
    for lo, hi in DEMAND_RANGES:
        mu = 0.5 * (lo + hi)
        jobs.append(
            (f"m200_gaussian_mu{int(mu)}", 200, TruncatedGaussianDemand(mu, 3096.0))
        )

    tables = {}
    out_root = Path(args.out)
    for name, m, demand in jobs:
        config = CargoConfig(
            m=m,
            W=args.weight,
            V=args.volume,
            demand=demand,
            trials=args.trials,
            beta=args.beta,
            seed=args.seed,
        )
        if m not in tables:
            tables[m] = epsilon_table(m, args.beta)
        records, summary = run_campaign(config, tables[m])
        write_campaign(out_root / name, config, tables[m], records, summary)
        status = "all covered" if summary.all_covered else "VIOLATIONS"
        print(
            f"{name}: {summary.covered}/{summary.clean_trials} clean trials covered "
            f"({summary.discarded} discarded) -> {status}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
