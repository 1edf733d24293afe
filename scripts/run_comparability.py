#!/usr/bin/env python3
"""Run the comparability experiment over the corpus and report the band.

For every corpus field whose regularity band contains alpha, computes the
ratio of the square-function Carleson constant to the squared oscillation
norm of the order-alpha fractional derivative, then the smallest two-sided
band containing every ratio.

Example:
    python scripts/run_comparability.py --dim 1 --n 1024 --out band.json
"""

import argparse
import functools
import sys

from msq.cli import float_list, positive_int, write_json
from msq.experiments import (
    ALPHA_GRID,
    comparability_ratios,
    default_specs,
    two_sided_band,
)
from msq.field import make_grid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=1, choices=(1, 2))
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--stride", type=positive_int, default=1)
    alphas = functools.partial(float_list, lo=0.0, hi=2.0)
    ap.add_argument("--alphas", type=alphas, default=list(ALPHA_GRID))
    ap.add_argument("--noise-alphas", type=alphas, default=[0.5, 1.3])
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args(argv)

    grid = make_grid(args.dim, args.n, 1.0)
    ratios = comparability_ratios(
        default_specs(grid, noise_alphas=args.noise_alphas), alphas=args.alphas,
        stride=args.stride,
    )
    band = two_sided_band(ratios)

    print(f"dim={args.dim} n={args.n} stride={args.stride}")
    print(f"{'family':<18}{'order':>8}{'alpha':>8}{'ratio':>14}")
    for (family, a0, alpha), ratio in sorted(ratios.items()):
        tag = f"{a0}" if a0 is not None else "-"
        print(f"{family:<18}{tag:>8}{alpha:>8}{ratio:>14.6f}")
    print(f"two-sided band B0 = {band:.4f} over {len(ratios)} pairs")

    if args.out:
        payload = {
            "dim": args.dim,
            "n": args.n,
            "stride": args.stride,
            "ratios": [
                {"family": fam, "family_order": a0, "alpha": a, "ratio": r}
                for (fam, a0, a), r in sorted(ratios.items())
            ],
            "band": band,
        }
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
