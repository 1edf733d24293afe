#!/usr/bin/env python3
"""Recover designed roughness exponents from the annulus coefficients.

For cusp fields the exponent is read off at the singular point; for the
lacunary cosine sums it is read off the mean over all centers.

Example:
    python scripts/run_regularity_sweep.py --n 8192
"""

import argparse
import functools
import sys

from msq.cli import float_list, write_json
from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate, roughness_exponent
from msq.field import make_grid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8192)
    ap.add_argument("--gammas", type=functools.partial(float_list, lo=0.0, hi=1.0, hi_closed=True),
                    default=[0.3, 0.5, 0.7])
    ap.add_argument("--betas", type=functools.partial(float_list, lo=0.0, hi=1.0),
                    default=[0.3, 0.5])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    grid = make_grid(1, args.n, 1.0)
    ladder = make_ladder(grid, top_radius=1.0 / 8.0)
    rows = []
    print(f"{'family':<14}{'target':>8}{'slope':>10}{'rel err':>10}")
    for gamma in args.gammas:
        f = generate(CorpusSpec(family="cusp", grid=grid, gamma=gamma))
        slope = roughness_exponent(f, ladder, center=(args.n // 2,))
        rows.append({"family": "cusp", "target": gamma, "slope": slope})
        print(f"{'cusp':<14}{gamma:>8}{slope:>10.4f}{abs(slope - gamma) / gamma:>10.3f}")
    for beta_w in args.betas:
        f = generate(
            CorpusSpec(family="weierstrass", grid=grid, beta_w=beta_w, levels=8)
        )
        slope = roughness_exponent(f, ladder)
        rows.append({"family": "weierstrass", "target": beta_w, "slope": slope})
        print(f"{'weierstrass':<14}{beta_w:>8}{slope:>10.4f}{abs(slope - beta_w) / beta_w:>10.3f}")

    if args.out:
        payload = {"n": args.n, "rows": rows}
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
