#!/usr/bin/env python3
"""Print the sha256 of every CLI output of a fixed msq command set.

Generates fixed input files in OUTDIR, runs each command through the
in-process ``msq.cli.main`` and prints one ``sha256  file`` line per file
in OUTDIR, sorted by name, as ``sha256sum`` does.  The set: the
criterion-9 commands of the acceptance suite, the reports-2d and bridge-2d
benchmark commands, a 1-d beta --graph run whose default ladder leaves
cells with too few lifted points (beta nan), a 2-d one at stride 4 on a
period-0.25 grid with four such cells, 2-d beta --graph on the cusp at
stride 3 (484 centers, of which the 145 whose widest ball the field holds
constant skip beta2k), on a plateau field (3 + the smooth bump) and on a
constant field, beta --graph at stride 1 and second-order strichartz at
stride 4 on a 2-d n=64 cusp(0.7) field (constant on more balls and cubes
the narrower they are), coeffs --kind nu1 and beta --graph on a 1-d cusp field scaled by
1e80 (whose fc^4 overflows), 1-d and 2-d strichartz in
both orders with CSV output, 1-d and 2-d bmo with CSV output at strides 1,
2 and 3 (lattice offset reads) and at stride n (one center per radius, a
single-column sum), 1-d bmo over radii given out of order with one
repeated (the report's row order), 2-d strichartz over two given sides at stride 16 and,
second order, over the default sides at stride 8 on the smooth bump, the
nu0 and nu1_tilde matrices of the 1-d n=128 smooth field (the float route
rejects most entries, and on so small a grid every rejected level is
shorter to sum directly than to take the exact route, so those entries are
recomputed directly), the nu1 and nu1_bar matrices of the 2-d n=64 smooth
bump (whose upper levels take the exact route), one sqfn run from a
--config file with a flag that overrides it, a compare run at stride 1
on a 1-d n=256 cusp of period 0.5 (after the period-1 n=256 commands: its
ladder shares four radii with theirs, with other ball masks), compare
runs at stride 1 whose BMO supremum comes from the windows bmo.bmo_sup's bound keeps (1-d
n=2048 cusp, sinusoid and riesz_of_noise at three alphas, and the 2-d n=64
smooth bump), and 1-d and 2-d log_singularity fields with their
fractional derivatives.

It checks that a change keeps the CLI outputs byte-identical.  The outputs
embed the input paths, so run the old and the new code into the same
OUTDIR, with each checkout's ``src`` on the import path, and compare:

    PYTHONPATH=/path/to/old/src python scripts/output_digests.py /tmp/od > old.txt
    PYTHONPATH=src python scripts/output_digests.py /tmp/od > new.txt
    diff old.txt new.txt

A command that exits nonzero is named on stderr, and the script then
exits 1.  The set writes 105 files and runs in about 2 s on a 2-core host.
"""

import hashlib
import os
import sys

import numpy as np

from msq.cli import main as msq_main
from msq.corpus import CorpusSpec, generate, save_field
from msq.field import SampledField, make_grid


def commands(p):
    """The command set, in run order; p(name) is the path inside OUTDIR."""
    fld, smooth, cloud = p("f.fld"), p("smooth.fld"), p("cloud.txt")
    criterion9 = [
        ["generate", "--family", "smooth_bump", "--n", "128", "--out", smooth],
        ["generate", "--family", "cusp", "--gamma", "0.5", "--n", "128", "--out", fld],
        ["coeffs", "--field", fld, "--kind", "nu1", "--levels", "3", "--out", p("m.csv")],
        ["sqfn", "--field", fld, "--kind", "nu0", "--alpha", "0.5", "--stride", "8",
         "--out-json", p("sq.json"), "--out-csv", p("sq.csv")],
        ["bmo", "--field", fld, "--stride", "8", "--out-json", p("bmo.json")],
        ["strichartz", "--field", fld, "--alpha", "0.5", "--order", "second", "--stride", "32",
         "--out-json", p("st.json")],
        ["fracderiv", "--field", fld, "--alpha", "0.7", "--out", p("d.fld")],
        ["compare", "--field", fld, "--alphas", "0.5,1.3", "--stride", "8", "--out", p("cmp.json")],
        ["beta", "--graph", "--field", smooth, "--levels", "3", "--stride", "16",
         "--out", p("g.csv")],
        ["beta", "--cloud", cloud, "--radius", "2.0", "--k", "1", "--out", p("b.csv")],
    ]
    noise = p("noise.fld")
    reports2d = [
        ["generate", "--family", "riesz_of_noise", "--dim", "2", "--n", "128", "--alpha", "1.3",
         "--seed", "5", "--out", noise],
        ["coeffs", "--field", noise, "--kind", "nu1", "--out", p("coeffs.csv")],
        ["sqfn", "--field", noise, "--kind", "nu1_bar", "--alpha", "1.3", "--stride", "4",
         "--out-json", p("sqfn.json"), "--out-csv", p("sqfn.csv")],
        ["bmo", "--field", noise, "--stride", "8", "--out-json", p("bmo2.json")],
        ["fracderiv", "--field", noise, "--alpha", "1.3", "--out", p("deriv.fld")],
        ["compare", "--field", noise, "--alphas", "0.5,1.3", "--stride", "8",
         "--out", p("compare.json")],
    ]
    bump2, cusp2 = p("bump2.fld"), p("cusp2.fld")
    bridge2d = [
        ["generate", "--family", "smooth_bump", "--dim", "2", "--n", "64", "--out", bump2],
        ["generate", "--family", "cusp", "--gamma", "0.8", "--dim", "2", "--n", "64",
         "--out", cusp2],
        ["beta", "--graph", "--field", bump2, "--out", p("beta.csv")],
    ]
    bump1, bumpq = p("bump1.fld"), p("bumpq.fld")  # cells with too few lifted points
    bridge_nan = [
        ["generate", "--family", "smooth_bump", "--n", "1024", "--out", bump1],
        ["beta", "--graph", "--field", bump1, "--stride", "8", "--out", p("beta_1d.csv")],
        ["generate", "--family", "smooth_bump", "--dim", "2", "--n", "32", "--period", "0.25",
         "--out", bumpq],
        ["beta", "--graph", "--field", bumpq, "--stride", "4", "--out", p("beta_2d_nan.csv")],
    ]
    # centers whose widest ball the field holds constant skip beta2k; a
    # field far above unit scale
    bridge_flat = [
        ["beta", "--graph", "--field", cusp2, "--stride", "3", "--out", p("beta_cusp2_s3.csv")],
        ["beta", "--graph", "--field", p("plateau.fld"), "--out", p("beta_plateau.csv")],
        ["beta", "--graph", "--field", p("constant.fld"), "--out", p("beta_constant.csv")],
        ["coeffs", "--field", p("cusp_1e80.fld"), "--kind", "nu1", "--out", p("cusp_1e80_nu1.csv")],
        ["beta", "--graph", "--field", p("cusp_1e80.fld"), "--out", p("beta_cusp_1e80.csv")],
    ]
    # the 2-d cusp(0.7) is constant on more balls and cubes the narrower
    # they are: beta2k blocks of every depth, mixed ones included, and
    # second-order cubes that are mostly constant on every side
    cusp07 = p("cusp07_2d.fld")
    bridge_flat += [
        ["generate", "--family", "cusp", "--gamma", "0.7", "--dim", "2", "--n", "64",
         "--out", cusp07],
        ["beta", "--graph", "--field", cusp07, "--stride", "1", "--out", p("beta_cusp07_s1.csv")],
        ["strichartz", "--field", cusp07, "--alpha", "1.3", "--order", "second", "--stride", "4",
         "--out-json", p("st_second_cusp07_s4.json"), "--out-csv", p("st_second_cusp07_s4.csv")],
    ]
    cusp1 = p("cusp1.fld")
    strichartz = [["generate", "--family", "cusp", "--gamma", "0.8", "--n", "256", "--out", cusp1]]
    for tag, field in (("1d", cusp1), ("2d", cusp2)):
        for order, alpha in (("first", "0.5"), ("second", "1.25")):
            strichartz.append(
                ["strichartz", "--field", field, "--alpha", alpha, "--order", order,
                 "--out-json", p(f"st_{order}_{tag}.json"),
                 "--out-csv", p(f"st_{order}_{tag}.csv")])
    walks = []  # the read paths of field.offset_reads and the fallback
    for tag, field, one in (("1d", cusp1, "256"), ("2d", cusp2, "64")):
        for stride in ("1", "2", "3", one):
            walks.append(
                ["bmo", "--field", field, "--stride", stride,
                 "--out-json", p(f"bmo_s{stride}_{tag}.json"),
                 "--out-csv", p(f"bmo_s{stride}_{tag}.csv")])
    walks.append(["bmo", "--field", cusp1, "--radii", "0.0625,0.25,0.125,0.125",
                  "--out-json", p("bmo_radii.json"), "--out-csv", p("bmo_radii.csv")])
    walks.append(["strichartz", "--field", cusp2, "--alpha", "0.5", "--order", "first",
                  "--sides", "0.25,0.125", "--stride", "16",
                  "--out-json", p("st_sides.json"), "--out-csv", p("st_sides.csv")])
    walks.append(["strichartz", "--field", bump2, "--alpha", "1.5", "--order", "second",
                  "--stride", "8", "--out-json", p("st_s8.json"), "--out-csv", p("st_s8.csv")])
    for kind in ("nu0", "nu1_tilde"):
        walks.append(["coeffs", "--field", smooth, "--kind", kind, "--out", p(f"smooth_{kind}.csv")])
    for kind in ("nu1", "nu1_bar"):
        walks.append(["coeffs", "--field", bump2, "--kind", kind, "--out", p(f"bump2_{kind}.csv")])
    walks.append(["sqfn", "--config", p("sqfn.cfg"), "--field", fld, "--stride", "8",
                  "--out-json", p("sq_cfg.json")])
    # the period-0.5 ladder shares the radii 1/8 ... 1/64 with the period-1
    # n=256 one above, with other ball masks: the memoized ball transforms
    # must be told apart by the whole grid
    half = p("cusp_half.fld")
    walks += [
        ["generate", "--family", "cusp", "--gamma", "0.8", "--n", "256", "--period", "0.5",
         "--out", half],
        ["compare", "--field", half, "--alphas", "0.5,1.3", "--stride", "1",
         "--out", p("cmp_cusp_half.json")],
    ]
    pruned = []  # compare runs whose bmo supremum takes bmo_sup's bound
    for name, params in (("cusp", ["--gamma", "0.7"]), ("sinusoid", ["--frequency", "3"]),
                         ("riesz_of_noise", ["--alpha", "1.3", "--seed", "5"])):
        path = p(f"{name}2048.fld")
        pruned += [
            ["generate", "--family", name, *params, "--n", "2048", "--out", path],
            ["compare", "--field", path, "--alphas", "0.3,0.8,1.3", "--stride", "1",
             "--out", p(f"cmp_{name}2048.json")],
        ]
    pruned.append(["compare", "--field", bump2, "--alphas", "0.5,1.3", "--stride", "1",
                   "--out", p("cmp_bump2_s1.json")])
    logs = []
    for dim, n in (("1", "256"), ("2", "64")):
        log = p(f"log{dim}d.fld")
        logs += [
            ["generate", "--family", "log_singularity", "--dim", dim, "--n", n, "--out", log],
            ["fracderiv", "--field", log, "--alpha", "0.6", "--out", p(f"log{dim}d_d.fld")],
        ]
    return (criterion9 + reports2d + bridge2d + bridge_nan + bridge_flat + strichartz + walks
            + pruned + logs)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(f"usage: {os.path.basename(sys.argv[0])} OUTDIR", file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "cloud.txt"), "w") as fh:
        fh.writelines(f"{0.1 * i!r} {0.01 * i * i!r}\n" for i in range(64))
    with open(os.path.join(outdir, "sqfn.cfg"), "w") as fh:
        fh.write("kind=nu1\nalpha=0.7\nstride=4\n")  # --stride 8 overrides
    grid2, grid1 = make_grid(2, 32, 1.0), make_grid(1, 256, 1.0)
    bump = generate(CorpusSpec(family="smooth_bump", grid=grid2)).values
    cusp = generate(CorpusSpec(family="cusp", grid=grid1, gamma=0.7)).values
    for name, grid, values in (("plateau", grid2, 3.0 + bump),
                               ("constant", grid2, np.full(grid2.n_points, 0.7)),
                               ("cusp_1e80", grid1, 1e80 * cusp)):
        save_field(SampledField(grid=grid, values=values), os.path.join(outdir, f"{name}.fld"))
    failed = 0
    for args in commands(lambda name: os.path.join(outdir, name)):
        rc = msq_main(args)
        if rc != 0:
            print(f"exit {rc}: msq {' '.join(args)}", file=sys.stderr)
            failed += 1
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
