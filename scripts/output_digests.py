#!/usr/bin/env python3
"""Print the sha256 of every CLI output of a fixed msq command set.

Generates fixed input files in OUTDIR, runs each command through the
in-process ``msq.cli.main`` and prints one ``sha256  file`` line per file
in OUTDIR, sorted by name, as ``sha256sum`` does.  The set: the
criterion-9 commands of the acceptance suite, the reports-2d and bridge-2d
benchmark commands, a 1-d beta --graph run whose default ladder leaves
cells with too few lifted points (beta nan), 1-d and 2-d strichartz in
both orders with CSV output, 1-d and 2-d bmo with CSV output at strides 1,
2 and 3 (lattice offset reads) and at stride n (one center per radius, a
single-column sum), 1-d bmo over radii given out of order with one
repeated (the report's row order), 2-d strichartz over two given sides at stride 16 and,
second order, over the default sides at stride 8 on the smooth bump, the
nu0 and nu1_tilde matrices of the 1-d smooth field (most entries
recomputed directly), one sqfn run from a --config file with a flag that
overrides it, and 1-d and 2-d log_singularity fields with their fractional
derivatives.

It checks that a change keeps the CLI outputs byte-identical.  The outputs
embed the input paths, so run the old and the new code into the same
OUTDIR, with each checkout's ``src`` on the import path, and compare:

    PYTHONPATH=/path/to/old/src python scripts/output_digests.py /tmp/od > old.txt
    PYTHONPATH=src python scripts/output_digests.py /tmp/od > new.txt
    diff old.txt new.txt

A command that exits nonzero is named on stderr, and the script then
exits 1.  The set writes 71 files and runs in about 5 s on a 2-core host.
"""

import hashlib
import os
import sys

from msq.cli import main as msq_main


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
    bump1 = p("bump1.fld")  # default ladder: cells with too few lifted points
    bridge1d = [
        ["generate", "--family", "smooth_bump", "--n", "1024", "--out", bump1],
        ["beta", "--graph", "--field", bump1, "--stride", "8", "--out", p("beta_1d.csv")],
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
    walks.append(["sqfn", "--config", p("sqfn.cfg"), "--field", fld, "--stride", "8",
                  "--out-json", p("sq_cfg.json")])
    logs = []
    for dim, n in (("1", "256"), ("2", "64")):
        log = p(f"log{dim}d.fld")
        logs += [
            ["generate", "--family", "log_singularity", "--dim", dim, "--n", n, "--out", log],
            ["fracderiv", "--field", log, "--alpha", "0.6", "--out", p(f"log{dim}d_d.fld")],
        ]
    return criterion9 + reports2d + bridge2d + bridge1d + strichartz + walks + logs


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
