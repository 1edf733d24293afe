#!/usr/bin/env python3
"""In-process A/B of one benchmark workload's batch between two msq sources.

    python scripts/batch_ab.py OLD_SRC NEW_SRC --workload band-1d [--rounds 5] [--batches 3]

Runs the workload's set-up once, with OLD_SRC, then alternates fresh
processes between the two sides, which side first alternating by round.
Each process imports msq from its side's src, runs --batches batches of
perfbench/workloads.py in process, with one BLAS thread, and reports the
fastest.  The batch is the benchmark's, on the inputs of seed 1; its time
is raw wall seconds, not divided by a calibration chunk, so it does not
move with the chunk's own speed.  Prints each side's median and fastest
batch seconds over the rounds, the number of rounds the new side won, and
whether both sides wrote the same outputs.  Exits 1 when a process or an operation fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SEED = 1  # the seed of perfbench/run.py's usage line


def _child(mode, name, workdir, batches):
    """One process of one side: the set-up, or the fastest of batches."""
    sys.path.insert(0, PERFBENCH)
    import workloads

    workload = workloads.WORKLOADS[name](workdir, SEED)
    if mode == "setup":
        workload.setup()
        return {}
    best, failed, digests = float("inf"), 0, None
    for _ in range(batches):
        results, wall = {}, 0.0
        for step, fn in workload.steps():
            t0 = time.perf_counter()
            results[step] = fn()
            wall += time.perf_counter() - t0
        best = min(best, wall)
        outcomes = workload.outcomes(results)
        failed += sum(not ok for ok, _ in outcomes.values())
        digests = {op: digest for op, (_, digest) in outcomes.items()}
    return {"best_s": best, "failed": failed, "digests": digests}


def _run(src, mode, args, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{v: "1" for v in BLAS_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode, args.workload,
           workdir, str(args.batches)]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:
        mode, name, workdir, batches = argv[1:]
        print(json.dumps(_child(mode, name, workdir, int(batches))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", required=True, choices=("band-1d", "reports-2d", "bridge-2d"))
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--batches", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.batches < 1:
        ap.error("--rounds and --batches must be at least 1")
    for src in (args.old_src, args.new_src):
        if not os.path.isdir(os.path.join(src, "msq")):
            ap.error(f"{src} holds no msq package")

    sides = {"old": args.old_src, "new": args.new_src}
    best = {side: [] for side in sides}
    failed, digests = dict.fromkeys(sides, 0), {}
    with tempfile.TemporaryDirectory(prefix="batch_ab-") as workdir:
        try:
            _run(args.old_src, "setup", args, workdir)
            for i in range(args.rounds):
                for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                    out = _run(sides[side], "batch", args, workdir)
                    best[side].append(out["best_s"])
                    failed[side] += out["failed"]
                    digests[side] = out["digests"]
        except subprocess.CalledProcessError as exc:
            print(f"{ap.prog}: error: a child process exited with {exc.returncode}",
                  file=sys.stderr)
            return 1
    won = sum(n < o for o, n in zip(best["old"], best["new"]))
    print(f"{args.workload}: fastest of {args.batches} batches per process, "
          f"{args.rounds} rounds, one BLAS thread")
    print("| side | src | median s | fastest s | failed ops |")
    print("|---|---|---|---|---|")
    for side, src in sides.items():
        print(f"| {side} | {src} | {statistics.median(best[side]):.4f} | "
              f"{min(best[side]):.4f} | {failed[side]} |")
    print(f"new faster in {won}/{args.rounds} rounds; "
          f"same outputs: {'yes' if digests['old'] == digests['new'] else 'no'}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
