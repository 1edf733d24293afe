"""msq benchmark: closed-loop batch workloads, measured end to end or traced.

    python3 perfbench/run.py --workload band-1d --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src``.  One
client, one process at a time, one BLAS thread.  The run starts measuring
processes of one round each until the next would end after ``--seconds``,
at least ``MIN_PROCESSES`` of them; the last one also checks the outputs.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (names and units as in BENCHMARK.json).  The line
before it records the run context.  Work files go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module, no msq import)

BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
MIN_PROCESSES = 3
WORKLOADS = ("band-1d", "reports-2d", "bridge-2d")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(mode, args, workdir, env, deadline, verify=0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", workdir,
           "--trace", str(args.trace), "--verify", str(verify)]
    # Own process group, so a timeout also ends the worker's set-up children.
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return out


def _measure(args, workdir, env, deadline):
    """One round per process until the next would end after ``--seconds``.

    The process that is last by that rule also runs the output checks.
    """
    rounds, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = (len(rounds) + 1 >= MIN_PROCESSES
                and elapsed + 2 * elapsed / max(len(rounds), 1) > args.seconds)
        out = _worker("measure", args, workdir, env, deadline, verify=int(last))
        rounds.append(json.loads(out.splitlines()[-1]))
        if last:
            return rounds


def _outcomes(rounds):
    """Attempted and failed operations over all rounds, with the messages.

    An operation fails in a batch when it raised, when its output differs
    from the first batch of its process or from the first process's, or,
    in every batch, when the output checks rejected it.
    """
    failed_ops = {}
    for r in rounds:
        for op, msgs in r["failed_ops"].items():
            failed_ops.setdefault(op, []).extend(msgs)
        for op, digest in r["digests"].items():
            if digest != rounds[0]["digests"].get(op):
                failed_ops.setdefault(op, []).extend(
                    ["output differs from the first process"] * r["batches"])
    checked = rounds[-1]["checked"]
    for op, msgs in checked.items():
        failed_ops.setdefault(op, []).extend(msgs)
    batches = sum(r["batches"] for r in rounds)
    failed = sum(batches if op in checked else min(len(msgs), batches)
                 for op, msgs in failed_ops.items())
    return sum(r["attempted"] for r in rounds), failed, failed_ops


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _context(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": WHY[args.workload],
        "loop": "closed, one client, one process",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "cache": _cache_sizes(),
    }


WHY = {
    "band-1d": "the paper's experiment; the only workload that reuses one field "
               "across alphas, so a matrix cache can act here",
    "reports-2d": "CLI reports at 2-d n=128: O(n^4) residual loops, strided bmo and "
                  "large outputs; its two alphas need different kinds (cache bypassed)",
    "bridge-2d": "graph bridge and Strichartz sums at 2-d n=64: per-cell eigh and "
                 "Python difference loops; coeffs is a small share",
}


def _check_declared(metrics, key):
    """The metric names printed must be exactly those BENCHMARK.json declares."""
    with open("BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if declared != printed:
        raise ValueError(f"metrics differ from BENCHMARK.json {key}: "
                         f"{sorted(set(declared.items()) ^ set(printed.items()))}")


def main(argv=None):
    args = _parse(argv)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "msq", "__init__.py")):
        return _fail("src/msq not found; run from the repository root")
    env = _child_env()
    workdir = os.path.abspath(os.path.join(
        ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    try:
        # The first set-up also compiles msq's bytecode; it is not timed.
        _worker("setup", args, workdir, env, deadline)
        rounds = _measure(args, workdir, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
        return _fail(str(exc))
    finally:
        for name in os.listdir(workdir):
            if name != "spans.jsonl":
                path = os.path.join(workdir, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    attempted, failed, failed_ops = _outcomes(rounds)
    samples = {key: [r[key] for r in rounds if key in r] for key in (
        "batch_s", "cpu_s", "chunk_s", "batch_cal", "setup_s", "setup_ref_s")}
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        key = "per_layer"
    else:
        metrics = {
            "batch_cal": {"value": statistics.median(samples["batch_cal"]), "unit": "chunks"},
            "setup_s": {"value": statistics.median(samples["setup_ref_s"]), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in rounds) / 1024.0,
                            "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
        key = "end_to_end"
    try:
        _check_declared(metrics, key)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(str(exc))
    context = _context(args)
    context.update(numpy_scipy=rounds[0]["versions"], processes=len(rounds),
                   batch_wall_median_s=statistics.median(samples["batch_s"]),
                   step_s={name: [r["step_s"][name] for r in rounds]
                           for name in rounds[0]["step_s"]},
                   failures={op: msgs[:5] for op, msgs in failed_ops.items()}, **samples)
    if samples["setup_s"]:
        context["setup_wall_median_s"] = statistics.median(samples["setup_s"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
