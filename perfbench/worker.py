"""Child process of the benchmark: one workload's set-up or one round.

    python3 perfbench/worker.py setup   --workload W --seed S --dir D
    python3 perfbench/worker.py measure --workload W --seed S --dir D
                                        --trace 0|1 [--verify 1]

``setup`` generates and saves the input fields.  ``measure`` runs one
round and prints one JSON line: a timed batch followed by a timed
``setup`` child process (``--trace 0``) or by a traced repetition, the
set-up and one batch under the tracer (``--trace 1``).  With ``--trace 0``
a calibration chunk runs before each step of the batch, after its last
step and after the set-up process.  ``--verify 1`` also runs the output
checks, after the round.  The parent runs one round per process, so that
what differs between processes (memory layout, string hashing) varies
across the samples of a run instead of shifting all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import calibrate
import layers
import tracing


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--verify", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Per-operation outcomes of a process's batches against its first one."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.batches = 0
        self.failed_ops = {}

    def add(self, outcomes):
        if self.reference is None:
            self.reference = {op: digest for op, (_, digest) in outcomes.items()}
        self.batches += 1
        for op, (ok, digest) in outcomes.items():
            self.attempted += 1
            if not ok:
                self.failed_ops.setdefault(op, []).append("operation failed")
            elif digest != self.reference[op]:
                self.failed_ops.setdefault(op, []).append("output differs from first batch")


def run_batch(workload, calibrated=False):
    """Results and wall seconds per step, then the batch's wall and CPU
    seconds summed over its steps, and the calibration chunks' seconds.

    With ``calibrated`` a calibration chunk runs before each step and
    after the last, so the chunks sample the host's speed across the
    batch; their time is not part of the batch's.  A step that raises
    yields its exception as the result, which the workload's
    ``outcomes`` counts as a failed operation.
    """
    results, step_s, chunks = {}, {}, []
    wall = cpu = 0.0
    for name, fn in workload.steps():
        if calibrated:
            chunks.append(calibrate.chunk())
        s0, c0 = time.perf_counter(), time.process_time()
        try:
            results[name] = fn()
        except Exception as exc:  # noqa: BLE001 - counted, and the run goes on
            traceback.print_exc()
            results[name] = exc
        step_s[name] = time.perf_counter() - s0
        wall += step_s[name]
        cpu += time.process_time() - c0
    if calibrated:
        chunks.append(calibrate.chunk())
    return results, step_s, wall, cpu, chunks


def timed_setup(workload):
    """Wall seconds of one set-up process: interpreter start, import msq,
    generate and save the inputs (into a directory of its own)."""
    target = workload.path("setup")
    os.makedirs(target, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "setup", "--workload", workload.name,
           "--seed", str(workload.seed), "--dir", target]
    # wait() without a timeout blocks in waitpid; with one it polls in
    # steps of up to 50 ms, which would quantize the measurement.  The
    # parent's deadline kills this whole process group if it hangs.
    t0 = time.perf_counter()
    code = subprocess.Popen(cmd).wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure(workload, trace, verify):
    """One round: a timed batch plus either a timed set-up process
    (trace 0) or a traced repetition (trace 1).

    With trace 0 one more calibration chunk follows the set-up process,
    and both the batch and the set-up are scaled by the round's mean
    chunk time.  The batch is timed in a process that has not run it
    before; the set-up process before this one has already compiled the
    bytecode.
    """
    ledger = Ledger()
    out = {"versions": [np.__version__, scipy.__version__], "layers": None}
    results, steps, wall, cpu, chunks = run_batch(workload, calibrated=not trace)
    ledger.add(workload.outcomes(results))
    out.update(batch_s=wall, cpu_s=cpu, step_s=steps)
    if trace:
        tracer = tracing.Tracer(layers.REQUIRED_CALLS)
        out["layers"] = _traced_repetition(workload, tracer, ledger, wall, cpu)
        tracer.write(workload.path("spans.jsonl"))
    else:
        setup = timed_setup(workload)
        chunks.append(calibrate.chunk())
        chunk = statistics.mean(chunks)
        out.update(chunk_s=chunk, batch_cal=wall / chunk, setup_s=setup,
                   setup_ref_s=setup / chunk * calibrate.REFERENCE_S)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(attempted=ledger.attempted, batches=ledger.batches, digests=ledger.reference,
               failed_ops=ledger.failed_ops, checked=workload.verify() if verify else {})
    return out


def _traced_repetition(workload, tracer, ledger, untraced_wall, untraced_cpu):
    with tracer:
        mark = tracer.mark()
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        results, _, wall, _, _ = run_batch(workload)
    summary = tracer.summary(mark)
    ledger.add(workload.outcomes(results))
    summary.update(
        repetition_s=t1 - t0 + wall,
        bytes_written=workload.bytes_written(),
        cpu_s=untraced_cpu,
        overhead_frac=(wall - untraced_wall) / untraced_wall,
    )
    zero = layers.zero_call_spans(workload.name, summary)
    if zero:
        raise LookupError(f"mapped spans recorded no call on {workload.name}: {zero}")
    return {name: m["value"] for name, m in layers.layer_metrics(summary).items()}


def main(argv=None):
    args = _parse(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.dir, args.seed)
    if args.mode == "setup":
        workload.setup()
        return 0
    out = measure(workload, args.trace, args.verify)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
