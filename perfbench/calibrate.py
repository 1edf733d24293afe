"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same code runs up to twice as slow in phases that
last from seconds to minutes, and CPU time slows with wall time, so the
slowdown is the host's and not the program's.  ``chunk`` does a fixed
amount of work of the kinds msq spends its time on, each about a fifth of
it: interpreter arithmetic, Python loops over small objects, numpy calls
on 2048-point arrays, 2-d FFTs and small ``eigh`` calls.  It imports
nothing from msq, so a change to the program never changes it.

The benchmark runs one chunk before each step of a batch, one after the
last step and one after the round's set-up process.  It reports the
batch's time in units of the round's mean chunk time.  The mean, not the
median: the batch runs at the host's mean speed over its steps, and so
does the mean of the chunks, while their median would follow whichever
speed was most common.  Set-up times are scaled the same way and reported
in seconds at the speed at which a chunk takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Seconds one chunk takes on the reference host (a 2-core Intel Xeon VM at
# 2.1 GHz, one BLAS thread): set-up times are reported in seconds at that
# speed.
REFERENCE_S = 0.05

_RNG = np.random.default_rng(20241015)
_LINE = _RNG.standard_normal(2048)
_PLANE = _RNG.standard_normal((128, 128))
_SYM = [(lambda a: a + a.T)(_RNG.standard_normal((3, 3))) for _ in range(8)]


def _work():
    acc = 0.0
    # Interpreter arithmetic, as the per-window Python loops.
    count = 0
    for i in range(100000):
        count += (i * 7) % 13
    acc += count
    # Python objects: tuples and a dict, as ball families and window lists.
    table = {}
    for i in range(24000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    acc += sum(table.values())
    # numpy on small arrays: shifted copies and window means.
    mean = _LINE.mean()
    for k in range(600):
        acc += float(np.abs(np.roll(_LINE, k) - mean).mean())
    # 2-d FFT round trips.
    for _ in range(16):
        acc += float(np.fft.ifftn(np.fft.fftn(_PLANE)).real[0, 0])
    # Small symmetric eigenproblems.
    for _ in range(100):
        for a in _SYM:
            acc += float(np.linalg.eigh(a)[0][0])
    return acc


def chunk():
    """Wall seconds of one fixed chunk of work.

    The garbage collector is off meanwhile: a collection that the chunk's
    allocations trigger would walk every object the program keeps alive,
    and so time the program's heap instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
