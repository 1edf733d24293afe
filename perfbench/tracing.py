"""Per-layer tracing from outside the program.

The tracer wraps every public function of every msq module under every
name that binds it (``carleson.coefficient_matrix`` is the same object as
``coeffs.coefficient_matrix``), plus four numpy entry points that only
count calls and array sizes.  Spans live in memory and are written out at
the end of a run.  Nothing under ``src/msq`` is modified: the wrappers are
installed by attribute assignment and removed again on exit, so untraced
batches in the same process run the unwrapped code.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("field", "spectral", "coeffs", "carleson", "bmo", "geometry",
           "corpus", "experiments", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Span attributes recorded for the few functions whose work size the
# per-layer table reports; every other span records none.
_ATTRS = {
    "coeffs.coefficient_matrix": lambda a, k: {"kind": _arg(a, k, 2, "kind")},
    "bmo.bmo_norm": lambda a, k: {"windows": len(_arg(a, k, 1, "windows"))},
    "bmo.strichartz_first": lambda a, k: {"cubes": len(_arg(a, k, 2, "cubes"))},
    "bmo.strichartz_second": lambda a, k: {"cubes": len(_arg(a, k, 2, "cubes"))},
}

# numpy boundary: (owner, attribute, call counter, size counter, size of
# the input array it adds).  Sizes are computed, not measured traffic.
_NUMPY = (
    (np, "roll", "numpy.roll_calls", "numpy.roll_bytes_computed", "nbytes"),
    (np.fft, "fftn", "numpy.fft_calls", "numpy.fft_points", "size"),
    (np.fft, "ifftn", "numpy.fft_calls", "numpy.fft_points", "size"),
    (np.linalg, "eigh", "numpy.eigh_calls", None, None),
)


class Tracer:
    """Wraps msq and numpy entry points while installed; keeps spans."""

    def __init__(self, required_functions=()):
        self.spans = []  # [name, t0, t1, parent index or -1, attrs or None]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []
        self._required = tuple(required_functions)

    # -- installation -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attrs_of(args, kwargs) if attrs_of else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, calls_key, size_key, size_attr):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            counts[calls_key] += 1
            if size_key:
                counts[size_key] += getattr(np.asarray(a), size_attr)
            return fn(a, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        msq = importlib.import_module("msq")
        mods = {short: importlib.import_module(f"msq.{short}") for short in MODULES}
        wrappers, names = {}, set()
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names.add(f"{short}.{attr}")
                    wrappers[obj] = self._span_wrapper(f"{short}.{attr}", obj)
        missing = [n for n in self._required if n not in names]
        if missing:
            raise LookupError(f"traced functions not found in msq: {missing}")
        for mod in (msq, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for owner, attr, *keys in _NUMPY:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), *keys))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- aggregation --------------------------------------------------------

    def mark(self):
        """Position to pass to ``summary`` for spans recorded after now."""
        return len(self.spans), collections.Counter(self.counts)

    def summary(self, mark):
        """Calls, inclusive and self seconds, and attribute sums per span name
        for the spans recorded since ``mark``, plus numpy counters."""
        start, counts_before = mark
        spans = self.spans
        calls = collections.Counter()
        incl = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        attrs = collections.Counter()
        child = collections.defaultdict(float)
        root = 0.0
        for i in range(start, len(spans)):
            name, t0, t1, parent, extra = spans[i]
            dur = t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                root += dur
            if not self._has_ancestor(i, name):
                incl[name] += dur
            if extra:
                for key, val in extra.items():
                    if isinstance(val, str):
                        calls[f"{name}.{val}"] += 1
                        incl[f"{name}.{val}"] += dur
                    else:
                        attrs[f"{name}.{key}"] += val
        for i in range(start, len(spans)):
            self_s[spans[i][0]] += spans[i][2] - spans[i][1] - child[i]
        counts = collections.Counter(self.counts)
        counts.subtract(counts_before)
        return {"calls": calls, "incl": incl, "self": self_s, "attrs": attrs,
                "numpy": counts, "root_s": root}

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "attrs": extra}) + "\n")
