"""The three batch workloads: inputs from the seed, one batch, its checks.

Every workload is a closed loop: one client in one process, each operation
starting after the previous one finished.  ``setup`` generates and saves
the input fields; ``steps`` lists the timed calls of one batch, each timed
on its own; ``outcomes`` turns a batch's results into a digest per
operation (compared across the batches of one run, so re-runs must be
byte-identical); ``verify`` spot-checks the latest outputs against
per-window oracles.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import os

import numpy as np

import checks
import msq.cli
import msq.experiments
from msq import bmo, carleson, coeffs, corpus, spectral
from msq.field import make_grid


class Workload:
    name = None

    def __init__(self, workdir, seed):
        self.dir = workdir
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    def path(self, name):
        return os.path.join(self.dir, name)

    def bytes_written(self):
        return 0

    def sample_rng(self, tag):
        """Seeded sampler for the checks of one operation."""
        return np.random.default_rng([self.seed, *tag.encode()])


# ---------------------------------------------------------------------------
# band-1d: experiments.comparability_ratios + two_sided_band


class Band1d(Workload):
    name = "band-1d"
    grid = make_grid(1, 2048, 1.0)

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        noise_seeds = iter(self.rng.integers(0, 2 ** 31, size=3).tolist())
        self.specs = [
            dataclasses.replace(s, seed=next(noise_seeds)) if s.seed is not None else s
            for s in msq.experiments.default_specs(self.grid)
        ]
        self.pairs = []  # (spec index, ratio key, alpha)
        for i, spec in enumerate(self.specs):
            lo, hi = corpus.expected_regularity(spec).alpha_band
            for a in msq.experiments.ALPHA_GRID:
                if lo < a <= hi:
                    self.pairs.append((i, (spec.family, spec.alpha, a), a))
        self.ops = tuple(f"pair:{key[0]}:{key[1]}:{key[2]}" for _, key, _ in self.pairs)

    def setup(self):
        for i, spec in enumerate(self.specs):
            corpus.save_field(corpus.generate(spec), self.path(f"band{i}.fld"),
                              extra=spec.params())

    def steps(self):
        """One comparability_ratios call per field (all its alphas), then
        the band over every ratio."""
        ratios = {}

        def field_step(spec):
            def run():
                ratios.update(msq.experiments.comparability_ratios([spec]))
            return run

        return [(f"field{i}", field_step(spec)) for i, spec in enumerate(self.specs)] + [
            ("band", lambda: (ratios, msq.experiments.two_sided_band(ratios)))]

    def outcomes(self, results):
        if isinstance(results["band"], Exception):
            ratios, band_ok = {}, False
        else:
            ratios, band = results["band"]
            vals = [v for v in ratios.values() if v is not None]
            band_ok = bool(vals) and band == max(max(vals), 1.0 / min(vals))
        self.last = ratios  # the latest batch, spot-checked by verify()
        out = {}
        for op, (_, key, _) in zip(self.ops, self.pairs):
            r = ratios.get(key)
            ok = band_ok and r is not None and np.isfinite(r) and r > 0
            out[op] = (ok, repr(r))
        return out

    def verify(self):
        rng = self.sample_rng("pairs")
        failures = {}
        for k in sorted(rng.choice(len(self.pairs), size=4, replace=False).tolist()):
            i, key, alpha = self.pairs[k]
            field, _ = corpus.load_field(self.path(f"band{i}.fld"))
            msgs = _check_comparability(field, alpha, 1, self.last.get(key), None, rng)
            if msgs:
                failures[self.ops[k]] = msgs
        return failures


def _check_comparability(field, alpha, stride, ratio, record, rng):
    """Recompute one comparability record from spot-checked parts."""
    msgs = []
    grid = field.grid
    ladder = coeffs.make_ladder(grid)
    kind = "nu0" if alpha < 1.0 else "nu1"
    if record is not None and record["kind"] != kind:
        msgs.append(f"kind {record['kind']} for alpha {alpha}")
    matrix = coeffs.coefficient_matrix(field, ladder, kind)
    msgs += _check_matrix(field, matrix, rng)
    rep = carleson.carleson_constant(matrix, alpha, stride=stride)
    msgs += _check_carleson(matrix, alpha, rep.per_window, rep.constant, rng)
    deriv = spectral.fractional_derivative(field, alpha)
    osc = bmo.bmo_norm(deriv, bmo.make_ball_family(grid, ladder.radii, stride=stride))
    msgs += _check_bmo(deriv, osc.per_window, osc.norm, rng)
    c_sq, b_sq = rep.constant, osc.norm ** 2
    if record is not None:
        if not (checks.close(record["carleson_sq"], c_sq)
                and checks.close(record["bmo_norm_sq"], b_sq)):
            msgs.append(f"alpha {alpha}: record disagrees with recomputed parts")
        c_sq, b_sq, ratio = record["carleson_sq"], record["bmo_norm_sq"], record["ratio"]
    if ratio is None or not checks.close(ratio, c_sq / b_sq):
        msgs.append(f"alpha {alpha}: ratio {ratio} != {c_sq / b_sq}")
    return msgs


def _check_matrix(field, matrix, rng, count=6):
    msgs = []
    radii = matrix.ladder.radii
    for flat in rng.choice(matrix.grid.n_points, size=count, replace=False).tolist():
        j = int(rng.integers(len(radii)))
        center = tuple(int(c) for c in np.unravel_index(flat, matrix.grid.shape))
        got, want = float(matrix.values[flat, j]), checks.coefficient(field, matrix.kind, center, radii[j])
        if not checks.close(got, want):
            msgs.append(f"{matrix.kind} at {center} r={radii[j]}: {got!r} != oracle {want!r}")
    return msgs


def _check_carleson(matrix, alpha, rows, constant, rng):
    msgs = []
    if constant != max(r[-1] for r in rows):
        msgs.append("carleson constant is not the table maximum")
    for center, top, value in checks.sample_rows(rng, rows, 5):
        want = checks.normalized_integral(matrix, alpha, center, top)
        if not checks.close(value, want):
            msgs.append(f"carleson at {center} R={top}: {value!r} != oracle {want!r}")
    return msgs


def _check_bmo(field, rows, norm, rng):
    msgs = []
    if norm != max(r[-1] for r in rows):
        msgs.append("bmo norm is not the family maximum")
    for center, radius, value in checks.sample_rows(rng, rows, 6):
        want = checks.mean_oscillation(field, center, radius)
        if not checks.close(value, want):
            msgs.append(f"bmo at {center} r={radius}: {value!r} != oracle {want!r}")
    return msgs


# ---------------------------------------------------------------------------
# CLI workloads: in-process msq.cli.main, outputs hashed per operation


class CliWorkload(Workload):
    def commands(self):
        """op name -> (argv, output files, check of those outputs)"""
        raise NotImplementedError

    def steps(self):
        return [(op, functools.partial(msq.cli.main, argv))
                for op, (argv, _, _) in self.commands().items()]

    def outcomes(self, results):
        out = {}
        for op, (_, files, _) in self.commands().items():
            digest = hashlib.sha256()
            for path in files:
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
            out[op] = (results[op] == 0, digest.hexdigest())
        return out

    def bytes_written(self):
        return sum(os.path.getsize(p) for _, files, _ in self.commands().values()
                   for p in files if os.path.exists(p))

    def verify(self):
        failures = {}
        for op, (_, _, check) in self.commands().items():
            try:
                msgs = check(self.sample_rng(op))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                msgs = [f"unreadable output: {exc!r}"]
            if msgs:
                failures[op] = msgs
        return failures


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rows(raw, dim):
    """(center tuple, radius, value) rows from JSON per-window lists."""
    return [(tuple(int(c) for c in r[:dim]), float(r[dim]), float(r[dim + 1])) for r in raw]


class Reports2d(CliWorkload):
    name = "reports-2d"
    ALPHA = 1.3

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.noise_seed = int(self.rng.integers(0, 2 ** 31))

    def setup(self):
        grid = make_grid(2, 128, 1.0)
        spec = corpus.CorpusSpec(family="riesz_of_noise", grid=grid, alpha=self.ALPHA,
                                 seed=self.noise_seed)
        corpus.save_field(corpus.generate(spec), self.path("noise.fld"), extra=spec.params())

    def commands(self):
        fld, p, alpha = self.path("noise.fld"), self.path, repr(self.ALPHA)
        return {
            "coeffs": (["coeffs", "--field", fld, "--kind", "nu1", "--out", p("coeffs.csv")],
                       [p("coeffs.csv"), p("coeffs.csv.json")], self.check_coeffs),
            "sqfn": (["sqfn", "--field", fld, "--kind", "nu1_bar", "--alpha", alpha,
                      "--stride", "4", "--out-json", p("sqfn.json"), "--out-csv", p("sqfn.csv")],
                     [p("sqfn.json"), p("sqfn.csv")], self.check_sqfn),
            "bmo": (["bmo", "--field", fld, "--stride", "8", "--out-json", p("bmo.json")],
                    [p("bmo.json")], self.check_bmo),
            "fracderiv": (["fracderiv", "--field", fld, "--alpha", alpha, "--out", p("deriv.fld")],
                          [p("deriv.fld")], self.check_fracderiv),
            "compare": (["compare", "--field", fld, "--alphas", f"0.5,{alpha}", "--stride", "8",
                         "--out", p("compare.json")], [p("compare.json")], self.check_compare),
        }

    def field(self):
        return corpus.load_field(self.path("noise.fld"))[0]

    def check_coeffs(self, rng):
        field = self.field()
        head, body = _read_csv(self.path("coeffs.csv"))
        meta = _read_json(self.path("coeffs.csv.json"))["metadata"]
        ladder = coeffs.make_ladder(field.grid)
        msgs = []
        if head != ["center_index_0", "center_index_1", "radius", "value"] \
                or len(body) != field.grid.n_points * ladder.levels or meta["kind"] != "nu1":
            msgs.append("coeffs CSV layout or metadata")
        for row in checks.sample_rows(rng, body, 6, value=lambda r: float(r[-1])):
            want = checks.coefficient(field, "nu1", (int(row[0]), int(row[1])), float(row[2]))
            if not checks.close(float(row[3]), want):
                msgs.append(f"nu1 row {row}: oracle {want!r}")
        return msgs

    def check_sqfn(self, rng):
        field = self.field()
        payload = _read_json(self.path("sqfn.json"))
        rows = _rows(payload["per_window"], 2)
        _, body = _read_csv(self.path("sqfn.csv"))
        msgs = []
        if len(rows) != (128 // 4) ** 2 * 4 or _rows(body, 2) != rows:
            msgs.append("sqfn CSV and JSON rows disagree or have the wrong count")
        matrix = coeffs.coefficient_matrix(field, coeffs.make_ladder(field.grid), "nu1_bar")
        msgs += _check_matrix(field, matrix, rng)
        msgs += _check_carleson(matrix, self.ALPHA, rows, payload["constant"], rng)
        return msgs

    def check_bmo(self, rng):
        payload = _read_json(self.path("bmo.json"))
        rows = _rows(payload["per_window"], 2)
        msgs = [] if len(rows) == (128 // 8) ** 2 * 4 else ["bmo row count"]
        return msgs + _check_bmo(self.field(), rows, payload["norm"], rng)

    def check_fracderiv(self, rng):
        # The order-alpha derivative of riesz_of_noise(alpha) is the +-1
        # noise minus its mean: two levels exactly 2 apart.
        deriv, _ = corpus.load_field(self.path("deriv.fld"))
        v = deriv.values
        top = v.max()
        off = np.minimum(np.abs(v - top), np.abs(v - (top - 2.0)))
        if off.max() > checks.TOL or abs(v.mean()) > checks.TOL:
            return [f"derivative is not two-level noise: max offset {off.max():.3e}"]
        return []

    def check_compare(self, rng):
        field = self.field()
        records = _read_json(self.path("compare.json"))["records"]
        msgs = [] if [r["alpha"] for r in records] == [0.5, self.ALPHA] else ["compare alphas"]
        for rec in records:
            msgs += _check_comparability(field, rec["alpha"], 8, None, rec, rng)
        return msgs


class Bridge2d(CliWorkload):
    name = "bridge-2d"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        u = self.rng.random(3)
        self.gamma = float(round(0.6 + 0.35 * u[0], 3))
        self.alphas = {"first": float(round(0.3 + 0.4 * u[1], 3)),
                       "second": float(round(1.0 + 0.5 * u[2], 3))}

    def setup(self):
        grid = make_grid(2, 64, 1.0)
        for name, spec in (("bump", corpus.CorpusSpec(family="smooth_bump", grid=grid)),
                           ("cusp", corpus.CorpusSpec(family="cusp", grid=grid,
                                                      gamma=self.gamma))):
            corpus.save_field(corpus.generate(spec), self.path(f"{name}.fld"),
                              extra=spec.params())

    def commands(self):
        p = self.path
        out = {"beta": (["beta", "--graph", "--field", p("bump.fld"), "--out", p("beta.csv")],
                        [p("beta.csv"), p("beta.csv.json")], self.check_beta)}
        for order, alpha in self.alphas.items():
            out[f"strichartz-{order}"] = (
                ["strichartz", "--field", p("cusp.fld"), "--alpha", repr(alpha),
                 "--order", order, "--out-json", p(f"st_{order}.json")],
                [p(f"st_{order}.json")], functools.partial(self.check_strichartz, order))
        return out

    def check_beta(self, rng):
        field, _ = corpus.load_field(self.path("bump.fld"))
        head, body = _read_csv(self.path("beta.csv"))
        levels = coeffs.make_ladder(field.grid).levels
        msgs = []
        if head != ["center_index_0", "center_index_1", "radius", "beta", "nu1"] \
                or len(body) != field.grid.n_points * levels:
            msgs.append("beta CSV layout")
        for row in checks.sample_rows(rng, body, 5, value=lambda r: float(r[3])):
            center, r = (int(row[0]), int(row[1])), float(row[2])
            for got, want in ((row[3], checks.graph_beta(field, center, r)),
                              (row[4], checks.coefficient(field, "nu1", center, r))):
                if not checks.close(float(got), want):
                    msgs.append(f"beta row {row}: oracle {want!r}")
        return msgs

    def check_strichartz(self, order, rng):
        field, _ = corpus.load_field(self.path("cusp.fld"))
        payload = _read_json(self.path(f"st_{order}.json"))
        rows = _rows(payload["per_cube"], 2)
        msgs = [] if payload["B"] == max(r[-1] for r in rows) else ["B is not the maximum"]
        for center, side, value in checks.sample_rows(rng, rows, 4):
            want = checks.strichartz_cube(field, center, side, self.alphas[order], order)
            if not checks.close(value, want):
                msgs.append(f"{order} cube {center} side {side}: {value!r} != {want!r}")
        return msgs


WORKLOADS = {cls.name: cls for cls in (Band1d, Reports2d, Bridge2d)}
