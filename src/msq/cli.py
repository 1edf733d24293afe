"""Batch command-line front end.

Subcommands: generate, coeffs, sqfn, bmo, strichartz, fracderiv, compare,
beta.  Long-form flags only.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric error, decided by the class of the error in main.  Every
output embeds the effective configuration and a format-version string;
re-running a command with the same inputs produces byte-identical files
(no timestamps anywhere).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bmo as bmo_mod
from . import carleson as carleson_mod
from . import coeffs as coeffs_mod
from . import corpus as corpus_mod
from . import geometry as geometry_mod
from . import spectral as spectral_mod
from .field import NumericError, make_grid, table_columns, window_rows

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type of the center strides: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _effective_config(args, keys) -> dict:
    cfg = {"format_version": FORMAT_VERSION, "command": args.command}
    for k in keys:
        v = getattr(args, k)
        if isinstance(v, np.floating):
            v = float(v)
        cfg[k] = v
    return cfg


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                txt = line.strip()
                if not txt or txt.startswith("#"):
                    continue
                if "=" not in txt:
                    raise UsageError(f"{path}:{line_no}: config lines must be key=value")
                key, val = txt.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
        return out
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc


def _config_tokens(args, command_parser) -> list:
    """The --config file's values as flag tokens of the active subcommand.

    Parsed ahead of the command line, each value takes its flag's type and
    choices, and a flag given on the command line wins (argparse keeps the
    last value); a switch is set by a true-ish value.
    """
    tokens = []
    for key, raw in _load_config_file(args.config).items():
        if not hasattr(args, key):
            raise UsageError(f"config key {key!r} is not a flag of {args.command}")
        flag = "--" + key.replace("_", "-")
        if isinstance(command_parser.get_default(key), bool):
            if raw.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _float_list(text: str, flag: str):
    tokens = text.split(",")
    if "" in tokens:
        raise UsageError(f"--{flag} has an empty entry in {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"--{flag} wants a comma-separated float list") from exc


def _ladder_for(grid, args):
    """The flags' scale ladder.  Without --top-radius and --levels the
    default ladder can only fail on too coarse a grid: a data error."""
    try:
        return coeffs_mod.make_ladder(grid, top_radius=args.top_radius, levels=args.levels)
    except ValueError as exc:
        if args.top_radius is None and args.levels is None:
            raise corpus_mod.FieldFileError(f"{args.field}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args):
    _require(args, ["family", "n", "out"])
    spec = corpus_mod.CorpusSpec(
        family=args.family,
        grid=make_grid(args.dim, args.n, args.period),
        gamma=args.gamma,
        beta_w=args.beta_w,
        levels=args.levels,
        alpha=args.alpha,
        seed=args.seed,
        frequency=args.frequency,
    )
    field = corpus_mod.generate(spec)
    corpus_mod.save_field(field, args.out, extra=spec.params())
    return EXIT_OK


def _cmd_coeffs(args):
    _require(args, ["field", "kind", "out"])
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    matrix = coeffs_mod.coefficient_matrix(field, ladder, args.kind)
    import io

    buf = io.StringIO()
    coeffs_mod.write_matrix_csv(matrix, buf)
    _atomic_write(args.out, buf.getvalue())
    meta_path = args.meta if args.meta else args.out + ".json"
    payload = {
        "config": _effective_config(args, ["field", "kind", "top_radius", "levels", "out"]),
        "metadata": coeffs_mod.matrix_metadata(matrix),
    }
    _write_json(meta_path, payload)
    return EXIT_OK


def _write_rows_csv(path: str, columns, rows) -> None:
    """Header, then one line per row: integers (center indices, k) in
    decimal, every other value as its shortest round-trip float."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row)
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _window_table(dim: int, names, rows):
    """The columns center_index_k then names, and the window rows
    (center tuple, value...) as flat lists, produced lazily."""
    columns = [f"center_index_{k}" for k in range(dim)] + names
    return columns, (list(center) + list(rest) for center, *rest in rows)


def _write_report(args, keys, metadata, scalars, label, names, rows) -> None:
    """A window report: its rows to --out-csv when given, and the config,
    scalars, rows (under label) and metadata to --out-json."""
    columns, flat = _window_table(len(rows[0][0]), names, rows)
    flat = list(flat)
    if args.out_csv:
        _write_rows_csv(args.out_csv, columns, flat)
    _write_json(args.out_json, {"config": _effective_config(args, keys), **scalars, label: flat,
                                label + "_columns": columns, "metadata": metadata})


def _cmd_sqfn(args):
    _require(args, ["field", "kind", "alpha", "out_json"])
    if not (0.0 < args.alpha < 2.0):
        raise UsageError("--alpha must lie in (0, 2)")
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    matrix = coeffs_mod.coefficient_matrix(field, ladder, args.kind)
    tops = _float_list(args.tops, "tops") if args.tops else None
    report = carleson_mod.carleson_constant(matrix, args.alpha, tops=tops, stride=args.stride)
    _write_report(args, ["field", "kind", "alpha", "top_radius", "levels", "stride", "tops"],
                  report.metadata, {"constant": report.constant},
                  "per_window", ["top_radius", "normalized_integral"], report.per_window)
    return EXIT_OK


def _cmd_bmo(args):
    _require(args, ["field", "out_json"])
    field, _ = corpus_mod.load_field(args.field)
    if args.radii:
        radii = _float_list(args.radii, "radii")
    else:
        radii = [float(r) for r in _ladder_for(field.grid, args).radii]
    windows = bmo_mod.make_ball_family(field.grid, radii, stride=args.stride)
    report = bmo_mod.bmo_norm(field, windows)
    _write_report(args, ["field", "radii", "top_radius", "levels", "stride"],
                  dict(report.metadata, radii=radii, stride=args.stride), {"norm": report.norm},
                  "per_window", ["radius", "mean_oscillation"], report.per_window)
    return EXIT_OK


def _cmd_strichartz(args):
    _require(args, ["field", "alpha", "order", "out_json"])
    field, _ = corpus_mod.load_field(args.field)
    sides = _float_list(args.sides, "sides") if args.sides else None
    cubes = bmo_mod.make_cube_family(field.grid, sides=sides, stride=args.stride)
    strichartz = bmo_mod.strichartz_first if args.order == "first" else bmo_mod.strichartz_second
    report = strichartz(field, args.alpha, cubes)
    _write_report(args, ["field", "alpha", "order", "sides", "stride"],
                  report.metadata, {"B": report.B},
                  "per_cube", ["side", "value"], report.per_cube)
    return EXIT_OK


def _cmd_fracderiv(args):
    _require(args, ["field", "alpha", "out"])
    field, meta = corpus_mod.load_field(args.field)
    if not (0.0 < args.alpha < 2.0):
        raise UsageError("--alpha must lie in (0, 2)")
    out = spectral_mod.fractional_derivative(field, args.alpha)
    extra = {"derived_from": os.path.basename(args.field), "derivative_order": repr(args.alpha)}
    if "family" in meta:
        extra["family"] = meta["family"]
    corpus_mod.save_field(out, args.out, extra=extra)
    return EXIT_OK


def _cmd_compare(args):
    _require(args, ["field", "alphas", "out"])
    alphas = _float_list(args.alphas, "alphas")
    if not alphas or any(not (0.0 < a < 2.0) for a in alphas):
        raise UsageError("--alphas must be a nonempty list inside (0, 2)")
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    records = [dataclasses.asdict(carleson_mod.comparability_experiment(
        field, a, ladder=ladder, stride=args.stride)) for a in alphas]
    config = _effective_config(args, ["field", "alphas", "top_radius", "levels", "stride"])
    _write_json(args.out, {"config": config, "records": records})
    return EXIT_OK


def _cmd_beta(args):
    _require(args, ["out"])
    if args.graph:
        _require(args, ["field"])
        field, _ = corpus_mod.load_field(args.field)
        ladder = _ladder_for(field.grid, args)
        rep = geometry_mod.graph_beta_vs_nu1(field, ladder, stride=args.stride)
        rows = window_rows(*table_columns(rep.centers, rep.radii, rep.beta, rep.nu1))
        _write_rows_csv(args.out, *_window_table(field.grid.dim, ["radius", "beta", "nu1"], rows))
        meta = {
            "config": _effective_config(
                args, ["field", "graph", "top_radius", "levels", "stride", "k"]
            ),
            "lipschitz": rep.lipschitz,
            "max_beta_over_nu1": rep.max_beta_over_nu1,
            "max_nu1_over_beta": rep.max_nu1_over_beta,
            "insufficient_cells": rep.insufficient_cells,
        }
        _write_json(args.out + ".json", meta)
        return EXIT_OK

    _require(args, ["cloud", "radius", "k"])
    cloud, weighted = geometry_mod.load_cloud(args.cloud, ambient_dim=args.ambient_dim)
    if args.center:
        center = _float_list(args.center, "center")
        if len(center) != cloud.ambient_dim:
            raise UsageError("--center rank does not match the cloud")
        if not np.all(np.isfinite(center)):
            raise UsageError(f"--center {args.center} is not finite")
    else:
        center = list(cloud.points.mean(axis=0))
    beta, _ = geometry_mod.beta2k(cloud, np.asarray(center), args.radius, args.k)
    cols = [f"center_{k}" for k in range(cloud.ambient_dim)] + ["radius", "k", "beta"]
    _write_rows_csv(args.out, cols, [list(center) + [args.radius, args.k, beta]])
    meta = {
        "config": _effective_config(
            args, ["cloud", "ambient_dim", "center", "radius", "k"]
        ),
        "weights": "file column" if weighted else "unit (no weight column)",
        "n_points": int(cloud.points.shape[0]),
        "beta": beta,
    }
    _write_json(args.out + ".json", meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    """The top-level parser and the subcommand parsers keyed by name."""
    parser = _Parser(prog="msq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, description, ladder=False):
        p = sub.add_parser(name, description=description)
        p.add_argument("--config", default=None, help="flat key=value config file")
        if ladder:  # a field file and its scale ladder
            p.add_argument("--field", default=None)
            p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
            p.add_argument("--levels", type=int, default=None)
        return p

    p = command("generate", "generate a corpus field file")
    p.add_argument("--family", default=None, choices=corpus_mod.FAMILIES)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--period", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--beta-w", dest="beta_w", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frequency", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("coeffs", "coefficient matrix to CSV", ladder=True)
    p.add_argument("--kind", default=None, choices=coeffs_mod.KINDS)
    p.add_argument("--out", default=None)
    p.add_argument("--meta", default=None)

    p = command("sqfn", "square-function Carleson report", ladder=True)
    p.add_argument("--kind", default=None, choices=coeffs_mod.KINDS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--tops", default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = command("bmo", "mean-oscillation report", ladder=True)
    p.add_argument("--radii", default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = command("strichartz", "difference-functional report")
    p.add_argument("--field", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--order", default=None, choices=("first", "second"))
    p.add_argument("--sides", default=None)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = command("fracderiv", "fractional derivative field")
    p.add_argument("--field", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)

    p = command("compare", "square-function vs BMO comparability", ladder=True)
    p.add_argument("--alphas", default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out", default=None)

    p = command("beta", "plane-approximation numbers", ladder=True)
    p.add_argument("--cloud", default=None)
    p.add_argument("--ambient-dim", dest="ambient_dim", type=int, default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--graph", action="store_true", default=False)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out", default=None)

    return parser, sub.choices


_COMMANDS = {
    "generate": _cmd_generate,
    "coeffs": _cmd_coeffs,
    "sqfn": _cmd_sqfn,
    "bmo": _cmd_bmo,
    "strichartz": _cmd_strichartz,
    "fracderiv": _cmd_fracderiv,
    "compare": _cmd_compare,
    "beta": _cmd_beta,
}


# Error classes and their exit codes, tried in order: the first row that
# matches decides.  FieldFileError, NumericError and LinAlgError are
# ValueErrors, so the last row only catches the other ValueErrors,
# UsageError among them.
_EXIT_CODES = (
    ((corpus_mod.FieldFileError, OSError), EXIT_DATA, "data"),
    ((NumericError, np.linalg.LinAlgError, ArithmeticError), EXIT_NUMERIC, "numeric"),
    (ValueError, EXIT_USAGE, "usage"),
)


def main(argv=None) -> int:
    """Run one command and return its exit code.  Numpy overflow, division
    by zero and invalid operations raise FloatingPointError (an
    ArithmeticError) instead of writing NaN or inf with a warning."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args = parser.parse_args(argv)
            if args.config:
                tokens = _config_tokens(args, commands[args.command])
                args = parser.parse_args(argv[:1] + tokens + argv[1:])
            return _COMMANDS[args.command](args)
    except Exception as exc:
        for classes, code, label in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"msq: error: {label}: {exc}", file=sys.stderr)
                return code
        raise


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
