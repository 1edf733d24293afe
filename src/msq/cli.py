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
import traceback
from typing import Callable, NamedTuple

import numpy as np

from . import bmo as bmo_mod
from . import carleson as carleson_mod
from . import coeffs as coeffs_mod
from . import corpus as corpus_mod
from . import geometry as geometry_mod
from . import spectral as spectral_mod
from .field import NumericError, lattice_centers, make_grid, table_columns

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


def positive_int(text: str) -> int:
    """argparse type of the center strides: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def float_list(text: str, lo: float = None, hi: float = None, hi_closed: bool = False) -> list:
    """argparse type of a comma-separated float list; with bounds, every
    entry must lie in (lo, hi), or in (lo, hi] when hi_closed."""
    tokens = text.split(",")
    if "" in tokens:
        raise argparse.ArgumentTypeError(f"has an empty entry in {text!r}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise argparse.ArgumentTypeError("wants a comma-separated float list") from None
    if lo is not None and not all(lo < v < hi or (hi_closed and v == hi) for v in values):
        raise argparse.ArgumentTypeError(f"must be a nonempty list inside ({lo:g}, {hi:g}"
                                         + ("]" if hi_closed else ")"))
    return values


# ---------------------------------------------------------------------------
# output tables: the cells of a window table, formatted once for the CSV
# and the JSON writer


def _column_cells(column: np.ndarray) -> list:
    """The cells of a 1-d column as text, the repr of each value (str for
    ints), with each distinct value formatted once.  Floats are told apart
    by their bit pattern, so -0.0 and 0.0 keep their own text."""
    key = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(key, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(column.dtype).tolist())), dtype=object)
    return text[inverse].tolist()


def _table_cells(columns):
    """Yield the cells of the parallel 1-d column arrays 4096 rows at a
    time: for each chunk, the list of every column's cells."""
    for lo in range(0, len(columns[0]), 4096):
        yield [_column_cells(column[lo:lo + 4096]) for column in columns]


class _Table(list):
    """A window table's cells, one _table_cells chunk per entry, for a
    report's table in write_json."""


def _write_rows_csv(path: str, names, cells) -> None:
    """Header, then one line per row of a table's cells (_table_cells),
    comma-separated: integer columns (center indices, k) in decimal, every
    other column as its shortest round-trip float.  Written a chunk at a
    time, so that a streamed table is never held as text at once."""
    def chunks():
        yield ",".join(names) + "\n"
        for chunk in cells:
            yield "\n".join(map(",".join, zip(*chunk))) + "\n"

    corpus_mod.atomic_write(path, chunks())


def write_json(path: str, payload: dict) -> None:
    """Write payload, a dict with str keys, as json.dumps(payload, indent=2,
    sort_keys=True) plus a newline, byte for byte.  A _Table value is
    written as its list of rows from its cells; every other value is
    json.dumps(value, indent=2, sort_keys=True), indented one level, and
    encoded before the file is opened, so that a value json cannot encode
    leaves no file behind."""
    # json escapes newlines inside strings, so each newline starts a line
    encoded = {key: payload[key] if isinstance(payload[key], _Table)
               else json.dumps(payload[key], indent=2, sort_keys=True).replace("\n", "\n  ")
               for key in sorted(payload)}

    def chunks():
        sep = "{"
        for key, value in encoded.items():
            yield f"{sep}\n  {json.dumps(key)}: "
            yield from _json_rows(value) if isinstance(value, _Table) else [value]
            sep = ","
        yield "\n}\n" if encoded else "{}\n"

    corpus_mod.atomic_write(path, chunks())


_JSON_ROW = "[\n      {}\n    ]".format  # a row list at depth 2


def _json_rows(table: _Table):
    """The table's rows as json.dumps writes a list of number lists at depth
    1.  The cells are number reprs, so "nan" and "inf" occur in them only as
    non-finite floats, which json spells NaN, Infinity and -Infinity."""
    sep = "["
    for chunk in table:
        text = ",\n    ".join(map(_JSON_ROW, map(",\n      ".join, zip(*chunk))))
        yield f"{sep}\n    " + text.replace("nan", "NaN").replace("inf", "Infinity")
        sep = ","
    yield "[]" if sep == "[" else "\n  ]"


def _effective_config(args, keys) -> dict:
    cfg = {"format_version": FORMAT_VERSION, "command": args.command}
    for k in keys:
        cfg[k] = getattr(args, k)
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
        flag = _flag(key)
        if isinstance(command_parser.get_default(key), bool):
            if raw.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"{_flag(name)} is required")


def _float_list(text: str, flag: str, *bounds):
    try:
        return float_list(text, *bounds)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--{flag} {exc}") from None


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
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    matrix = coeffs_mod.coefficient_matrix(field, ladder, args.kind)
    table = table_columns(lattice_centers(field.grid), ladder.radii, matrix.values)
    _write_rows_csv(args.out, *_window_table(["radius", "value"], *table))
    meta_path = args.meta if args.meta else args.out + ".json"
    payload = {
        "config": _effective_config(args, ["field", "kind", "top_radius", "levels", "out"]),
        "metadata": coeffs_mod.matrix_metadata(matrix),
    }
    write_json(meta_path, payload)
    return EXIT_OK


def _window_table(names, centers, sizes, *values):
    """The column names center_index_k then names, and the cells
    (_table_cells) of the parallel window arrays (centers, sizes, values...)."""
    names = [f"center_index_{k}" for k in range(centers.shape[1])] + names
    return names, _table_cells([*centers.T, sizes, *values])


def _write_report(args, keys, metadata, scalars, label, names, table) -> None:
    """A window report: its table, the parallel window arrays (centers,
    sizes, values...), to --out-csv when given, and the config, scalars,
    rows (under label) and metadata to --out-json.  The table's cells are
    formatted once for both files."""
    columns, cells = _window_table(names, *table)
    cells = _Table(cells)
    if args.out_csv:
        _write_rows_csv(args.out_csv, columns, cells)
    write_json(args.out_json, {"config": _effective_config(args, keys), **scalars, label: cells,
                               label + "_columns": columns, "metadata": metadata})


def _check_alpha(alpha: float, top: int = 2) -> None:
    if not (0.0 < alpha < top):
        raise UsageError(f"--alpha must lie in (0, {top})")


def _cmd_sqfn(args):
    _check_alpha(args.alpha)
    tops = _float_list(args.tops, "tops") if args.tops else None
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    matrix = coeffs_mod.coefficient_matrix(field, ladder, args.kind)
    report = carleson_mod.carleson_constant(matrix, args.alpha, tops=tops, stride=args.stride)
    _write_report(args, ["field", "kind", "alpha", "top_radius", "levels", "stride", "tops"],
                  report.metadata, {"constant": report.constant},
                  "per_window", ["top_radius", "normalized_integral"],
                  table_columns(report.centers, report.tops, report.normalized))
    return EXIT_OK


def _cmd_bmo(args):
    if args.radii and (args.top_radius is not None or args.levels is not None):
        raise UsageError("--radii replaces the ladder; give it without --top-radius "
                         "and --levels")
    radii = _float_list(args.radii, "radii") if args.radii else None
    field, _ = corpus_mod.load_field(args.field)
    if radii is None:
        radii = [float(r) for r in _ladder_for(field.grid, args).radii]
    windows = bmo_mod.make_ball_family(field.grid, radii, stride=args.stride)
    report = bmo_mod.bmo_norm(field, windows)
    _write_report(args, ["field", "radii", "top_radius", "levels", "stride"],
                  dict(report.metadata, radii=radii, stride=args.stride), {"norm": report.norm},
                  "per_window", ["radius", "mean_oscillation"],
                  (report.centers, report.sizes, report.values))
    return EXIT_OK


def _cmd_strichartz(args):
    _check_alpha(args.alpha, 1 if args.order == "first" else 2)
    sides = _float_list(args.sides, "sides") if args.sides else None
    field, _ = corpus_mod.load_field(args.field)
    cubes = bmo_mod.make_cube_family(field.grid, sides=sides, stride=args.stride)
    strichartz = bmo_mod.strichartz_first if args.order == "first" else bmo_mod.strichartz_second
    report = strichartz(field, args.alpha, cubes)
    _write_report(args, ["field", "alpha", "order", "sides", "stride"],
                  report.metadata, {"B": report.B},
                  "per_cube", ["side", "value"], (report.centers, report.sizes, report.values))
    return EXIT_OK


def _cmd_fracderiv(args):
    _check_alpha(args.alpha)
    field, meta = corpus_mod.load_field(args.field)
    out = spectral_mod.fractional_derivative(field, args.alpha)
    extra = {"derived_from": os.path.basename(args.field), "derivative_order": repr(args.alpha)}
    if "family" in meta:
        extra["family"] = meta["family"]
    corpus_mod.save_field(out, args.out, extra=extra)
    return EXIT_OK


def _cmd_compare(args):
    alphas = _float_list(args.alphas, "alphas", 0.0, 2.0)
    field, _ = corpus_mod.load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    records = [dataclasses.asdict(rec) for rec in carleson_mod.comparability_records(
        field, alphas, ladder=ladder, stride=args.stride)]
    config = _effective_config(args, ["field", "alphas", "top_radius", "levels", "stride"])
    write_json(args.out, {"config": config, "records": records})
    return EXIT_OK


# The flags only one mode of beta reads: given to the other mode, they
# would do nothing.
_GRAPH_FLAGS = ("field", "top_radius", "levels", "stride")
_CLOUD_FLAGS = ("cloud", "ambient_dim", "center", "radius", "k")


def _cmd_beta(args):
    for name in _CLOUD_FLAGS if args.graph else _GRAPH_FLAGS:
        if getattr(args, name) is not None:
            raise UsageError(f"--graph does not take {_flag(name)}" if args.graph
                             else f"{_flag(name)} needs --graph")
    if args.graph:
        _require(args, ["field"])
        args.stride = args.stride or 1
        field, _ = corpus_mod.load_field(args.field)
        ladder = _ladder_for(field.grid, args)
        rep = geometry_mod.graph_beta_vs_nu1(field, ladder, stride=args.stride)
        table = table_columns(rep.centers, rep.radii, rep.beta, rep.nu1)
        _write_rows_csv(args.out, *_window_table(["radius", "beta", "nu1"], *table))
        meta = {
            "config": _effective_config(
                args, ["field", "graph", "top_radius", "levels", "stride", "k"]
            ),
            "lipschitz": rep.lipschitz,
            "max_beta_over_nu1": rep.max_beta_over_nu1,
            "max_nu1_over_beta": rep.max_nu1_over_beta,
            "insufficient_cells": rep.insufficient_cells,
        }
        write_json(args.out + ".json", meta)
        return EXIT_OK

    _require(args, ["cloud", "radius", "k"])
    center = _float_list(args.center, "center") if args.center else None
    if center is not None and not np.all(np.isfinite(center)):
        raise UsageError(f"--center {args.center} is not finite")
    cloud, weighted = geometry_mod.load_cloud(args.cloud, ambient_dim=args.ambient_dim)
    if center is None:
        center = list(cloud.points.mean(axis=0))
    elif len(center) != cloud.ambient_dim:
        raise UsageError("--center rank does not match the cloud")
    beta, _ = geometry_mod.beta2k(cloud, np.asarray(center), args.radius, args.k)
    cols = [f"center_{k}" for k in range(cloud.ambient_dim)] + ["radius", "k", "beta"]
    row = list(center) + [args.radius, args.k, beta]
    _write_rows_csv(args.out, cols, _table_cells([np.array([v]) for v in row]))
    meta = {
        "config": _effective_config(
            args, ["cloud", "ambient_dim", "center", "radius", "k"]
        ),
        "weights": "file column" if weighted else "unit (no weight column)",
        "n_points": int(cloud.points.shape[0]),
        "beta": beta,
    }
    write_json(args.out + ".json", meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser: every flag's settings once, every subcommand's flags and required
# flags once


# argparse settings by dest.  A flag not listed takes a string; every flag
# defaults to None (--graph to False) unless a default is given.
_FLAGS = {
    "config": {"help": "flat key=value config file"},
    "top_radius": {"type": float},
    "levels": {"type": int},
    "family": {"choices": corpus_mod.FAMILIES},
    "dim": {"type": int, "default": 1},
    "n": {"type": int},
    "period": {"type": float, "default": 1.0},
    "gamma": {"type": float},
    "beta_w": {"type": float},
    "alpha": {"type": float},
    "seed": {"type": int},
    "frequency": {"type": int},
    "kind": {"choices": coeffs_mod.KINDS},
    "order": {"choices": ("first", "second")},
    "stride": {"type": positive_int, "default": 1},
    "ambient_dim": {"type": int},
    "radius": {"type": float},
    "k": {"type": int},
    "graph": {"action": "store_true"},
}


class _Subcommand(NamedTuple):
    run: Callable
    description: str
    flags: str  # in help order, after --config
    required: str  # checked in this order before run
    defaults: dict = None  # this subcommand's own flag defaults


_LADDER = "field top_radius levels"  # a field file and its scale ladder
_SUBCOMMANDS = {
    "generate": _Subcommand(_cmd_generate, "generate a corpus field file",
                            "family dim n period gamma beta_w levels alpha seed frequency out",
                            "family n out"),
    "coeffs": _Subcommand(_cmd_coeffs, "coefficient matrix to CSV",
                          f"{_LADDER} kind out meta", "field kind out"),
    "sqfn": _Subcommand(_cmd_sqfn, "square-function Carleson report",
                        f"{_LADDER} kind alpha stride tops out_json out_csv",
                        "field kind alpha out_json"),
    "bmo": _Subcommand(_cmd_bmo, "mean-oscillation report",
                       f"{_LADDER} radii stride out_json out_csv", "field out_json"),
    # without --stride, cube centers lie n/8 apart (bmo.make_cube_family)
    "strichartz": _Subcommand(_cmd_strichartz, "difference-functional report",
                              "field alpha order sides stride out_json out_csv",
                              "field alpha order out_json", {"stride": None}),
    "fracderiv": _Subcommand(_cmd_fracderiv, "fractional derivative field",
                             "field alpha out", "field alpha out"),
    "compare": _Subcommand(_cmd_compare, "square-function vs BMO comparability",
                           f"{_LADDER} alphas stride out", "field alphas out"),
    "beta": _Subcommand(_cmd_beta, "plane-approximation numbers",
                        f"{_LADDER} cloud ambient_dim center radius k graph stride out", "out",
                        {"stride": None}),
}


def _build_parser():
    """The top-level parser and the subcommand parsers keyed by name."""
    parser = _Parser(prog="msq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, description=spec.description)
        for dest in ["config"] + spec.flags.split():
            p.add_argument(_flag(dest), **_FLAGS.get(dest, {}))
        p.set_defaults(**spec.defaults or {})
    return parser, sub.choices


# Error classes and their exit codes, tried in order: the first row that
# matches decides.  FieldFileError, NumericError and LinAlgError are
# ValueErrors, so the last row only catches the other ValueErrors,
# UsageError among them.
_EXIT_CODES = (
    ((corpus_mod.FieldFileError, OSError), EXIT_DATA, "data"),
    ((NumericError, np.linalg.LinAlgError, ArithmeticError), EXIT_NUMERIC, "numeric"),
    ((ValueError, MemoryError), EXIT_USAGE, "usage"),
)


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


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
            spec = _SUBCOMMANDS[args.command]
            _require(args, spec.required.split())
            return spec.run(args)
    except Exception as exc:
        text = str(exc)
        if isinstance(exc, (OverflowError, FloatingPointError)):
            # the innermost named msq frame: not a comprehension or lambda,
            # nor numpy's or a caller's wrapper
            where = next(f.name for f in reversed(traceback.extract_tb(exc.__traceback__))
                         if os.path.abspath(f.filename).startswith(_PACKAGE_DIR)
                         and not f.name.startswith("<"))
            # a Python float op's args are (errno, text), numpy's its text
            # ("overflow encountered in multiply")
            what = "overflow" if isinstance(exc, OverflowError) else text.split(" encountered")[0]
            text = f"{what} in {where}: {exc.args[-1]}"
        for classes, code, label in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"msq: error: {label}: {text}", file=sys.stderr)
                return code
        raise


def entrypoint() -> None:
    sys.exit(main())
