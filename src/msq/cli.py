"""Batch command-line front end.

Subcommands: generate, coeffs, sqfn, bmo, strichartz, fracderiv, compare,
beta.  Long-form flags only.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric error.  Every output embeds the effective configuration
and a format-version string; re-running a command with the same inputs
produces byte-identical files (no timestamps anywhere).
"""

from __future__ import annotations

import argparse
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
from .field import make_grid

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class NumericError(Exception):
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


def _merge_config(args, command_parser, argv) -> None:
    """Flags override config-file values; config overrides built-ins.

    The values are parsed by the active subcommand's own parser, so each
    takes its flag's type and choices; a switch is set by a true-ish value.
    A flag counts as given when it appears on the command line, also with
    its default value.
    """
    if not getattr(args, "config", None):
        return
    cfg = _load_config_file(args.config)
    tokens = []
    for key, raw in cfg.items():
        if not hasattr(args, key):
            raise UsageError(f"config key {key!r} is not a flag of {args.command}")
        flag = "--" + key.replace("_", "-")
        if isinstance(command_parser.get_default(key), bool):
            if raw.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={raw}")
    typed = command_parser.parse_args(tokens)
    given = _given_flags(args.command, argv, cfg)
    for key in cfg:
        if key not in given:
            setattr(args, key, getattr(typed, key))


def _given_flags(command: str, argv, keys) -> set:
    """The keys whose flags appear in argv: a re-parse with a sentinel
    default for each key leaves the sentinel where the flag is absent."""
    unset = object()
    parser, commands = _build_parser()
    commands[command].set_defaults(**{k: unset for k in keys})
    reparsed = vars(parser.parse_args(argv))
    return {k for k in keys if reparsed[k] is not unset}


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _float_list(text: str, flag: str):
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"--{flag} wants a comma-separated float list") from exc


def _load_field(path):
    try:
        return corpus_mod.load_field(path)
    except corpus_mod.FieldFileError:
        raise
    except OSError as exc:
        raise corpus_mod.FieldFileError(f"cannot read field file {path}: {exc}") from exc


def _ladder_for(grid, args):
    try:
        return coeffs_mod.make_ladder(
            grid, top_radius=args.top_radius, levels=args.levels
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args):
    _require(args, ["family", "n", "out"])
    try:
        grid = make_grid(args.dim, args.n, args.period)
        spec = corpus_mod.CorpusSpec(
            family=args.family,
            grid=grid,
            gamma=args.gamma,
            beta_w=args.beta_w,
            levels=args.levels,
            alpha=args.alpha,
            seed=args.seed,
            frequency=args.frequency,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    field = corpus_mod.generate(spec)
    corpus_mod.save_field(field, args.out, extra=spec.params())
    return EXIT_OK


def _cmd_coeffs(args):
    _require(args, ["field", "kind", "out"])
    if args.kind not in coeffs_mod.KINDS:
        raise UsageError(f"--kind must be one of {', '.join(coeffs_mod.KINDS)}")
    field, _ = _load_field(args.field)
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


def _report_payload(args, keys, report_meta, extra):
    payload = {"config": _effective_config(args, keys)}
    payload.update(extra)
    payload["metadata"] = report_meta
    return payload


def _cmd_sqfn(args):
    _require(args, ["field", "kind", "alpha", "out_json"])
    if args.kind not in coeffs_mod.KINDS:
        raise UsageError(f"--kind must be one of {', '.join(coeffs_mod.KINDS)}")
    if not (0.0 < args.alpha < 2.0):
        raise UsageError("--alpha must lie in (0, 2)")
    field, _ = _load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    matrix = coeffs_mod.coefficient_matrix(field, ladder, args.kind)
    tops = _float_list(args.tops, "tops") if args.tops else None
    try:
        report = carleson_mod.carleson_constant(
            matrix, args.alpha, tops=tops, stride=args.stride
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [
        list(center) + [R, value] for center, R, value in report.per_window
    ]
    payload = _report_payload(
        args,
        ["field", "kind", "alpha", "top_radius", "levels", "stride", "tops"],
        report.metadata,
        {
            "constant": report.constant,
            "per_window": rows,
            "per_window_columns": [f"center_index_{k}" for k in range(field.grid.dim)]
            + ["top_radius", "normalized_integral"],
        },
    )
    _write_json(args.out_json, payload)
    if args.out_csv:
        _write_rows_csv(args.out_csv, payload["per_window_columns"], rows)
    return EXIT_OK


def _cmd_bmo(args):
    _require(args, ["field", "out_json"])
    field, _ = _load_field(args.field)
    if args.radii:
        radii = _float_list(args.radii, "radii")
    else:
        radii = [float(r) for r in _ladder_for(field.grid, args).radii]
    windows = bmo_mod.make_ball_family(field.grid, radii, stride=args.stride)
    try:
        report = bmo_mod.bmo_norm(field, windows)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    rows = [list(center) + [r, v] for center, r, v in report.per_window]
    payload = _report_payload(
        args,
        ["field", "radii", "top_radius", "levels", "stride"],
        {
            "radii": radii,
            "stride": args.stride,
            "sup_lower_bound": True,
            "oscillation": "L1 mean oscillation",
        },
        {
            "norm": report.norm,
            "per_window": rows,
            "per_window_columns": [f"center_index_{k}" for k in range(field.grid.dim)]
            + ["radius", "mean_oscillation"],
        },
    )
    _write_json(args.out_json, payload)
    if args.out_csv:
        _write_rows_csv(args.out_csv, payload["per_window_columns"], rows)
    return EXIT_OK


def _cmd_strichartz(args):
    _require(args, ["field", "alpha", "order", "out_json"])
    if args.order not in ("first", "second"):
        raise UsageError("--order must be first or second")
    field, _ = _load_field(args.field)
    sides = _float_list(args.sides, "sides") if args.sides else None
    try:
        cubes = bmo_mod.make_cube_family(field.grid, sides=sides, stride=args.stride)
        if args.order == "first":
            report = bmo_mod.strichartz_first(field, args.alpha, cubes)
        else:
            report = bmo_mod.strichartz_second(field, args.alpha, cubes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [list(center) + [s, v] for center, s, v in report.per_cube]
    payload = _report_payload(
        args,
        ["field", "alpha", "order", "sides", "stride"],
        report.metadata,
        {
            "B": report.B,
            "per_cube": rows,
            "per_cube_columns": [f"center_index_{k}" for k in range(field.grid.dim)]
            + ["side", "value"],
        },
    )
    _write_json(args.out_json, payload)
    if args.out_csv:
        _write_rows_csv(args.out_csv, payload["per_cube_columns"], rows)
    return EXIT_OK


def _cmd_fracderiv(args):
    _require(args, ["field", "alpha", "out"])
    field, meta = _load_field(args.field)
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
    field, _ = _load_field(args.field)
    ladder = _ladder_for(field.grid, args)
    records = []
    for a in alphas:
        rec = carleson_mod.comparability_experiment(
            field, a, ladder=ladder, stride=args.stride
        )
        records.append(
            {
                "alpha": rec.alpha,
                "kind": rec.kind,
                "carleson_sq": rec.carleson_sq,
                "bmo_norm_sq": rec.bmo_norm_sq,
                "ratio": rec.ratio,
                "metadata": rec.metadata,
            }
        )
    payload = {
        "config": _effective_config(
            args, ["field", "alphas", "top_radius", "levels", "stride"]
        ),
        "records": records,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def _cmd_beta(args):
    _require(args, ["out"])
    if args.graph:
        _require(args, ["field"])
        field, _ = _load_field(args.field)
        ladder = _ladder_for(field.grid, args)
        try:
            rep = geometry_mod.graph_beta_vs_nu1(field, ladder, stride=args.stride)
        except ValueError as exc:
            raise NumericError(str(exc)) from exc
        columns = [f"center_index_{k}" for k in range(field.grid.dim)] + ["radius", "beta", "nu1"]
        rows = (list(c) + [r, rep.beta[i, j], rep.nu1[i, j]]
                for i, c in enumerate(rep.centers) for j, r in enumerate(rep.radii))
        _write_rows_csv(args.out, columns, rows)
        meta = {
            "config": _effective_config(
                args, ["field", "graph", "top_radius", "levels", "stride", "k"]
            ),
            "lipschitz": rep.lipschitz,
            "max_beta_over_nu1": rep.max_beta_over_nu1,
            "max_nu1_over_beta": rep.max_nu1_over_beta,
        }
        _write_json(args.out + ".json", meta)
        return EXIT_OK

    _require(args, ["cloud", "radius", "k"])
    try:
        cloud, weighted = geometry_mod.load_cloud(args.cloud, ambient_dim=args.ambient_dim)
    except OSError as exc:
        raise corpus_mod.FieldFileError(f"cannot read cloud file: {exc}") from exc
    except ValueError as exc:
        raise corpus_mod.FieldFileError(str(exc)) from exc
    if args.center:
        center = _float_list(args.center, "center")
        if len(center) != cloud.ambient_dim:
            raise UsageError("--center rank does not match the cloud")
    else:
        center = list(cloud.points.mean(axis=0))
    try:
        beta, fit = geometry_mod.beta2k(cloud, np.asarray(center), args.radius, args.k)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
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

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")

    p = sub.add_parser("generate", description="generate a corpus field file")
    common(p)
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

    p = sub.add_parser("coeffs", description="coefficient matrix to CSV")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--kind", default=None)
    p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--meta", default=None)

    p = sub.add_parser("sqfn", description="square-function Carleson report")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--kind", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--tops", default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = sub.add_parser("bmo", description="mean-oscillation report")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--radii", default=None)
    p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = sub.add_parser("strichartz", description="difference-functional report")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--order", default=None)
    p.add_argument("--sides", default=None)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = sub.add_parser("fracderiv", description="fractional derivative field")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", description="square-function vs BMO comparability")
    common(p)
    p.add_argument("--field", default=None)
    p.add_argument("--alphas", default=None)
    p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("beta", description="plane-approximation numbers")
    common(p)
    p.add_argument("--cloud", default=None)
    p.add_argument("--ambient-dim", dest="ambient_dim", type=int, default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--graph", action="store_true", default=False)
    p.add_argument("--top-radius", dest="top_radius", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
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


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, commands[args.command], argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"msq: error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except corpus_mod.FieldFileError as exc:
        print(f"msq: error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"msq: error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"msq: error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"msq: error: data: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
