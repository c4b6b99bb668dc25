"""Command-line front end: fit models, evaluate them, run the demonstrations.

Exit codes: 0 success, 2 usage problems, 3 data or model-file errors,
4 numerical failures (rank deficiency, zero projections, non-SPD input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, fields

import numpy as np

from . import demo as demo_mod
from . import model as model_mod
from .errors import DataError, DimensionError, KgoError, NumericalError
from .sample import BasisSpec, load_sample, parse_column_spec
from .solver import ALGORITHMS, IterationRecord, SolverConfig
from .tensors import TensorKind

_BASIS_KINDS = ("monomial", "chebyshev")


def _parse_basis(text: str) -> BasisSpec:
    kind, _, order = text.partition(":")
    if kind not in _BASIS_KINDS or not order:
        raise DimensionError(
            f"bad basis {text!r}; expected <kind>:<order> with kind in {_BASIS_KINDS}")
    try:
        order_n = int(order)
    except ValueError as exc:
        raise DimensionError(f"bad basis order {order!r}") from exc
    if order_n < 0:
        raise DimensionError("basis order must be nonnegative")
    return BasisSpec(kind, order_n)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_atomic(path: str, payload: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def _write_tsv(path: str, header, rows):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(repr(float(v)) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_manifest(prefix: str, subcommand: str, config: dict, inputs, outputs,
                    started: float):
    resolved = {k: v for k, v in config.items()
                if isinstance(v, (str, int, float, bool, type(None)))}
    manifest = {
        "subcommand": subcommand,
        "config": resolved,
        "input_digest": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "timings": {"wall_seconds": time.time() - started},
    }
    path = f"{prefix}manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


# Each solver flag, by argparse name, and the SolverConfig field it sets.
_SOLVER_FLAGS = {"algorithm": "algorithm", "max_iterations": "max_iterations",
                 "rel_tol": "rel_tol", "pool": "candidate_pool",
                 "lsq_init": "init_with_least_squares"}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{name: getattr(args, flag) for flag, name in _SOLVER_FLAGS.items()})


def _solver_flags(config: SolverConfig) -> dict:
    """The solver flags, by argparse name, that reproduce a config."""
    return {flag: getattr(config, name) for flag, name in _SOLVER_FLAGS.items()}


def cmd_fit(args) -> int:
    started = time.time()
    sample = load_sample(args.data, args.cols)
    config = _solver_config(args)
    fitted, trace = model_mod.fit(
        sample, _parse_basis(args.x_basis), _parse_basis(args.f_basis),
        kind=TensorKind(args.tensor), config=config, d=args.d)
    prefix = args.out_prefix
    model_path = f"{prefix}model.json"
    _write_atomic(model_path, model_mod.serialize_model(fitted).decode("utf-8"))
    trace_path = f"{prefix}trace.tsv"
    _write_tsv(trace_path, [f.name for f in fields(IterationRecord)],
               [astuple(record) for record in trace])
    report = fitted.report
    if (report["x_raw_dim"], report["f_raw_dim"]) != (report["x_eff_dim"], report["f_eff_dim"]):
        print(f"warning: whitening kept {report['x_eff_dim']} of {report['x_raw_dim']} "
              f"attribute and {report['f_eff_dim']} of {report['f_raw_dim']} label basis "
              "directions", file=sys.stderr)
    report_path = f"{prefix}report.txt"
    lines = [f"{key} = {report[key]!r}" for key in sorted(report)]
    _write_atomic(report_path, "\n".join(lines) + "\n")
    manifest_path = _write_manifest(prefix, "fit", vars(args), [args.data],
                                    [model_path, trace_path, report_path], started)
    print(f"F = {report['f']!r}")
    print(f"F_TOT = {report['f_tot']!r}")
    print(f"F_JDG = {report['f_jdg']!r}")
    print(f"residual = {report['residual']!r}")
    print(f"wrote {model_path}, {trace_path}, {report_path}, {manifest_path}")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    try:
        with open(args.model, "rb") as handle:
            fitted = model_mod.deserialize_model(handle.read())
    except OSError as exc:
        raise DataError(f"cannot read model {args.model}: {exc}") from exc
    has_f = any(part.strip().startswith("f=") for part in args.cols.split(";"))
    spec_text = args.cols
    if not has_f:
        x_parts = [p.strip() for p in args.cols.split(";") if p.strip().startswith("x=")]
        if not x_parts:
            raise DataError("column spec must name an x range")
        # Alias a label range so the parser is satisfied; it is ignored below.
        spec_text = args.cols + ";f=" + x_parts[0][2:]
    sample = load_sample(args.data, spec_text) if _has_rows(args.data) else None
    header = [f"x{i}" for i in range(len(parse_column_spec(spec_text)[0]))]
    m_raw = fitted.f_space.raw_dim
    header += [f"f_max_p{j}" for j in range(m_raw)]
    header += [f"value{j}" for j in range(m_raw)]
    header += ["certainty", "pole"] + (["p_at_f"] if has_f else [])
    rows = []
    if sample is not None:
        pred = model_mod.predict(fitted, sample.x_rows, sample.f_rows if has_f else None)
        columns = [sample.x_rows, pred["f_max_p"], pred["value"],
                   pred["certainty"], pred["pole"]]
        if has_f:
            columns.append(pred["probability"])
        rows = np.column_stack(columns)
    out_path = f"{args.out_prefix}eval.tsv"
    _write_tsv(out_path, header, rows)
    manifest_path = _write_manifest(args.out_prefix, "eval", vars(args),
                                    [args.model, args.data], [out_path], started)
    print(f"wrote {out_path}, {manifest_path}")
    return 0


def _has_rows(path) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return any(line.strip() and not line.lstrip().startswith("#")
                       for line in handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def cmd_demo(args) -> int:
    started = time.time()
    inputs = []
    config = _demo_config(args)
    if args.name == "localized-states":
        header, rows = demo_mod.localized_states_table(n=args.n, n_points=args.points)
    elif args.name == "square-wave":
        header, rows = demo_mod.square_wave_table(
            n=args.n, n_points=args.points, kind=TensorKind(args.tensor),
            config=config)
    elif args.name == "exact-map":
        header, rows = demo_mod.exact_map_table(
            n=args.n, m=args.m, n_points=args.points, kind=TensorKind(args.tensor),
            config=config)
    elif args.name == "image":
        if args.image is not None:
            image = demo_mod.read_pgm(args.image)
            inputs.append(args.image)
        else:
            image = demo_mod.synthetic_gradient(8)
        header, rows = demo_mod.image_table(
            image, n_x=args.nx, n_y=args.ny, m=args.m,
            kind=TensorKind(args.tensor), config=config)
    else:  # pragma: no cover - argparse restricts choices
        raise DimensionError(f"unknown demo {args.name!r}")
    out_path = f"{args.out_prefix}demo_{args.name}.tsv"
    _write_tsv(out_path, header, rows)
    # Record the solver that ran, not the flag defaults; localized-states runs none.
    recorded = {k: v for k, v in vars(args).items() if k not in _SOLVER_FLAGS}
    if config is not None:
        recorded.update(_solver_flags(config))
    manifest_path = _write_manifest(args.out_prefix, "demo", recorded, inputs,
                                    [out_path], started)
    print(f"wrote {out_path}, {manifest_path}")
    return 0


def _demo_config(args):
    """The config a demo runs: the flags with --algorithm, else its pinned one."""
    if args.algorithm is not None:
        return _solver_config(args)
    return demo_mod.PINNED_CONFIGS.get(args.name)


def _add_solver_flags(parser, with_defaults=True):
    """The solver flags, defaulting to SolverConfig's (--algorithm to None unless with_defaults)."""
    parser.add_argument("--algorithm", choices=list(ALGORITHMS))
    parser.add_argument("--max-iterations", type=int)
    parser.add_argument("--rel-tol", type=float)
    parser.add_argument("--pool", type=int)
    parser.add_argument("--lsq-init", action="store_true",
                        help="seed iterative solvers with the adjusted least-squares map")
    parser.set_defaults(**_solver_flags(SolverConfig()))
    if not with_defaults:
        parser.set_defaults(algorithm=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgo",
        description="Partially unitary channel learning over sampled data.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit a channel and write model/trace/report")
    fit.add_argument("--data", required=True)
    fit.add_argument("--cols", required=True,
                     help="column spec: x=<a>-<b>;f=<c>-<d>[;w=<e>], zero-based inclusive")
    fit.add_argument("--x-basis", default="monomial:2")
    fit.add_argument("--f-basis", default="monomial:1")
    fit.add_argument("--tensor", default=TensorKind.F_CHRISTOFFEL.value,
                     choices=[k.value for k in TensorKind])
    fit.add_argument("--d", type=int, default=None,
                     help="contributing-subspace dimension (christoffel-product only)")
    _add_solver_flags(fit)
    fit.add_argument("--out-prefix", required=True)
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="evaluate a saved model on query rows")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--cols", required=True,
                    help="column spec: x=<a>-<b>[;f=<c>-<d>] (f enables p_at_f)")
    ev.add_argument("--out-prefix", required=True)
    ev.set_defaults(func=cmd_eval)

    demo = sub.add_parser("demo", help="run a bundled demonstration")
    demo.add_argument("name", choices=["localized-states", "square-wave",
                                       "exact-map", "image"])
    demo.add_argument("--n", type=int, default=7, help="attribute basis dimension")
    demo.add_argument("--m", type=int, default=5, help="label basis dimension")
    demo.add_argument("--nx", type=int, default=3)
    demo.add_argument("--ny", type=int, default=3)
    demo.add_argument("--points", type=int, default=demo_mod.DEFAULT_GRID_POINTS)
    demo.add_argument("--image", default=None, help="ASCII PGM (P2) input")
    demo.add_argument("--tensor", default=TensorKind.F_CHRISTOFFEL.value,
                      choices=[k.value for k in TensorKind])
    _add_solver_flags(demo, with_defaults=False)
    demo.add_argument("--out-prefix", required=True)
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DimensionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KgoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
