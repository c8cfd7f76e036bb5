"""Command line front end.

Subcommands:
  bounds           tabulate the closed-form separability thresholds
  coeffs           expand a state over product frames and dump the table
  verify-ensemble  check that a product ensemble mixes to its target state
  min-wcan         minimize the expansion function over product directions
  witness          evaluate a correlation witness on a state
  ppt              smallest eigenvalue of the partial transpose (2 qubits)

Exit codes: 0 success, 2 usage or unreadable input, 3 domain error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .frames import Frame, build_frame, frame_from_json
from .minimize import minimize_wcan, threshold_search
from .operators import RECONSTRUCTION_TOL, SIGN_TOL, _deviation
from .representations import PauliCoefficients, pauli_coefficients, wcan_discrete
from .separability import ppt_min_eigenvalue, witness_ghz, witness_werner
from .states import (
    ProductEnsemble,
    StateSpec,
    bound_cat,
    bound_duer,
    bound_general,
    build_state,
    ghz_ensemble,
    pure_target,
    werner_ensemble,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class _InputError(Exception):
    """Unreadable or malformed input file/JSON; maps to the usage exit code."""


def _load_json_arg(text: str):
    """Accept either inline JSON or a path to a JSON file."""
    s = text.strip()
    if s.startswith(("{", "[", '"')):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise _InputError(f"invalid JSON argument: {exc}") from exc
    path = Path(text)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {text}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{text} is not valid JSON: {exc}") from exc


def _state_from_arg(text: str) -> StateSpec:
    data = _load_json_arg(text)
    try:
        return StateSpec.from_json(data)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _frames_from_arg(text: str | None, qubits: int) -> list[Frame]:
    """One frame per qubit; a single frame spec is broadcast to all qubits."""
    if text is None:
        return [build_frame("cardinal6") for _ in range(qubits)]
    data = _load_json_arg(text)
    if isinstance(data, (str, dict)):
        data = [data]
    frames = [frame_from_json(obj) for obj in data]
    if len(frames) == 1:
        frames = frames * qubits
    if len(frames) != qubits:
        raise ValueError(f"got {len(frames)} frames for {qubits} qubits")
    return frames


def _csv_field(value) -> str:
    # nested values go into one field as JSON; None leaves the field empty
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _emit(args, payload: dict | list[dict], default_format: str = "json") -> None:
    """Print a payload, or a list of payloads with the same keys, as JSON or as
    CSV with one header row."""
    fmt = args.format or default_format
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    import csv  # only the CSV format needs it, so it stays off the import path

    rows = payload if isinstance(payload, list) else [payload]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_csv_field(v) for v in row.values()] for row in rows)


# --- subcommands -------------------------------------------------------------


def cmd_bounds(args) -> int:
    if not 1 <= args.n_min <= args.n_max <= 24:
        raise _InputError("need 1 <= n-min <= n-max <= 24")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        rows.append(
            {
                "N": n,
                "general": bound_general(n),
                "cat": bound_cat(n) if n >= 2 else None,
                "duer": bound_duer(n) if n >= 2 else 1.0,
            }
        )
    _emit(args, rows, default_format="csv")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    spec = _state_from_arg(args.state)
    rho = build_state(spec)
    frames = _frames_from_arg(args.frames, rho.qubits)
    table = wcan_discrete(rho, frames)
    out_path = Path(args.out) if args.out else None
    if out_path is not None:
        try:
            with out_path.open("w") as fh:
                table.write_csv(fh)
        except OSError as exc:
            raise _InputError(f"cannot write {out_path}: {exc}") from exc
    if out_path is None and (args.format or "csv") == "csv":
        table.write_csv(sys.stdout)
        return EXIT_OK
    payload = {
        "rows": int(np.prod(table.weights.shape)),
        "min": table.min_entry(),
        "sum": table.total(),
    }
    if out_path is not None:
        payload["out"] = str(out_path)
    _emit(args, payload)
    return EXIT_OK


def _named_ensemble(name: str) -> tuple[ProductEnsemble, StateSpec]:
    if name == "werner":
        return werner_ensemble(), StateSpec("werner", epsilon=1 / 3)
    if name == "ghz":
        return ghz_ensemble(), StateSpec("eps_ghz", epsilon=1 / 5)
    raise _InputError(f"unknown ensemble name {name!r}; options: werner, ghz")


def cmd_verify_ensemble(args) -> int:
    if args.name:
        ensemble, default_spec = _named_ensemble(args.name)
    else:
        data = _load_json_arg(args.file)
        try:
            ensemble = ProductEnsemble.from_json(data)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        default_spec = None
    if args.state:
        spec = _state_from_arg(args.state)
    elif default_spec is not None:
        spec = default_spec
    else:
        raise _InputError("--state is required for ensembles loaded from a file")
    target = build_state(spec)
    if target.qubits != ensemble.qubits:
        raise ValueError(
            f"ensemble acts on {ensemble.qubits} qubits, target on {target.qubits}"
        )
    mixed = ensemble.mixture()
    deviation = _deviation(mixed, target)
    tol = args.tol if args.tol is not None else RECONSTRUCTION_TOL
    passed = deviation <= tol
    _emit(
        args,
        {
            "ensemble": args.name or args.file,
            "terms": len(ensemble.terms),
            "deviation": deviation,
            "tol": tol,
            "verdict": "match" if passed else "mismatch",
        },
    )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_min_wcan(args) -> int:
    spec = _state_from_arg(args.state)
    rho = build_state(spec)
    c = pauli_coefficients(rho)
    result = minimize_wcan(c, grid_per_sphere=args.grid, refine_iters=args.refine)
    argmin = []
    for v in result.argmin:
        theta, phi = v.angles()
        argmin.append({"theta": theta, "phi": phi, "vector": [v.x, v.y, v.z]})
    payload = {
        "qubits": rho.qubits,
        "min": result.value,
        "argmin": argmin,
        "grid_ties": result.grid_ties,
        "grid": args.grid,
        "grid_used": result.grid_used,
        "refine": args.refine,
    }
    if args.threshold_search:
        target = pure_target(spec.family, rho.qubits)
        pure = c if target is None else pauli_coefficients(target)
        payload["threshold"] = threshold_search(
            pure, grid_per_sphere=args.grid, refine_iters=args.refine
        )
    _emit(args, payload)
    return EXIT_OK


def _coeffs_for_witness(args) -> PauliCoefficients:
    if args.coeffs:
        data = _load_json_arg(args.coeffs)
        try:
            return PauliCoefficients.from_dict(data)
        except (KeyError, ValueError) as exc:
            raise _InputError(f"malformed coefficient JSON: {exc}") from exc
    if not args.state:
        raise _InputError("witness needs --state or --coeffs")
    rho = build_state(_state_from_arg(args.state))
    return pauli_coefficients(rho)


def cmd_witness(args) -> int:
    c = _coeffs_for_witness(args)
    if args.name == "werner":
        report = witness_werner(c)
    else:
        report = witness_ghz(c)
    _emit(args, report.to_json())
    return EXIT_OK


def cmd_ppt(args) -> int:
    rho = build_state(_state_from_arg(args.state))
    value = ppt_min_eigenvalue(rho, transposed_side=args.side)
    tol = args.tol if args.tol is not None else SIGN_TOL
    _emit(
        args,
        {
            "min_eigenvalue": value,
            "transposed_side": args.side,
            # PPT is necessary and sufficient for two qubits, the only case ppt accepts
            "verdict": "nonseparable" if value < -tol else "separable",
        },
    )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochframes",
        description="Product-frame expansions of multiqubit states and separability checks.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    parser.add_argument("--tol", type=float, default=None, help="override the default tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form separability thresholds per qubit count")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("coeffs", help="expand a state over product frames")
    p.add_argument("--state", required=True, help="state JSON (inline or a file path)")
    p.add_argument("--frames", default=None, help="frame JSON or list of frame JSON; default cardinal6")
    p.add_argument("--out", default=None, help="write the table as CSV to this path")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify-ensemble", help="check a product ensemble against its target")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--name", choices=("werner", "ghz"))
    g.add_argument("--file", help="ensemble JSON file")
    p.add_argument("--state", default=None, help="target state JSON; defaults per named ensemble")
    p.set_defaults(func=cmd_verify_ensemble)

    p = sub.add_parser("min-wcan", help="minimize the expansion function over product directions")
    p.add_argument("--state", required=True, help="state JSON (inline or a file path)")
    p.add_argument("--grid", type=int, default=24, help="grid points per sphere")
    p.add_argument(
        "--refine", type=int, default=3,
        help="0 reports the grid minimum; any positive value refines until a round lowers nothing",
    )
    p.add_argument(
        "--threshold-search",
        action="store_true",
        help="also report the largest nonnegative mixing weight of the pure target, "
        "in closed form from one minimization",
    )
    p.set_defaults(func=cmd_min_wcan)

    p = sub.add_parser("witness", help="evaluate a correlation witness")
    p.add_argument("--name", choices=("werner", "ghz"), required=True)
    p.add_argument("--state", default=None, help="state JSON (inline or a file path)")
    p.add_argument("--coeffs", default=None, help="Pauli coefficient JSON instead of a state")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("ppt", help="smallest partial-transpose eigenvalue, two qubits")
    p.add_argument("--state", required=True, help="state JSON (inline or a file path)")
    p.add_argument("--side", type=int, default=1, choices=(0, 1), help="which factor to transpose")
    p.set_defaults(func=cmd_ppt)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
