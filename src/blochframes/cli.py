"""Command line front end.

Subcommands:
  bounds           tabulate the closed-form separability thresholds
  coeffs           expand a state over product frames and dump the table
  verify-ensemble  check that a product ensemble mixes to its target state
  min-wcan         minimize the expansion function over product directions
  witness          evaluate a correlation witness (werner: 2 qubits, ghz: N >= 3)
  ppt              smallest eigenvalue of the partial transpose (2 qubits)

The global --tol is the slack on the verdicts of verify-ensemble (default
RECONSTRUCTION_TOL), ppt and witness (default SIGN_TOL), one table in this
module; it must be a finite number >= 0, and the other subcommands refuse it.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage error (a --tol
that is not finite and >= 0, or one given where no verdict reads it, a --grid
below 6 or a negative --refine) or an argument that does not read as its object
(--state, --frames, --file, --coeffs), such as a string or a boolean where a
number belongs, 3 domain error (such as an epsilon outside [0, 1], an n its family
does not take, or a state too large to build), 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .frames import Frame, build_frame, frame_from_json
from .minimize import _TIE_WIDTH, MinimizeResult, _threshold, minimize_wcan, threshold_search
from .operators import RECONSTRUCTION_TOL, SIGN_TOL, _deviation
from .representations import PauliCoefficients, pauli_coefficients, wcan_continuous, wcan_discrete
from .separability import ppt_min_eigenvalue, witness_ghz, witness_werner
from .states import (
    _MIXTURES,
    _cat_coefficients,
    ProductEnsemble,
    StateSpec,
    bound_cat,
    bound_duer,
    bound_general,
    build_state,
    cat_ensemble,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class _InputError(Exception):
    """Unreadable or malformed input, or a usage error; maps to the usage exit code."""


# subcommand -> default --tol, the slack on the verdict it grades; no other reads --tol
_TOLERANCES = {"verify-ensemble": RECONSTRUCTION_TOL, "ppt": SIGN_TOL, "witness": SIGN_TOL}


def _resolve_tol(command: str, tol: float | None) -> float | None:
    """The tolerance in force for command: its default from _TOLERANCES, or the
    given --tol, which must be finite and >= 0 and offered to a command that reads it."""
    if tol is None:
        return _TOLERANCES.get(command)
    if command not in _TOLERANCES:
        raise _InputError(f"--tol does not apply to {command}, only to {', '.join(_TOLERANCES)}")
    # written so that NaN fails it
    if not 0.0 <= tol < math.inf:
        raise _InputError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def _read(flag: str, text: str, build):
    """build(data) for the JSON of flag, given inline or as a file path; any
    failure to read or build it is an input error that names flag."""
    s = text.strip()
    try:
        return build(json.loads(s if s.startswith(("{", "[", '"')) else Path(text).read_text()))
    except json.JSONDecodeError as exc:
        raise _InputError(f"{flag} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, OverflowError) as exc:  # overflow: an integer beyond float range
        raise _InputError(f"{flag}: {exc}") from exc
    except (KeyError, TypeError, IndexError) as exc:
        raise _InputError(f"{flag}: malformed value ({type(exc).__name__}: {exc})") from exc


def _frames_from_arg(text: str | None, qubits: int) -> list[Frame]:
    """The frames of --frames; a single frame spec is broadcast to all qubits, and
    wcan_discrete refuses a list of another length."""
    if text is None:
        return [build_frame("cardinal6") for _ in range(qubits)]
    frames = _read(
        "--frames",
        text,
        lambda data: [frame_from_json(obj) for obj in (data if isinstance(data, list) else [data])],
    )
    return frames * qubits if len(frames) == 1 else frames


def _csv_field(value) -> str:
    # nested values go into one field as JSON; None leaves the field empty
    if type(value) is _KeptJson:
        value = value.value
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


# float repr -> json's spelling of the values outside JSON's number grammar
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(slots=True)
class _KeptJson:
    """A report value kept with its JSON text at a top-level key's indent, where
    _json_text writes the text; json hands one elsewhere to _refuse; CSV writes the value."""

    value: object
    text: str

    @classmethod
    def of(cls, value) -> _KeptJson:
        return cls(value, _nested_json(value))


def _refuse(value):
    if type(value) is _KeptJson:
        raise TypeError("a kept JSON text is valid only as the value of a top-level key")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _nested_json(value) -> str:
    # at a top-level key's indent; json escapes a newline in a string, so only line breaks move
    return json.dumps(value, indent=2, default=_refuse).replace("\n", "\n  ")


def _json_text(payload) -> str:
    """The text json.dumps gives payload at indent=2: a dict's top level is
    written here, its floats, ints, strs and kept texts directly, all else by
    json.  A non-str top-level key, a misindented _KeptJson and any value json
    cannot write raise TypeError, the last with json's own message."""
    if type(payload) is not dict or not payload:
        return json.dumps(payload, indent=2, default=_refuse)
    parts = []
    for key, value in payload.items():
        kind = type(value)
        if kind is _KeptJson:
            text = value.text
        elif kind is float:
            text = float.__repr__(value)
            text = _JSON_NONFINITE.get(text, text)
        elif kind is int:
            text = int.__repr__(value)
        elif kind is str:
            text = _json_str(value)
        else:
            text = _nested_json(value)
        parts.append(_json_str(key) + ": " + text)
    return "{\n  " + ",\n  ".join(parts) + "\n}"


def _emit(args, payload: dict | list[dict]) -> None:
    """Print a payload, or a list of payloads with the same keys, as JSON or as
    CSV with one header row; without --format a list is CSV and a payload JSON."""
    fmt = args.format or ("csv" if isinstance(payload, list) else "json")
    if fmt == "json":
        print(_json_text(payload))
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
    _emit(args, rows)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    rho = build_state(_read("--state", args.state, StateSpec.from_json))
    table = wcan_discrete(rho, _frames_from_arg(args.frames, rho.qubits))
    # the table goes to stdout as CSV unless --out names a file or JSON is asked for
    if not args.out and args.format != "json":
        table.write_csv(sys.stdout)
        return EXIT_OK
    payload = {"rows": table.weights.size, "min": table.min_entry(), "sum": table.total()}
    if args.out:
        out_path = Path(args.out)
        try:
            with out_path.open("w") as fh:
                table.write_csv(fh)
        except OSError as exc:
            raise _InputError(f"cannot write {out_path}: {exc}") from exc
        payload["out"] = str(out_path)
    _emit(args, payload)
    return EXIT_OK


# verify-ensemble --name -> qubit count N; the ensemble is cat_ensemble(N), and the
# default target the eps-cat state at eps_N
_NAMED_ENSEMBLES = {"werner": 2, "ghz": 3}


def cmd_verify_ensemble(args) -> int:
    if args.name:
        n = _NAMED_ENSEMBLES[args.name]
        ensemble, spec = cat_ensemble(n), StateSpec("eps_cat", n, bound_duer(n))
    else:
        ensemble = _read("--file", args.file, ProductEnsemble.from_json)
        spec = None
    if args.state:
        spec = _read("--state", args.state, StateSpec.from_json)
    elif spec is None:
        raise _InputError("--state is required for ensembles loaded from a file")
    deviation = _deviation(ensemble.mixture(), build_state(spec))
    passed = deviation <= args.tol
    _emit(
        args,
        {
            "ensemble": args.name or args.file,
            "terms": len(ensemble.terms),
            "deviation": deviation,
            "tol": args.tol,
            "verdict": "match" if passed else "mismatch",
        },
    )
    return EXIT_OK if passed else EXIT_VERIFY


# the families that mix the identity with the N-qubit cat state at some eps > 0
_CAT_FAMILIES = frozenset(family for family, (_, eps) in _MIXTURES.items() if eps != 0.0)


def _argmin_report(argmin) -> list[dict]:
    """The report's argmin: the angles and the vector of each direction."""
    report = []
    for v in argmin:
        theta, phi = v.angles()
        report.append({"theta": theta, "phi": phi, "vector": [v.x, v.y, v.z]})
    return report


@functools.lru_cache(maxsize=64)
def _cat_minimum(n: int, grid: int, refined: bool) -> tuple[float, MinimizeResult, _KeptJson, _KeptJson]:
    """The n-qubit cat state's threshold_search and minimize_wcan, with the
    report's argmin and grid_ties of that minimization kept with the text json
    writes for them, once per key (at most 24 ties, about 12 KB at n = 9): the
    eps = 1 target of every eps-family, minimized on its closed-form Pauli
    tensor, which states._cat_coefficients keeps and this memo does not (2 MB at
    n = 9).  minimize_wcan refines alike
    at every positive count, so each key is computed once per process; the
    module's threshold_search is looked up at call time."""
    pure = _cat_coefficients(n)
    refine = int(refined)
    threshold = threshold_search(pure, grid_per_sphere=grid, refine_iters=refine)
    cat = minimize_wcan(pure, grid_per_sphere=grid, refine_iters=refine)
    return threshold, cat, _KeptJson.of(_argmin_report(cat.argmin)), _KeptJson.of(cat.grid_ties)


def cmd_min_wcan(args) -> int:
    if args.grid < 6:
        raise _InputError(f"--grid must be >= 6, got {args.grid}")
    if args.refine < 0:
        raise _InputError(f"--refine must be >= 0, got {args.refine}")
    spec = _read("--state", args.state, StateSpec.from_json)
    rho = build_state(spec)
    c = pauli_coefficients(rho)
    cat = None
    if spec.family in _CAT_FAMILIES:
        cat_threshold, cat, cat_argmin, cat_ties = _cat_minimum(rho.qubits, args.grid, args.refine > 0)
        fixed = _MIXTURES[spec.family][1]
        eps = spec.epsilon if fixed is None else fixed
    # w_eps = (1 - eps) u + eps w_cat has the cat state's minimizers at eps > 0, and
    # its grid ties while eps times the cat's tie gap is twice the tie width or more;
    # the report then writes the cat's argmin and ties from their kept JSON text
    if cat is not None and eps * cat.tie_gap >= 2.0 * _TIE_WIDTH:
        result = cat._replace(value=wcan_continuous(c, cat.argmin))
        argmin, ties = cat_argmin, cat_ties
    else:
        result = minimize_wcan(c, grid_per_sphere=args.grid, refine_iters=args.refine)
        argmin, ties = _argmin_report(result.argmin), result.grid_ties
    payload = {
        "qubits": rho.qubits,
        "min": result.value,
        "argmin": argmin,
        "grid_ties": ties,
        "grid": args.grid,
        "grid_used": result.grid_used,
        "refine": args.refine,
    }
    if args.threshold_search:
        # the target is the family at eps = 1: the N-qubit cat state for the cat
        # families, else the state just minimized
        payload["threshold"] = _threshold(c, result.value) if cat is None else cat_threshold
    _emit(args, payload)
    return EXIT_OK


def _coeffs_for_witness(args) -> PauliCoefficients:
    if args.coeffs:
        return _read("--coeffs", args.coeffs, PauliCoefficients.from_dict)
    if not args.state:
        raise _InputError("witness needs --state or --coeffs")
    return pauli_coefficients(build_state(_read("--state", args.state, StateSpec.from_json)))


def cmd_witness(args) -> int:
    c = _coeffs_for_witness(args)
    report = (witness_werner if args.name == "werner" else witness_ghz)(c, args.tol)
    _emit(args, report.to_json())
    return EXIT_OK


def cmd_ppt(args) -> int:
    rho = build_state(_read("--state", args.state, StateSpec.from_json))
    value = ppt_min_eigenvalue(rho)
    _emit(
        args,
        {
            "min_eigenvalue": value,
            # both sides of a two-qubit partial transpose have the same spectrum
            "transposed_side": 1,
            # PPT is necessary and sufficient for two qubits, the only case ppt accepts
            "verdict": "nonseparable" if value < -args.tol else "separable",
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
    parser.add_argument(
        "--tol", type=float, default=None,
        help="slack on the verdict of "
        + ", ".join(f"{command} (default {tol:g})" for command, tol in _TOLERANCES.items()),
    )
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
    g.add_argument("--name", choices=tuple(_NAMED_ENSEMBLES))
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
        "in closed form from its minimum",
    )
    p.set_defaults(func=cmd_min_wcan)

    p = sub.add_parser("witness", help="evaluate a correlation witness")
    p.add_argument("--name", choices=("werner", "ghz"), required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--state", default=None, help="state JSON (inline or a file path)")
    g.add_argument("--coeffs", default=None, help="Pauli coefficient JSON instead of a state")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("ppt", help="smallest partial-transpose eigenvalue, two qubits")
    p.add_argument("--state", required=True, help="state JSON (inline or a file path)")
    p.set_defaults(func=cmd_ppt)

    return parser


# one parser per process, built on the first call; parsing leaves it unchanged
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.tol = _resolve_tol(args.command, args.tol)
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a reader that left is seen here
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit stays quiet (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
