"""Command-line front end.

Each subcommand is declared once, in `COMMANDS`, with its handler, help text
and flags.  Every report is built here from the fields of the library's result
dataclasses, and `_plain` encodes it once, in `run`.  Reports are JSON by
default (sweeps can emit CSV); every report echoes the parsed arguments as its
"config", and nothing is randomized, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 validation failure (bad polytope, bad flags),
3 numerical failure (no convergence, singular mass matrix, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .polytope import LabelledPolytope, PolytopeError, load_polytope, polytope_to_dict
from .potential import NotPositiveDefinite, PotentialError, potential_from_spec
from .projective import NoConvergence, balance, bound_report, build_embedding, saturation_check
from .quadrature import MAX_ORDER, build_quadrature
from .spectral import SpectralError, lambda1_invariant, sweep_dilation, sweep_uc

NUMERICAL_ERRORS = (NoConvergence, SpectralError, NotPositiveDefinite)
VALIDATION_ERRORS = (PolytopeError, PotentialError, ValueError, KeyError, OSError)


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _plain(value):
    """The JSON value of a report entry: a dataclass becomes its fields in
    field order, an array, tuple or list a list, a Fraction an int or "p/q"."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _emit(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(prefix, value):
        # one `path = leaf` line per leaf, the leaf in its JSON spelling; a
        # list entry's path segment is its index, and an empty dict or list
        # is a leaf
        if isinstance(value, dict) and value:
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list) and value:
            for i, v in enumerate(value):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]} = {json.dumps(value)}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _rule(args, P: LabelledPolytope):
    return build_quadrature(P, args.quad_order, args.quad_depth)


def _cmd_info(args, P: LabelledPolytope) -> dict:
    return {
        "polytope": polytope_to_dict(P),
        "dim": P.dim,
        "num_facets": P.num_facets,
        "vertices": [[str(c) for c in v.coords] for v in P.vertices()],
        "is_delzant": P.is_delzant(),
        "is_integral": P.is_integral(),
    }


def _cmd_bound(args, P: LabelledPolytope) -> dict:
    report = bound_report(P, k_max=args.k_max)
    out = {"is_integral": P.is_integral(), **vars(report)}
    if args.k is not None:
        out["single_k"] = P.bly_bound(args.k, args.k_max)
    return out


def _cmd_lambda1t(args, P: LabelledPolytope) -> dict:
    u = potential_from_spec(P, args.potential)
    result = lambda1_invariant(u, args.degree, _rule(args, P))
    eigenfunction = ("eigvec", "center", "halfwidth")  # left out of the report
    return {key: v for key, v in vars(result).items() if key not in eigenfunction}


def _sweep_report(result, output: str):
    """A sweep as CSV rows, or as its fields with one dict per row."""
    if output == "csv":
        return "param,lambda1T,degree,quad_nodes\n" + "".join(
            f"{p!r},{lam!r},{result.degree},{result.quad_nodes}\n" for p, lam in result.rows
        )
    rows = [{result.parameter: p, "lambda1T": lam} for p, lam in result.rows]
    return {**vars(result), "rows": rows}


def _cmd_sweep_uc(args, P: LabelledPolytope):
    result = sweep_uc(P, args.axis, args.c, degree=args.degree, Q=_rule(args, P))
    return _sweep_report(result, args.output)


def _cmd_sweep_dilation(args, P: LabelledPolytope):
    result = sweep_dilation(P, args.s, degree=args.degree, Q=_rule(args, P))
    return _sweep_report(result, args.output)


def _cmd_ke_check(args, P: LabelledPolytope):
    u = potential_from_spec(P, args.potential)
    return geometry.ke_check(u, samples=args.samples, tol=args.tol)


def _balance_report(weights) -> dict:
    return {**vars(weights), "alpha_over_alpha0": weights.alpha / weights.alpha[0]}


def _cmd_balance(args, P: LabelledPolytope) -> dict:
    E = build_embedding(P)
    u = potential_from_spec(E.polytope, args.potential)
    weights = balance(E, u, _rule(args, E.polytope), tol=args.tol, max_iter=args.max_iter)
    return {"balance": _balance_report(weights), "n_lattice": E.count}


def _cmd_saturate(args, P: LabelledPolytope) -> dict:
    E = build_embedding(P)
    u = potential_from_spec(E.polytope, args.potential)
    Q = _rule(args, E.polytope)
    weights = balance(E, u, Q, max_iter=args.max_iter)
    return {
        "balance": _balance_report(weights),
        "saturation": saturation_check(E, u, weights, Q, tol=args.tol),
        "bounds": bound_report(P, k_max=args.k_max),
    }


# Flags shared between subcommands, as (name, add_argument keywords).
POTENTIAL = ("--potential", dict(
    default="guillemin",
    help='potential spec: "guillemin", "uc:i=<axis>,c=<float>", '
    '"dilation:s=<float>", "poly:<coeff file>"',
))
DEGREE = ("--degree", dict(type=int, default=6, help="trial polynomial degree"))
QUAD = (
    ("--quad-order", dict(
        type=int, default=3, help=f"base rule order q in 1..{MAX_ORDER}, exact to degree 2q - 1"
    )),
    ("--quad-depth", dict(type=int, default=2, help="uniform subdivisions")),
)
OUTPUT = ("--output", dict(
    choices=("text", "json", "csv"), default="json", help="report format (csv only for sweeps)"
))
K_MAX = ("--k-max", dict(type=int, default=64))
MAX_ITER = ("--max-iter", dict(type=int, default=200))

# name: (handler, help, flags after the polytope argument, in --help order).
# Every report echoes vars(args), so a flag declared here is in its config.
COMMANDS = {
    "info": (_cmd_info, "parse, normalize and describe a polytope", [OUTPUT]),
    "bound": (_cmd_bound, "lattice-point eigenvalue bounds", [
        OUTPUT,
        ("--k", dict(type=int, default=None, help="single refinement to evaluate")),
        ("--k-max", dict(K_MAX[1], help="search cutoff for k0")),
    ]),
    "lambda1t": (_cmd_lambda1t, "Ritz upper bound for the first invariant eigenvalue", [
        POTENTIAL, DEGREE, *QUAD, OUTPUT,
    ]),
    "sweep-uc": (_cmd_sweep_uc, "lambda1T along the quadratic perturbation family", [
        DEGREE, *QUAD, OUTPUT,
        ("--c", dict(type=_float_list, required=True, help="ascending list, e.g. 0,1,10")),
        ("--axis", dict(type=int, default=0, help="perturbed coordinate axis")),
    ]),
    "sweep-dilation": (_cmd_sweep_dilation, "lambda1T along the dilation family", [
        DEGREE, *QUAD, OUTPUT,
        ("--s", dict(type=_float_list, required=True, help="decreasing list > 1, e.g. 2,1.5,1.1")),
    ]),
    "ke-check": (_cmd_ke_check, "Kahler-Einstein moment-map eigenfunction test", [
        POTENTIAL, OUTPUT, ("--tol", dict(type=float, default=None)),
        ("--samples", dict(type=int, default=40)),
    ]),
    "balance": (_cmd_balance, "balanced weights for the lattice embedding", [
        POTENTIAL, *QUAD, OUTPUT, ("--tol", dict(type=float, default=1e-10)), MAX_ITER,
    ]),
    "saturate": (_cmd_saturate, "bounds, balance and saturation in one report", [
        POTENTIAL, *QUAD, OUTPUT, ("--tol", dict(type=float, default=None)), MAX_ITER, K_MAX,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriceig",
        description="First-eigenvalue numerics for toric Kahler metrics from polytope data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("polytope", help="path to a polytope JSON file")
        for name, kwargs in flags:
            p.add_argument(name, **kwargs)
    return parser


def run(args) -> str:
    report = COMMANDS[args.command][0](args, load_polytope(args.polytope))
    if isinstance(report, str):
        return report
    return _emit({"config": vars(args), **_plain(report)}, args.output)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output == "csv" and not args.command.startswith("sweep-"):
            parser.exit(2, "error: --output csv is only available for sweep commands\n")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys.stdout.write(run(args))
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except VALIDATION_ERRORS as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
