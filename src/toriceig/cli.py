"""Command-line front end.

Subcommands: info, bound, lambda1t, sweep-uc, sweep-dilation, ke-check,
balance, saturate.  Reports are JSON by default (sweeps can emit CSV); every
report echoes the fully resolved configuration, and nothing is randomized, so
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 validation failure (bad polytope, bad flags),
3 numerical failure (no convergence, singular mass matrix, ...).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry
from .polytope import (
    BlyBound,
    LabelledPolytope,
    PolytopeError,
    PrematureK,
    load_polytope,
    polytope_to_dict,
)
from .potential import NotPositiveDefinite, PotentialError, potential_from_spec
from .projective import NoConvergence, balance, bound_report, build_embedding, saturation_check
from .quadrature import MAX_ORDER, build_quadrature
from .spectral import SpectralError, lambda1_invariant, sweep_dilation, sweep_uc

NUMERICAL_ERRORS = (
    NoConvergence,
    SpectralError,
    NotPositiveDefinite,
    geometry.StepUnderflow,
)
VALIDATION_ERRORS = (PolytopeError, PotentialError, ValueError, KeyError, OSError)


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriceig",
        description="First-eigenvalue numerics for toric Kahler metrics from polytope data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, potential_flag=True, quad=True):
        p.add_argument("polytope", help="path to a polytope JSON file")
        if potential_flag:
            p.add_argument(
                "--potential",
                default="guillemin",
                help='potential spec: "guillemin", "uc:i=<axis>,c=<float>", '
                '"dilation:s=<float>", "poly:<coeff file>"',
            )
        if quad:
            p.add_argument("--degree", type=int, default=6, help="trial polynomial degree")
            p.add_argument(
                "--quad-order", type=int, default=3,
                help=f"base rule order q in 1..{MAX_ORDER}, exact to degree 2q - 1",
            )
            p.add_argument("--quad-depth", type=int, default=2, help="uniform subdivisions")
        p.add_argument(
            "--output",
            choices=("text", "json", "csv"),
            default="json",
            help="report format (csv only for sweeps)",
        )

    p = sub.add_parser("info", help="parse, normalize and describe a polytope")
    add_common(p, potential_flag=False, quad=False)

    p = sub.add_parser("bound", help="lattice-point eigenvalue bounds")
    add_common(p, potential_flag=False, quad=False)
    p.add_argument("--k", type=int, default=None, help="single refinement to evaluate")
    p.add_argument("--k-max", type=int, default=64, help="search cutoff for k0")

    p = sub.add_parser("lambda1t", help="Ritz upper bound for the first invariant eigenvalue")
    add_common(p)

    p = sub.add_parser("sweep-uc", help="lambda1T along the quadratic perturbation family")
    add_common(p)
    p.add_argument("--c", type=_float_list, required=True, help="ascending list, e.g. 0,1,10")
    p.add_argument("--axis", type=int, default=0, help="perturbed coordinate axis")

    p = sub.add_parser("sweep-dilation", help="lambda1T along the dilation family")
    add_common(p)
    p.add_argument("--s", type=_float_list, required=True, help="decreasing list > 1, e.g. 2,1.5,1.1")

    p = sub.add_parser("ke-check", help="Kahler-Einstein moment-map eigenfunction test")
    add_common(p, quad=False)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=40)

    p = sub.add_parser("balance", help="balanced weights for the lattice embedding")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)

    p = sub.add_parser("saturate", help="bounds, balance and saturation in one report")
    add_common(p)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--k-max", type=int, default=64)

    return parser


def _emit(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]} = {value}")
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _config(args, extra=None) -> dict:
    cfg = {"command": args.command, "polytope": args.polytope, "output": args.output}
    for name in ("potential", "degree", "quad_order", "quad_depth", "k", "k_max", "tol",
                 "max_iter", "samples", "axis"):
        if hasattr(args, name):
            cfg[name] = getattr(args, name)
    if getattr(args, "c", None) is not None:
        cfg["c"] = args.c
    if getattr(args, "s", None) is not None:
        cfg["s"] = args.s
    if extra:
        cfg.update(extra)
    return cfg


def _cmd_info(args, P: LabelledPolytope) -> dict:
    return {
        "config": _config(args),
        "polytope": polytope_to_dict(P),
        "dim": P.dim,
        "num_facets": P.num_facets,
        "vertices": [[str(c) for c in v.coords] for v in P.vertices()],
        "is_delzant": P.is_delzant(),
        "is_integral": P.is_integral(),
    }


def _cmd_bound(args, P: LabelledPolytope) -> dict:
    if not P.is_delzant():
        raise PolytopeError("bounds require a Delzant polytope")
    report = bound_report(P, k_max=args.k_max)
    out = {
        "config": _config(args),
        "is_integral": P.is_integral(),
        **report.to_dict(),
    }
    if args.k is not None:
        if args.k < report.k0:
            raise PrematureK(f"k={args.k} is below k0={report.k0}")
        out["single_k"] = BlyBound.from_lattice(P.dim, P.lattice_points(args.k)).to_dict()
    return out


def _make_potential_and_rule(args, P: LabelledPolytope):
    u = potential_from_spec(P, args.potential)
    Q = build_quadrature(u.polytope, args.quad_order, args.quad_depth)
    return u, Q


def _cmd_lambda1t(args, P: LabelledPolytope) -> dict:
    u, Q = _make_potential_and_rule(args, P)
    result = lambda1_invariant(u, args.degree, Q)
    return {"config": _config(args), **result.to_dict()}


def _cmd_sweep(args, P: LabelledPolytope, kind: str):
    if kind == "uc":
        result = sweep_uc(
            P, args.axis, args.c, degree=args.degree, order=args.quad_order, depth=args.quad_depth
        )
    else:
        result = sweep_dilation(
            P, args.s, degree=args.degree, order=args.quad_order, depth=args.quad_depth
        )
    if args.output == "csv":
        return result.to_csv()
    return {"config": _config(args), **result.to_dict()}


def _cmd_ke_check(args, P: LabelledPolytope) -> dict:
    u = potential_from_spec(P, args.potential)
    report = geometry.ke_check(u, samples=args.samples, tol=args.tol)
    return {"config": _config(args), **report.to_dict()}


def _cmd_balance(args, P: LabelledPolytope) -> dict:
    E = build_embedding(P)
    u = potential_from_spec(E.polytope, args.potential)
    Q = build_quadrature(E.polytope, args.quad_order, args.quad_depth)
    weights = balance(E, u, Q, tol=args.tol, max_iter=args.max_iter)
    return {"config": _config(args), "balance": weights.to_dict(), "n_lattice": E.count}


def _cmd_saturate(args, P: LabelledPolytope) -> dict:
    E = build_embedding(P)
    u = potential_from_spec(E.polytope, args.potential)
    Q = build_quadrature(E.polytope, args.quad_order, args.quad_depth)
    weights = balance(E, u, Q, max_iter=args.max_iter)
    saturation = saturation_check(E, u, weights, Q, tol=args.tol)
    bounds = bound_report(P, k_max=args.k_max)
    return {
        "config": _config(args),
        "bounds": bounds.to_dict(),
        "balance": weights.to_dict(),
        "saturation": saturation.to_dict(),
    }


def run(args) -> str:
    P = load_polytope(args.polytope)
    if args.command == "info":
        report = _cmd_info(args, P)
    elif args.command == "bound":
        report = _cmd_bound(args, P)
    elif args.command == "lambda1t":
        report = _cmd_lambda1t(args, P)
    elif args.command == "sweep-uc":
        report = _cmd_sweep(args, P, "uc")
    elif args.command == "sweep-dilation":
        report = _cmd_sweep(args, P, "dilation")
    elif args.command == "ke-check":
        report = _cmd_ke_check(args, P)
    elif args.command == "balance":
        report = _cmd_balance(args, P)
    elif args.command == "saturate":
        report = _cmd_saturate(args, P)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command}")
    if isinstance(report, str):
        return report
    return _emit(report, args.output)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output == "csv" and args.command not in ("sweep-uc", "sweep-dilation"):
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
