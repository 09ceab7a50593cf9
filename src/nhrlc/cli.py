"""Command-line front end.

Four subcommands, all emitting machine-readable output on stdout:

* ``analyze``  -- full JSON report for one parameter point;
* ``sweep``    -- CSV of both eigenvalue branches over a damping range, from
  the closed form lambda_pm = -i*alpha +- sqrt(omega0^2 - alpha^2);
* ``evolve``   -- CSV trajectory by one or all evolution routes, with the
  route-agreement summary on stderr;
* ``mequiv``   -- JSON equivalence verdict for two explicit matrices.

Exit codes: 0 on success with all residuals inside their documented
tolerances, 1 when a tolerance is violated, 2 on invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import dynamics, mequiv
from .circuit import CircuitParams, Phase, classify
from .errors import PhaseUnsupported
from .metric import solve_intertwiners
from .report import build_report, route_agreement
from .spectral import modes


class _Parser(argparse.ArgumentParser):
    """Argument parser with a single-line diagnostic on stderr."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nhrlc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full JSON report for one parameter point")
    p_analyze.add_argument("--alpha", type=float, help="damping rate R/(2L)")
    p_analyze.add_argument("--omega0", type=float, help="natural frequency 1/sqrt(LC)")
    p_analyze.add_argument("--R", type=float, help="resistance in ohms")
    p_analyze.add_argument("--L", type=float, help="inductance in henries")
    p_analyze.add_argument("--C", type=float, help="capacitance in farads")

    p_sweep = sub.add_parser("sweep", help="eigenvalue branches over a damping range (CSV)")
    p_sweep.add_argument("--omega0", type=float, required=True)
    p_sweep.add_argument("--alpha-min", type=float, required=True)
    p_sweep.add_argument("--alpha-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)

    p_evolve = sub.add_parser("evolve", help="trajectory CSV plus agreement summary")
    p_evolve.add_argument("--alpha", type=float, required=True)
    p_evolve.add_argument("--omega0", type=float, required=True)
    p_evolve.add_argument("--i0", type=float, required=True)
    p_evolve.add_argument("--v0", type=float, required=True)
    p_evolve.add_argument("--L", type=float, required=True)
    p_evolve.add_argument("--t-max", type=float, required=True)
    p_evolve.add_argument("--dt", type=float, required=True)
    p_evolve.add_argument(
        "--method", choices=("all", "closed", "spectral", "rk"), default="all"
    )

    p_meq = sub.add_parser("mequiv", help="equivalence verdict for two explicit matrices")
    p_meq.add_argument(
        "--matrix-a", type=float, nargs=8, required=True,
        metavar="X", help="re/im entries, row-major: re11 im11 re12 im12 ...",
    )
    p_meq.add_argument("--matrix-b", type=float, nargs=8, required=True, metavar="X")
    return parser


def _params_from_args(parser: _Parser, args) -> CircuitParams:
    rates = [args.alpha, args.omega0]
    rlc = [args.R, args.L, args.C]
    has_rates = any(v is not None for v in rates)
    has_rlc = any(v is not None for v in rlc)
    if has_rates == has_rlc:
        parser.error("supply exactly one of --alpha/--omega0 or --R/--L/--C")
    try:
        if has_rates:
            if args.alpha is None or args.omega0 is None:
                parser.error("both --alpha and --omega0 are required")
            return CircuitParams.from_rates(args.alpha, args.omega0)
        if any(v is None for v in rlc):
            parser.error("all of --R, --L and --C are required")
        return CircuitParams.from_rlc(args.R, args.L, args.C)
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


def _cmd_analyze(parser: _Parser, args) -> int:
    params = _params_from_args(parser, args)
    try:
        result = build_report(params)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    json.dump(result.report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    for line in result.violations:
        print(f"tolerance violation: {line}", file=sys.stderr)
    return 1 if result.violations else 0


def _cmd_sweep(parser: _Parser, args) -> int:
    if not np.all(np.isfinite([args.alpha_min, args.alpha_max, args.omega0])):
        parser.error("--alpha-min, --alpha-max and --omega0 must be finite")
    if not args.alpha_min < args.alpha_max:
        parser.error("--alpha-min must be below --alpha-max")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.omega0 <= 0:
        parser.error("--omega0 must be positive")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    branches = modes(alphas, args.omega0)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["alpha", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus", "im_lambda_minus", "phase"]
    )
    for alpha, lam_p, lam_m in zip(alphas, branches.lambda_plus, branches.lambda_minus):
        params = CircuitParams.from_rates(float(alpha), args.omega0)
        writer.writerow(
            [
                repr(float(alpha)),
                repr(float(lam_p.real)), repr(float(lam_p.imag)),
                repr(float(lam_m.real)), repr(float(lam_m.imag)),
                classify(params).value,
            ]
        )
    return 0


def _cmd_evolve(parser: _Parser, args) -> int:
    try:
        params = CircuitParams.from_rates(args.alpha, args.omega0)
        init = dynamics.InitialData(i0=args.i0, v0=args.v0, inductance=args.L)
        grid = dynamics.uniform_grid(args.t_max, args.dt)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")

    wanted = ("closed", "spectral", "rk") if args.method == "all" else (args.method,)
    trajectories = {}
    try:
        for name in wanted:
            if name == "closed":
                if args.method == "all" and classify(params) is not Phase.BROKEN:
                    continue  # closed form only exists in the broken phase
                trajectories[name] = dynamics.evolve_closed_form(params, init, grid)
            elif name == "spectral":
                trajectories[name] = dynamics.evolve_spectral(params, init, grid)
            else:
                trajectories[name] = dynamics.evolve_integrated(params, init, grid, step=args.dt)
    except PhaseUnsupported as exc:
        print(f"nhrlc evolve: error: {exc}", file=sys.stderr)
        return 2

    for traj in trajectories.values():
        dynamics.write_csv(traj, sys.stdout)

    agreement = route_agreement(trajectories, args.dt)
    for name_a, name_b, err, at, tol in agreement:
        status = "ok" if err <= tol else "EXCEEDS"  # a NaN error exceeds
        print(
            f"{name_a} vs {name_b}: max error {err:.3e} at t={at:g} "
            f"(tolerance {tol:.1e}, {status})",
            file=sys.stderr,
        )
    if args.method == "all" and agreement:
        print(f"three-way max error: {np.max([r[2] for r in agreement]):.3e}", file=sys.stderr)
    return 1 if any(not err <= tol for _, _, err, _, tol in agreement) else 0


def _parse_matrix(flat: list[float]) -> np.ndarray:
    vals = [complex(flat[k], flat[k + 1]) for k in range(0, 8, 2)]
    return np.array([[vals[0], vals[1]], [vals[2], vals[3]]], dtype=complex)


def _cmd_mequiv(args) -> int:
    mat_a = _parse_matrix(args.matrix_a)
    mat_b = _parse_matrix(args.matrix_b)
    verdict = {
        "m_equivalent": mequiv.m_equivalent(mat_a, mat_b),
        "similar": mequiv.is_similar(mat_a, mat_b),
        "intertwiner_dim": len(solve_intertwiners(mat_a, mat_b)),
    }
    json.dump(verdict, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _as_value(token: str) -> str:
    """Keep a number such as '-4e-07' or '-inf' from being read as an option.

    argparse takes a token that starts with '-' for an option unless it looks
    like '-4' or '-0.5'. A leading space makes it a value; float() ignores it.
    """
    if token.startswith("-"):
        try:
            float(token)
        except ValueError:
            return token
        return " " + token
    return token


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args([_as_value(token) for token in argv])
    if args.command == "analyze":
        return _cmd_analyze(parser, args)
    if args.command == "sweep":
        return _cmd_sweep(parser, args)
    if args.command == "evolve":
        return _cmd_evolve(parser, args)
    return _cmd_mequiv(args)


if __name__ == "__main__":
    sys.exit(main())
