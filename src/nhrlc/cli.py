"""Command-line front end.

Four subcommands, all emitting machine-readable output on stdout:

* ``analyze``  -- full JSON report for one parameter point;
* ``sweep``    -- CSV of both eigenvalue branches over a damping range, from
  the closed form lambda_pm = -i*alpha +- sqrt(omega0^2 - alpha^2);
* ``evolve``   -- CSV trajectory by one or all evolution routes, with the
  route-agreement summary on stderr;
* ``mequiv``   -- JSON equivalence verdict for two explicit matrices.

Both CSV outputs are written by ``circuit.write_rows``. Each handler imports
the layers it runs, and ``import nhrlc.cli`` loads none of them, nor numpy:
``sweep`` loads ``circuit``, ``errors`` and ``spectral`` and loops the scalar
closed form ``spectral.modes`` over a Python grid, with no numpy; ``evolve``
loads those, ``cxmat`` and ``dynamics``; ``mequiv`` loads ``mequiv`` alone and
decides on Python scalars, with no numpy; ``analyze`` loads all nine.

Exit codes: 0 on success with all residuals inside their documented
tolerances, 1 when a tolerance is violated, 2 on invalid parameters.
"""

from __future__ import annotations

import argparse
import cmath  # loaded anyway: spectral and mequiv import it
import math
import sys
from typing import NoReturn


class _Parser(argparse.ArgumentParser):
    """Argument parser with a single-line diagnostic on stderr."""

    def error(self, message) -> NoReturn:
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


def _params_from_args(parser: _Parser, args):
    from .circuit import CircuitParams

    rates = [args.alpha, args.omega0]
    rlc = [args.R, args.L, args.C]
    has_rates = any(v is not None for v in rates)
    has_rlc = any(v is not None for v in rlc)
    if has_rates == has_rlc:
        parser.error("supply exactly one of --alpha/--omega0 or --R/--L/--C")
    if has_rates:
        if args.alpha is None or args.omega0 is None:
            parser.error("both --alpha and --omega0 are required")
        return CircuitParams.from_rates(args.alpha, args.omega0)
    if any(v is None for v in rlc):
        parser.error("all of --R, --L and --C are required")
    return CircuitParams.from_rlc(args.R, args.L, args.C)


def _cmd_analyze(parser: _Parser, args) -> int:
    import json

    from .report import build_report

    try:
        result = build_report(_params_from_args(parser, args))
    except ValueError as exc:
        parser.error(str(exc))
    json.dump(result.report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    for line in result.violations:
        print(f"tolerance violation: {line}", file=sys.stderr)
    return 1 if result.violations else 0


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num >= 2) bit for bit, allocated up front (a MemoryError at
    once): k*step + start, step = delta/(num - 1), or k/(num - 1)*delta + start if step = 0."""
    grid, div, delta = [0.0] * num, num - 1, stop - start
    step = delta / div
    for k in range(num - 1):
        grid[k] = k * step + start if step else k / div * delta + start
    grid[-1] = stop
    return grid


def _cmd_sweep(parser: _Parser, args) -> int:
    from .circuit import phase_of, write_rows
    from .spectral import modes

    if not all(map(math.isfinite, (args.alpha_min, args.alpha_max, args.omega0))):
        parser.error("--alpha-min, --alpha-max and --omega0 must be finite")
    if not args.alpha_min < args.alpha_max:
        parser.error("--alpha-min must be below --alpha-max")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.omega0 <= 0:
        parser.error("--omega0 must be positive")
    if not math.isfinite(args.alpha_max - args.alpha_min):
        parser.error("--alpha-max minus --alpha-min must be finite")
    try:
        alphas = _linspace(args.alpha_min, args.alpha_max, args.steps)
    except MemoryError:
        parser.error(f"--steps {args.steps} is too many to hold in memory")
    branches = [modes(alpha, args.omega0)[:2] for alpha in alphas]  # (lambda+, lambda-)
    if not all(cmath.isfinite(lam) for pair in branches for lam in pair):
        parser.error("an eigenvalue is not finite between --alpha-min and --alpha-max")
    write_rows(
        sys.stdout, "alpha,re_lambda_plus,im_lambda_plus,re_lambda_minus,im_lambda_minus,phase",
        ((a, p.real, p.imag, m.real, m.imag, phase_of(a, args.omega0).value)
         for a, (p, m) in zip(alphas, branches)),
    )
    return 0


def _cmd_evolve(parser: _Parser, args) -> int:
    import numpy as np

    from . import dynamics
    from .circuit import CircuitParams
    from .errors import exceeds

    try:
        params = CircuitParams.from_rates(args.alpha, args.omega0)
        init = dynamics.InitialData(i0=args.i0, v0=args.v0, inductance=args.L)
        grid = dynamics.uniform_grid(args.t_max, args.dt)
    except (ValueError, MemoryError) as exc:
        parser.error(str(exc))

    try:
        trajectories, agreement = dynamics.cross_check(params, init, grid, method=args.method)
    except ValueError as exc:  # a route refusing this phase or point
        print(f"nhrlc evolve: error: {exc}", file=sys.stderr)
        return 2

    nonfinite = False
    for name, traj in trajectories.items():
        dynamics.write_csv(traj, sys.stdout)
        bad = ~np.isfinite(traj.states).all(axis=1)
        if bad.any():  # one route alone has no agreement gate to fail it
            print(f"{name}: state not finite from t={traj.times[bad.argmax()]:g}", file=sys.stderr)
            nonfinite = True

    for name_a, name_b, err, at, tol in agreement:
        status = "EXCEEDS" if exceeds(err, tol) else "ok"
        print(
            f"{name_a} vs {name_b}: max error {err:.3e} at t={at:g} "
            f"(tolerance {tol:.1e}, {status})",
            file=sys.stderr,
        )
    if agreement:  # only --method all has pairs
        print(f"three-way max error: {np.max([r[2] for r in agreement]):.3e}", file=sys.stderr)
    failed = nonfinite or any(exceeds(err, tol) for _, _, err, _, tol in agreement)
    return 1 if failed else 0


def _parse_matrix(parser: _Parser, flat: list[float]) -> list[list[complex]]:
    """Row-major re/im pairs as a 2x2 nested list of Python complex, finite as as_cmat asks."""
    if not all(map(math.isfinite, flat)):
        parser.error("matrix entries must be finite")
    vals = [complex(flat[k], flat[k + 1]) for k in range(0, 8, 2)]
    return [vals[:2], vals[2:]]


def _cmd_mequiv(parser: _Parser, args) -> int:
    """The decision of m_equivalent, is_similar and len(solve_intertwiners), taken once."""
    import json

    from .mequiv import _decide

    equal, similar, dim, *_ = _decide(
        _parse_matrix(parser, args.matrix_a), _parse_matrix(parser, args.matrix_b)
    )
    verdict = {"m_equivalent": equal, "similar": similar, "intertwiner_dim": dim}
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
    return _cmd_mequiv(parser, args)


if __name__ == "__main__":
    sys.exit(main())
