"""Command-line front end: spectral analyses, solves, scans, and simulations.

Every subcommand takes a kernel description (JSON file or inline JSON),
which `main` reads once and overrides with `--n`, and writes a
deterministic CSV or JSON artifact whose header embeds the fully resolved
configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Errors
are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .kernels import KernelSpec, coefficients, kernel_spec_from_json, stability_check
from .meanfield import free_energy, linear_spectrum, uniform_density
from .particles import SimConfig, simulate
from .solver import (
    BranchPoint,
    SolverConfig,
    _seeded_density,
    bifurcation_points,
    find_transition,
    gibbs_fixed_point,
    trace_branch,
)
from .specfun import gauss_jacobi_rule

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache  # built at the first `main` call, then reused; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremv",
        description="Spectral toolkit for mean-field dynamics on the sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kernel", required=True, help="kernel JSON file or inline JSON")
    common.add_argument("--n", type=int, help="override sphere dimension")
    common.add_argument("--K", type=int, default=48, help="truncation degree")
    common.add_argument("--M", type=int, help="quadrature order (default K + 24)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    sub.add_parser("decompose", parents=[common], help="spectral coefficients of the kernel")
    sub.add_parser("bifurcations", parents=[common], help="bifurcation points (k, gamma_k)")

    p = sub.add_parser("spectrum", parents=[common], help="linear-stability eigenvalues")
    p.add_argument("--gamma", type=float, required=True)

    p = sub.add_parser("solve", parents=[common], help="Gibbs fixed point at one gamma")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mode", type=int, default=0, help="seed mode (0 = uniform seed)")

    p = sub.add_parser("branch", parents=[common], help="trace a non-uniform branch")
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--gamma-steps", type=int, default=20)

    p = sub.add_parser("transition", parents=[common], help="phase-transition scan")
    p.add_argument("--gamma-min", type=float)
    p.add_argument("--gamma-max", type=float)
    p.add_argument("--gamma-steps", type=int)

    p = sub.add_parser("simulate", parents=[common], help="interacting-particle run")
    p.add_argument("--gamma", type=float, default=math.inf)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--particles", type=int, default=1000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    out = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v) for k, v in out.items()}
    return out


def _emit(args: argparse.Namespace, header: dict, rows: list[tuple], columns: list[str]) -> None:
    """Write rows either as commented-header CSV or as a JSON document."""
    meta = json.dumps(header, sort_keys=True)
    if args.format == "csv":
        lines = [f"# {meta}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"config": header, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, sort_keys=True, default=_fmt) + "\n"
    _write_out(args.out, text)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_out(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_gamma_grid(args: argparse.Namespace) -> None:
    """Reject a gamma grid the scan could not use, before any numerical work."""
    for flag in ("gamma_min", "gamma_max"):
        value = getattr(args, flag)
        if not 0.0 < value < math.inf:
            raise ValueError(f"--{flag.replace('_', '-')} must be positive and finite, got {value}")
    if args.gamma_steps is not None and args.gamma_steps < 1:
        raise ValueError(f"--gamma-steps must be >= 1, got {args.gamma_steps}")


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    M = args.M if args.M is not None else args.K + 24
    return SolverConfig(K=args.K, M=M)


# One row per stationary state, shared by `solve` and `branch`.
_STATE_COLUMNS = [
    "gamma", "mode", "amplitude", "entropy", "interaction", "free_energy", "residual", "iterations"
]


def _state_row(point: BranchPoint) -> tuple:
    energy = point.energy
    return (point.gamma, point.dominant_mode, point.amplitude, energy.entropy, energy.interaction,
            energy.free_energy, point.residual, point.iterations)


def _cmd_decompose(args, spec: KernelSpec) -> int:
    rows = list(enumerate(coefficients(spec, args.K).coeffs.tolist()))
    _emit(args, _resolved_config(args), rows, ["k", "coeff"])
    return 0


def _cmd_bifurcations(args, spec: KernelSpec) -> int:
    coeffs = coefficients(spec, args.K)
    if stability_check(coeffs).stable:
        _emit(args, {**_resolved_config(args), "note": "stable kernel"}, [], ["k", "gamma_k"])
        return 0
    bif = bifurcation_points(coeffs)
    header = _resolved_config(args)
    if bif.ties:
        header["ties"] = list(bif.ties)
    _emit(args, header, [(k, float(g)) for k, g in bif.points], ["k", "gamma_k"])
    return 0


def _cmd_spectrum(args, spec: KernelSpec) -> int:
    coeffs = coefficients(spec, args.K)
    rows = list(enumerate(linear_spectrum(coeffs, args.gamma, args.K).eigenvalues.tolist()))
    _emit(args, _resolved_config(args), rows, ["l", "lambda_l"])
    return 0


def _cmd_solve(args, spec: KernelSpec) -> int:
    if not 0 <= args.mode <= args.K:
        raise ValueError(f"--mode must lie in 0..K = 0..{args.K}, got {args.mode}")
    config = _solver_config(args)
    coeffs = coefficients(spec, config.K)
    rule = gauss_jacobi_rule(spec.n, config.M)
    if args.mode > 0:
        init = _seeded_density(spec.n, rule, config.K, args.mode, 0.2)
    else:
        init = uniform_density(spec.n, rule, config.K)
    result = gibbs_fixed_point(coeffs, args.gamma, init, config)
    if not result.converged:
        raise RuntimeError(f"fixed-point iteration failed: {result.message}")
    mode, amp = result.density.dominant_mode()
    energy = free_energy(coeffs, result.density, args.gamma)
    point = BranchPoint(args.gamma, result.density, mode, amp, energy, result.residual,
                        result.iterations)
    _emit(args, _resolved_config(args), [_state_row(point)], _STATE_COLUMNS)
    return 0


def _cmd_branch(args, spec: KernelSpec) -> int:
    if not 1 <= args.mode <= args.K:
        raise ValueError(f"--mode must lie in 1..K = 1..{args.K}, got {args.mode}")
    _check_gamma_grid(args)
    config = _solver_config(args)
    coeffs = coefficients(spec, config.K)
    grid = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    branch, diagnostic = trace_branch(coeffs, args.mode, grid, config)
    header = _resolved_config(args)
    if diagnostic:
        header["diagnostic"] = diagnostic
    _emit(args, header, [_state_row(point) for point in branch], _STATE_COLUMNS)
    return 0


def _cmd_transition(args, spec: KernelSpec) -> int:
    bounds = (args.gamma_min, args.gamma_max)
    if None in bounds and (bounds != (None, None) or args.gamma_steps is not None):
        raise ValueError("--gamma-min and --gamma-max must be given together; --gamma-steps needs both")
    grid = None
    if None not in bounds:
        _check_gamma_grid(args)
        grid = np.geomspace(args.gamma_min, args.gamma_max, args.gamma_steps or 100)
    config = _solver_config(args)
    coeffs = coefficients(spec, config.K)
    report = find_transition(coeffs, gamma_grid=grid, config=config)
    payload = {
        "config": _resolved_config(args),
        "gamma_sharp": report.gamma_sharp,
        "gamma_c_bracket": list(report.gamma_c_bracket) if report.gamma_c_bracket else None,
        "type": report.type,
        "witness": report.witness,
    }
    _write_out(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_simulate(args, spec: KernelSpec) -> int:
    if args.particles < 2:
        raise ValueError(f"--particles must be >= 2, got {args.particles}")
    sim = SimConfig(dt=args.dt, steps=args.steps, gamma=args.gamma, seed=args.seed)
    result = simulate(spec, sim, args.particles)
    rows = [(int(k), *moments) for k, moments in zip(result.recorded_steps, result.moments)]
    _emit(args, _resolved_config(args), rows, ["step"] + [f"moment_{l}" for l in result.degrees])
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "bifurcations": _cmd_bifurcations,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "transition": _cmd_transition,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = kernel_spec_from_json(args.kernel)  # loaded once, before any other check
        if args.n is not None and args.n != spec.n:
            spec = dataclasses.replace(spec, n=args.n)
        return _COMMANDS[args.command](args, spec)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)}) + "\n")
        return EXIT_CONFIG
    except (RuntimeError, OverflowError, FloatingPointError) as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
