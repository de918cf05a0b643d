"""Command-line interface.

Subcommands:

* ``verify`` runs the identity registry over a parameter grid and reports
  pass/fail per check (exit 0 all passed, 1 otherwise);
* ``spinor`` emits one plane-wave bi-spinor with its energy and the
  helicity eigen-residual;
* ``density`` emits a pure-state polarization density matrix;
* ``boost`` emits the boosted rest-frame bi-spinor with rapidity
  diagnostics and the residual against the direct construction.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  :func:`main` returns the exit code (argparse usage errors and
``--version`` raise ``SystemExit`` as usual); :func:`run`, the console entry
point, ends the process with that code right after flushing the output.
Numeric flags must be finite, and an emit whose output is not finite
fails with exit 2 in either format.  The environment variable
``DIRACFREE_TOL`` overrides the default tolerance of ``verify``, which
must be positive and finite.  JSON output is deterministic byte for byte:
keys keep insertion order, floats are printed with 17 significant digits,
complex numbers as [re, im] pairs, matrices as row-major nested arrays.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .errors import DiracFreeError, ZeroMomentum
from .gamma import helicity_operator
from .kinematics import (
    EnergyBranch,
    MomentumState,
    PhysicalConstants,
    PolarAngles,
    angles_of,
    from_eta,
    momentum_axis,
    rapidity,
    scaled_norm,
    to_eta,
)
from .density import density4
from .smallmat import DEFAULT_TOL, max_abs
from .spinors import (
    Helicity,
    Normalization,
    bispinor_block,
    boost_bispinor,
    dirac_residual,
    helicity_bispinor,
)

_BRANCHES = {"pos": EnergyBranch.POSITIVE, "neg": EnergyBranch.NEGATIVE}
_HELICITIES = {"+1/2": Helicity.PLUS, "-1/2": Helicity.MINUS}
_NORMS = {n.value: n for n in Normalization}


# --------------------------------------------------------------------------
# deterministic JSON

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in output: {x}")
    return f"{x:.17g}"


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {render_json(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        rendered = [render_json(v, indent + 1) for v in value]
        if sum(len(r) for r in rendered) < 64 and not any("\n" in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        items = [f"{pad}  {r}" for r in rendered]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(value)!r}")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_json(v) -> list[list[float]]:
    return [_complex_pair(complex(z)) for z in np.asarray(v)]


def _matrix_json(m) -> list[list[list[float]]]:
    return [_vector_json(row) for row in np.asarray(m)]


def _payload(inputs: dict, outputs: dict, checks: list | None = None) -> dict:
    body = {"version": __version__, "inputs": inputs, "outputs": outputs}
    if checks is not None:
        body["checks"] = checks
    return body


# --------------------------------------------------------------------------
# argument plumbing

def _finite_float(text: str) -> float:
    """argparse type of every numeric flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    return [_finite_float(p) for p in text.split(",")]


def _parse_vec3(text: str, number=float) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return np.array([number(p) for p in parts])


def _finite_vec3(text: str) -> np.ndarray:
    return _parse_vec3(text, _finite_float)


def _parse_eta_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p)


def _parse_angles(text: str) -> tuple[int, int]:
    try:
        n, m = text.lower().split("x")
        return int(n), int(m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected NxM, e.g. 8x8") from exc


def _add_kinematics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_finite_float, default=1.0, help="rest mass (default 1)")
    parser.add_argument("--c", type=_finite_float, default=1.0, help="speed of light (default 1)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--p", type=_finite_vec3, metavar="X,Y,Z", help="momentum vector")
    group.add_argument("--eta", type=float, help="speed parameter in [0, 1)")
    parser.add_argument("--theta", type=_finite_float, default=0.0, help="polar angle (with --eta)")
    parser.add_argument("--phi", type=_finite_float, default=0.0, help="azimuth (with --eta)")


def _state_from_args(args) -> MomentumState:
    if args.eta is not None:
        return from_eta(args.m, args.c, args.eta, PolarAngles(args.theta, args.phi))
    p = args.p if args.p is not None else np.zeros(3)
    return MomentumState(args.m, p, PhysicalConstants(c=args.c))


def _state_inputs(args, state: MomentumState) -> dict:
    return {
        "m": args.m,
        "c": args.c,
        "p": [float(x) for x in state.p],
    }


def _tolerance(args) -> float:
    """``--tol``, else ``DIRACFREE_TOL``, else the default; ``run_suite`` checks its range."""
    if args.tol is not None:
        return args.tol
    text = os.environ.get("DIRACFREE_TOL")
    if text is None:
        return DEFAULT_TOL
    try:
        return float(text)
    except ValueError:
        raise DiracFreeError(f"DIRACFREE_TOL must be a number, got {text!r}") from None


# --------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    from .verify import GridSpec, run_suite  # the engine loads only for verify

    grid = GridSpec(
        eta_values=args.eta_grid,
        theta_count=args.angles[0],
        phi_count=args.angles[1],
        mass=args.m,
        c=args.c,
    )
    report = run_suite(args.suite, grid, _tolerance(args))
    if args.format == "json":
        checks = [
            {
                "id": c.id,
                "description": c.description,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                **({"deviation_note": c.deviation_note} if c.deviation_note else {}),
            }
            for c in report.checks
        ]
        payload = _payload(
            inputs={
                "suite": report.suite,
                "tolerance": report.tolerance,
                "grid": report.grid.describe(),
            },
            outputs={
                "all_passed": report.all_passed,
                "max_residual": report.max_residual,
                "check_count": len(report.checks),
                "deviations": [c.id for c in report.deviations],
            },
            checks=checks,
        )
        print(render_json(payload))
    else:
        grid_desc = report.grid.describe()
        print(
            f"suite: {report.suite}   tol: {report.tolerance:g}   "
            f"grid: eta={grid_desc['eta_values']} "
            f"angles={grid_desc['theta_count']}x{grid_desc['phi_count']} "
            f"m={grid_desc['mass']:g} c={grid_desc['c']:g}"
        )
        for c in report.checks:
            if c.deviation_note is not None:
                continue
            verdict = "PASS" if c.passed else "FAIL"
            print(f"{verdict}  {c.id:<24} {c.residual:9.3e} <= {c.tolerance:g}  {c.description}")
        if report.deviations:
            print("documented deviations (reported, never counted as failures):")
            for c in report.deviations:
                print(f"  NOTE  {c.id:<22} residual {c.residual:.3e}: {c.deviation_note}")
        status = "all passed" if report.all_passed else "FAILURES PRESENT"
        print(
            f"summary: {len(report.checks)} checks, max residual "
            f"{report.max_residual:.3e}, {status}"
        )
    return 0 if report.all_passed else 1


def _emit(args, inputs: dict, outputs: dict) -> None:
    rendered = render_json(_payload(inputs, outputs))  # rejects non-finite values in either format
    if args.format == "json":
        print(rendered)
        return
    for key, val in outputs.items():
        print(f"{key}: {val}")


def _cmd_spinor(args) -> int:
    state = _state_from_args(args)
    branch = _BRANCHES[args.branch]
    lam = _HELICITIES[args.lam]
    if state.p_abs == 0.0:
        raise ZeroMomentum("helicity spinor requires |p| > 0")
    u = helicity_bispinor(lam, branch, angles_of(state.p), state, _NORMS[args.norm], args.volume)
    helicity_residual = max_abs(branch.sign * helicity_operator(state) @ u - lam.half * u)
    inputs = {
        **_state_inputs(args, state),
        "branch": args.branch,
        "lambda": args.lam,
        "norm": args.norm,
    }
    if args.norm == "box":
        inputs["volume"] = args.volume
    outputs = {
        "energy": state.energy(branch),
        "components": _vector_json(u),
        "helicity_residual": helicity_residual,
        "dirac_residual": dirac_residual(u, state, branch),
    }
    _emit(args, inputs, outputs)
    return 0


def _cmd_density(args) -> int:
    state = _state_from_args(args)
    branch = _BRANCHES[args.branch]
    lam = _HELICITIES[args.lam]
    if args.n is not None:
        length = scaled_norm(args.n, np.linalg.norm)
        if not 0.0 < length < math.inf:
            raise DiracFreeError("--n must be a nonzero, finite direction vector")
        n = args.n / length
    else:
        n = momentum_axis(state)
    rho = density4(state, branch, lam, n)
    inputs = {
        **_state_inputs(args, state),
        "branch": args.branch,
        "lambda": args.lam,
        "n": [float(x) for x in n],
    }
    outputs = {
        "matrix": _matrix_json(rho),
        "trace": _complex_pair(complex(np.trace(rho))),
    }
    _emit(args, inputs, outputs)
    return 0


def _cmd_boost(args) -> int:
    state = _state_from_args(args)
    if args.spinor is not None:
        raw = args.spinor
        if len(raw) != 4:
            raise DiracFreeError("--spinor expects re1,im1,re2,im2")
        phi = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
    else:
        phi = np.array([1.0 + 0.0j, 0.0j])
    u = boost_bispinor(phi, state)
    length = scaled_norm(phi, np.linalg.norm)
    direct = bispinor_block(phi / length, state,
                            EnergyBranch.POSITIVE, Normalization.INVARIANT_UNIT)
    residual = max_abs(u / length - direct)
    inputs = {**_state_inputs(args, state), "spinor": _vector_json(phi)}
    outputs = {
        "rapidity": rapidity(state),
        "eta": to_eta(state),
        "components": _vector_json(u),
        "direct_route_residual": residual,
        "dirac_residual": dirac_residual(u, state, EnergyBranch.POSITIVE),
    }
    _emit(args, inputs, outputs)
    return 0


# --------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracfree",
        description="Free Dirac-particle spinor constructions and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=("all", "algebra", "spinors", "covariant", "density", "fermi"))
    p_verify.add_argument("--tol", type=float, default=None,
                          help=f"residual bound (default: DIRACFREE_TOL, else {DEFAULT_TOL:g})")
    p_verify.add_argument("--eta", dest="eta_grid", type=_parse_eta_list,
                          default=(0.1, 0.3, 0.5, 0.7, 0.9), metavar="LIST",
                          help="comma-separated eta grid values")
    p_verify.add_argument("--angles", type=_parse_angles, default=(8, 8), metavar="NxM",
                          help="theta x phi grid counts (default 8x8)")
    p_verify.add_argument("--m", type=_finite_float, default=1.0)
    p_verify.add_argument("--c", type=_finite_float, default=1.0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=_cmd_verify)

    p_spinor = sub.add_parser("spinor", help="emit one plane-wave bi-spinor")
    _add_kinematics_args(p_spinor)
    p_spinor.add_argument("--branch", choices=tuple(_BRANCHES), default="pos")
    p_spinor.add_argument("--lambda", dest="lam", choices=tuple(_HELICITIES), default="+1/2")
    p_spinor.add_argument("--norm", choices=tuple(_NORMS), default="unit")
    p_spinor.add_argument("--volume", type=_finite_float, default=None,
                          help="quantization volume (box norm only)")
    p_spinor.add_argument("--format", choices=("text", "json"), default="text")
    p_spinor.set_defaults(fn=_cmd_spinor)

    p_density = sub.add_parser("density", help="emit a polarization density matrix")
    _add_kinematics_args(p_density)
    p_density.add_argument("--branch", choices=tuple(_BRANCHES), default="pos")
    p_density.add_argument("--lambda", dest="lam", choices=tuple(_HELICITIES), default="+1/2")
    p_density.add_argument("--n", type=_parse_vec3, default=None, metavar="X,Y,Z",
                           help="polarization direction (default: along p)")
    p_density.add_argument("--format", choices=("text", "json"), default="text")
    p_density.set_defaults(fn=_cmd_density)

    p_boost = sub.add_parser("boost", help="boost a rest-frame spinor")
    _add_kinematics_args(p_boost)
    p_boost.add_argument("--spinor", type=_finite_floats, default=None, metavar="RE,IM,RE,IM",
                         help="rest-frame two-spinor components (default 1,0,0,0)")
    p_boost.add_argument("--format", choices=("text", "json"), default="text")
    p_boost.set_defaults(fn=_cmd_boost)

    return parser


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Join ``--lambda -1/2`` style pairs so argparse accepts the value."""
    fused = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            token in ("--lambda", "--p", "--n", "--spinor")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            fused.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            fused.append(token)
    return fused


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_negative_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        # overflow surfaces as a non-finite output or an error line, never as a warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (DiracFreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Console entry point: run :func:`main` and end the process with its code.

    Once stdout and stderr are flushed the process ends through ``os._exit``,
    which skips interpreter finalization: that only frees memory the kernel
    reclaims anyway.  A failed flush (a full disk, a closed pipe) ends it as
    finalization would have: a failed stdout flush is reported as
    "Exception ignored in: <stdout>" on stderr, and either failure makes the
    exit code 120.  Exceptions, and ``SystemExit`` from argparse, leave
    through the normal exit path.
    """
    code = main()
    report = ""
    try:
        sys.stdout.flush()
    except OSError as exc:  # the buffered output is lost
        report = f"Exception ignored in: {sys.stdout!r}\n{type(exc).__name__}: {exc}\n"
        code = 120
    try:
        sys.stderr.write(report)
        sys.stderr.flush()
    except OSError:
        code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
