"""Command-line interface.

Subcommands:

* ``verify`` runs the identity registry over a parameter grid and reports
  pass/fail per check (exit 0 all passed, 1 otherwise);
* ``spinor`` emits one plane-wave bi-spinor with its energy and its
  helicity and Dirac eigen-residuals;
* ``density`` emits a pure-state polarization density matrix;
* ``boost`` emits the boosted rest-frame bi-spinor with rapidity
  diagnostics, its Dirac eigen-residual and the residual against the
  direct construction.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  Every refused input, the library's and this module's own, raises
``ValueError``, which :func:`main` prints as ``error: <message>``.  Any
other exception that escapes ``run_suite`` (a fault in a check, or
``MemoryError`` on a huge grid) also exits 2, with the one line
``error: internal error: <type>: <message>`` and no report, so exit 1
always means a verification ran and failed.  :func:`main` returns the exit
code (argparse usage errors and ``--version`` raise ``SystemExit`` as
usual); :func:`run`, the console entry point, ends the process with that
code right after flushing the output.
Any flag takes a negative value in either spelling, ``--phi=-1e-3`` or
``--phi -1e-3`` (which argparse alone reads as an unknown option).
Numeric flags must be finite, each entry of ``--p``, ``--n`` (3 entries
each) and ``--spinor`` (4) included; a wrong count is a usage error.
``--theta`` must lie in [0, pi], and an emit whose output is not finite
fails with exit 2 in either format.  The library makes every decision:
``verify`` gives ``GridSpec`` only the grid flags the user gave,
``run_suite`` rejects an unknown ``--suite`` (naming the suites) and a
``--tol`` that is not positive and finite, and ``helicity_operator``
refuses a ``spinor`` at rest ("helicity is undefined at rest").  JSON output
is deterministic byte for byte on one CPU dispatch target and BLAS kernel
(either can move a residual's last digits): keys keep insertion order,
floats are printed with 17 significant digits, complex numbers as [re, im]
pairs, matrices as row-major nested arrays.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .gamma import hamiltonian, helicity_operator
from .kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    angles_of,
    from_eta,
    mirrored,
    momentum_axis,
    rapidity,
    scaled_norm,
    to_eta,
)
from .smallmat import DEFAULT_TOL, divide_by_power_of_two, max_abs, power_of_two_scale, residual
from .spinors import (
    Helicity,
    Normalization,
    bispinor_block,
    boost_bispinor,
    helicity_bispinor,
)

_BRANCHES = {"pos": EnergyBranch.POSITIVE, "neg": EnergyBranch.NEGATIVE}
_HELICITIES = {"+1/2": Helicity.PLUS, "-1/2": Helicity.MINUS}
_NORMS = {n.value: n for n in Normalization}
_NEGATIVE = ("-.", "-inf", "-nan", *(f"-{digit}" for digit in range(10)))  # how a negative value starts


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


def _finite_floats(count: int):
    """argparse type of a vector flag: exactly ``count`` comma-separated finite floats."""

    def parse(text: str) -> np.ndarray:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers")
        return np.array([_finite_float(p) for p in parts])

    return parse


def _parse_eta_list(text: str) -> tuple[float, ...]:
    """argparse type of ``verify --eta``: finite numbers separated by single commas.

    An empty list is left to ``GridSpec``, which rejects it.
    """
    if not text:
        return ()
    parts = text.split(",")
    if "" in parts:
        raise argparse.ArgumentTypeError(f"empty entry in the eta list {text!r}")
    return tuple(_finite_float(p) for p in parts)


def _parse_angles(text: str) -> dict[str, int]:
    """argparse type of ``verify --angles NxM``: the grid's theta and phi counts."""
    try:
        n, m = text.lower().split("x")
        return {"theta_count": int(n), "phi_count": int(m)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected NxM, e.g. 8x8") from exc


def _add_kinematics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_finite_float, default=1.0, help="rest mass (default 1)")
    parser.add_argument("--c", type=_finite_float, default=1.0, help="speed of light (default 1)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--p", type=_finite_floats(3), default="0,0,0", metavar="X,Y,Z",
                       help="momentum vector (default %(default)s)")
    group.add_argument("--eta", type=float, help="speed parameter in [0, 1)")
    parser.add_argument("--theta", type=_finite_float, help="polar angle (with --eta; default 0)")
    parser.add_argument("--phi", type=_finite_float, help="azimuth (with --eta; default 0)")


def _add_helicity_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--branch", choices=tuple(_BRANCHES), default="pos")
    parser.add_argument("--lambda", dest="lam", choices=tuple(_HELICITIES), default="+1/2")


def _state_from_args(args) -> MomentumState:
    if args.eta is not None:
        angles = PolarAngles(*(0.0 if a is None else a for a in (args.theta, args.phi)))
        return from_eta(args.m, args.c, args.eta, angles)
    if (args.theta, args.phi) != (None, None):
        raise ValueError("--theta and --phi apply only with --eta")
    return MomentumState(args.m, args.p, args.c)


def _state_inputs(args, state: MomentumState) -> dict:
    return {
        "m": args.m,
        "c": args.c,
        "p": [float(x) for x in state.p],
    }


# --------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    from .verify import GridSpec, run_suite  # the engine loads only for verify

    given = {"eta_values": args.eta_values, "mass": args.m, "c": args.c, **(args.angles or {})}
    grid = GridSpec(**{key: value for key, value in given.items() if value is not None})
    try:
        report = run_suite(args.suite, grid, args.tol)
    except ValueError:  # a precondition: main() prints its own message
        raise
    except OSError as exc:  # one the engine does not absorb; run() reads OSError as a failed write
        raise ValueError(str(exc)) from exc
    except Exception as exc:  # a fault in a check, or MemoryError: exit 2, as 1 means failed checks
        raise ValueError(f"internal error: {type(exc).__name__}: {exc}") from exc
    if args.format == "json":
        checks = [
            {
                "id": c.id,
                "description": c.description,
                "residual": c.residual,
                "tolerance": report.tolerance,
                "passed": c.passed,
                **({"deviation_note": c.deviation_note} if c.deviation_note else {}),
            }
            for c in report.checks
        ]
        payload = _payload(
            inputs={
                "suite": report.suite,
                "tolerance": report.tolerance,
                "grid": {
                    "eta_values": grid.eta_values,
                    "theta_count": grid.theta_count,
                    "phi_count": grid.phi_count,
                    "mass": grid.mass,
                    "c": grid.c,
                },
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
        print(
            f"suite: {report.suite}   tol: {report.tolerance:g}   "
            f"grid: eta={list(grid.eta_values)} "
            f"angles={grid.theta_count}x{grid.phi_count} "
            f"m={grid.mass:g} c={grid.c:g}"
        )
        for c in report.checks:
            if c.deviation_note is not None:
                continue
            verdict, relation = ("PASS", "<=") if c.passed else ("FAIL", ">")
            print(f"{verdict}  {c.id:<24} {c.residual:9.3e} {relation} {report.tolerance:g}  {c.description}")
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


def _relative_residual(lhs, rhs) -> float:
    """``residual(lhs, rhs)`` against the largest entry of either side, for every emit."""
    return residual(lhs, rhs, max(max_abs(lhs), max_abs(rhs)))


def _dirac_residual(u, state: MomentumState, branch: EnergyBranch) -> float:
    """H(+-p) u against +-R u: each branch's plane wave carries momentum +-p."""
    wave = state if branch is EnergyBranch.POSITIVE else mirrored(state)
    return _relative_residual(np.matvec(hamiltonian(wave), u), branch.sign * state.R * u)


def _cmd_spinor(args) -> int:
    if args.volume is not None and args.norm != "box":
        raise ValueError("--volume applies only to --norm box")
    state = _state_from_args(args)
    branch = _BRANCHES[args.branch]
    lam = _HELICITIES[args.lam]
    helicity = helicity_operator(state)  # raises at rest, before u needs a direction
    u = helicity_bispinor(lam, branch, angles_of(state.p), state, _NORMS[args.norm], args.volume)
    helicity_residual = _relative_residual(branch.sign * helicity @ u, lam.half * u)
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
        "dirac_residual": _dirac_residual(u, state, branch),
    }
    _emit(args, inputs, outputs)
    return 0


def _cmd_density(args) -> int:
    from .density import density4  # with observables: only this command loads them

    state = _state_from_args(args)
    branch = _BRANCHES[args.branch]
    lam = _HELICITIES[args.lam]
    if args.n is not None:
        n = divide_by_power_of_two(args.n, power_of_two_scale(args.n, 1))  # exact, even for a subnormal n
        length = scaled_norm(n)
        if length == 0.0:
            raise ValueError("--n must be a nonzero, finite direction vector")
        n = n / length
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
    phi = args.spinor[0::2] + 1j * args.spinor[1::2]
    u = boost_bispinor(phi, state)
    s = power_of_two_scale(phi, 1)  # divide exactly first: a subnormal or huge phi keeps a finite length
    phi_s, u_s = divide_by_power_of_two(phi, s), divide_by_power_of_two(u, s)
    length = scaled_norm(phi_s)
    direct = bispinor_block(phi_s / length, state,
                            EnergyBranch.POSITIVE, Normalization.INVARIANT_UNIT)
    inputs = {**_state_inputs(args, state), "spinor": _vector_json(phi)}
    outputs = {
        "rapidity": rapidity(state),
        "eta": to_eta(state),
        "components": _vector_json(u),
        "direct_route_residual": _relative_residual(u_s / length, direct),
        "dirac_residual": _dirac_residual(u, state, EnergyBranch.POSITIVE),
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
    p_verify.add_argument("--suite", default="all", help="one suite, or all (the default)")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL,
                          help="residual bound (default %(default)g)")
    p_verify.add_argument("--eta", dest="eta_values", type=_parse_eta_list, metavar="LIST",
                          help="comma-separated eta grid values")
    p_verify.add_argument("--angles", type=_parse_angles, metavar="NxM",
                          help="theta x phi grid counts")
    p_verify.add_argument("--m", type=_finite_float)
    p_verify.add_argument("--c", type=_finite_float)
    p_verify.set_defaults(fn=_cmd_verify)

    p_spinor = sub.add_parser("spinor", help="emit one plane-wave bi-spinor")
    _add_kinematics_args(p_spinor)
    _add_helicity_args(p_spinor)
    p_spinor.add_argument("--norm", choices=tuple(_NORMS), default="unit")
    p_spinor.add_argument("--volume", type=_finite_float, default=None,
                          help="quantization volume (box norm only)")
    p_spinor.set_defaults(fn=_cmd_spinor)

    p_density = sub.add_parser("density", help="emit a polarization density matrix")
    _add_kinematics_args(p_density)
    _add_helicity_args(p_density)
    p_density.add_argument("--n", type=_finite_floats(3), default=None, metavar="X,Y,Z",
                           help="polarization direction (default: along p)")
    p_density.set_defaults(fn=_cmd_density)

    p_boost = sub.add_parser("boost", help="boost a rest-frame spinor")
    _add_kinematics_args(p_boost)
    p_boost.add_argument("--spinor", type=_finite_floats(4), default="1,0,0,0", metavar="RE,IM,RE,IM",
                         help="rest-frame two-spinor components (default %(default)s)")
    p_boost.set_defaults(fn=_cmd_boost)

    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Join a ``--flag`` and a next token that starts with a minus and a number, as ``--flag=-1e-3``.

    argparse reads ``-1`` and ``-0.5`` as values but ``-1e-3``, ``-0.5,0.3``,
    ``-1x2`` and ``-inf`` as unknown options.
    """
    fused: list[str] = []
    for token in argv:
        flag = fused[-1] if fused else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and token.lower().startswith(_NEGATIVE):
            fused[-1] += f"={token}"
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Console entry point: run :func:`main` and end the process with its code.

    Once stdout and stderr are flushed the process ends through ``os._exit``,
    which skips interpreter finalization: that only frees memory the kernel
    reclaims anyway.  A failed write of the output (a full disk, a closed
    pipe), whether while ``main`` prints a large output or in the final
    flush, ends it as finalization would have: a failed stdout write is
    reported as "Exception ignored in: <stdout>" on stderr, and it or a
    failed stderr write makes the exit code 120.  Other exceptions, and
    ``SystemExit`` from argparse, leave through the normal exit path.
    """
    report = ""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # the output is lost
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
