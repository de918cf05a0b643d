"""Output oracle for the benchmark, independent of the diracfree library.

``check`` judges one CLI invocation from its arguments, exit code and
standard output.  It returns a ``Verdict``:

* ``problems`` lists ways the output is wrong or malformed (a crash, a
  report inconsistent with itself or with the frozen check manifest, an
  emitted object that fails its defining equation);
* ``failing_checks`` lists the registry checks a well-formed ``verify``
  report says failed, with residual and tolerance.

Emitted objects are checked against matrices built here with numpy alone:
``H u = E u`` and the normalization convention for ``spinor``, trace and
purity of the density matrix for ``density``, and for ``boost`` the
eigen-equation, ``u-bar u = phi+ phi`` and the direct-route residual.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field

import numpy as np

from names import CHECK_IDS, DEVIATIONS

# Relative tolerance for the oracle's own residuals.  The library's values
# sit near 1e-15; a 1e-6 perturbation of any component is far above it.
REL_TOL = 1e-9
# Tolerance the CLI applies by default; boost reports a residual against it.
CLI_TOL = 1e-12
MASS = 1.0
C = 1.0


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_Z2 = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)
_ALPHA = tuple(np.block([[_Z2, s], [s, _Z2]]) for s in _PAULI)
_BETA = np.block([[_I2, _Z2], [_Z2, -_I2]])


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    failing_checks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.failing_checks


def momentum(eta: float, theta: float, phi: float) -> np.ndarray:
    """|p| = 2 m c eta / (1 - eta^2) along (theta, phi)."""
    p_abs = 2.0 * MASS * C * eta / (1.0 - eta * eta)
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    return p_abs * n


def hamiltonian(p: np.ndarray) -> np.ndarray:
    return C * sum(a * x for a, x in zip(_ALPHA, p)) + MASS * C * C * _BETA


def energy_magnitude(p: np.ndarray) -> float:
    return math.sqrt(C * C * float(p @ p) + (MASS * C * C) ** 2)


def _adjoint_norm(u: np.ndarray) -> float:
    return float(np.vdot(u, _BETA @ u).real)


def _complex_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_emit(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(stdout)["outputs"]
    outputs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparseable line {line!r}")
        outputs[key] = ast.literal_eval(value)
    return outputs


def _close(got: float, want: float, scale: float, what: str, problems: list[str]) -> None:
    if not abs(got - want) <= REL_TOL * max(1.0, scale):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_spinor(params: dict, out: dict, problems: list[str]) -> None:
    p = momentum(params["eta"], params["theta"], params["phi"])
    r = energy_magnitude(p)
    u = _complex_array(out["components"])
    if params["branch"] == "pos":
        h, e = hamiltonian(p), r
    else:
        # Negative-branch columns carry momentum -p and energy -R.
        h, e = hamiltonian(-p), -r
    _close(float(out["energy"]), e, r, "energy", problems)
    scale = r * float(np.max(np.abs(u)))
    if not float(np.max(np.abs(h @ u - e * u))) <= REL_TOL * max(1.0, scale):
        problems.append("spinor: H u != E u")
    norm = params["norm"]
    if norm == "unit":
        _close(float(np.vdot(u, u).real), 1.0, 1.0, "u+u (unit)", problems)
    elif norm == "box":
        want = 1.0 / params["volume"]
        _close(float(np.vdot(u, u).real), want, want, "u+u (box)", problems)
    elif norm == "inv1":
        _close(abs(_adjoint_norm(u)), 1.0, 1.0, "|u-bar u| (inv1)", problems)
    else:
        _close(abs(_adjoint_norm(u)), 2.0 * MASS * C, 2.0 * MASS * C, "|u-bar u| (inv2mc)", problems)


def _check_density(params: dict, out: dict, problems: list[str]) -> None:
    rho = _complex_array(out["matrix"])
    two_mc = 2.0 * MASS * C
    scale = float(np.max(np.abs(rho)))
    trace = complex(np.trace(rho))
    _close(trace.real, two_mc, two_mc, "trace(rho)", problems)
    _close(trace.imag, 0.0, two_mc, "Im trace(rho)", problems)
    reported = _complex_array(out["trace"])
    _close(float(abs(reported - trace)), 0.0, two_mc, "reported trace", problems)
    # Pure state: rho = +/- u u-bar with u-bar u = +/- 2mc, so rho^2 = 2mc rho.
    if not float(np.max(np.abs(rho @ rho - two_mc * rho))) <= REL_TOL * max(1.0, scale * scale):
        problems.append("density: rho^2 != 2mc rho")
    # Self-adjoint under the Dirac adjoint: beta rho+ beta = rho.
    if not float(np.max(np.abs(_BETA @ rho.conj().T @ _BETA - rho))) <= REL_TOL * max(1.0, scale):
        problems.append("density: beta rho+ beta != rho")


def _check_boost(params: dict, out: dict, problems: list[str]) -> None:
    eta = params["eta"]
    p = momentum(eta, params["theta"], params["phi"])
    r = energy_magnitude(p)
    u = _complex_array(out["components"])
    s = params["spinor"]
    phi = np.array([s[0] + 1j * s[1], s[2] + 1j * s[3]])
    scale = r * float(np.max(np.abs(u)))
    if not float(np.max(np.abs(hamiltonian(p) @ u - r * u))) <= REL_TOL * max(1.0, scale):
        problems.append("boost: H u != R u")
    phi_sq = float(np.vdot(phi, phi).real)
    _close(_adjoint_norm(u), phi_sq, phi_sq, "boost u-bar u", problems)
    _close(float(out["eta"]), eta, 1.0, "boost eta", problems)
    _close(float(out["rapidity"]), 2.0 * math.atanh(eta), 1.0, "boost rapidity", problems)
    if not float(out["direct_route_residual"]) <= CLI_TOL:
        problems.append(f"boost: direct_route_residual {out['direct_route_residual']!r} > {CLI_TOL}")


def _check_verify(exit_code: int, stdout: str, verdict: Verdict) -> None:
    problems = verdict.problems
    report = json.loads(stdout)
    checks = report["checks"]
    outputs = report["outputs"]
    ids = [c["id"] for c in checks]
    if tuple(sorted(ids)) != CHECK_IDS:
        missing = sorted(set(CHECK_IDS) - set(ids))
        extra = sorted(set(ids) - set(CHECK_IDS))
        problems.append(f"verify: ids differ from manifest (missing {missing}, extra {extra}, "
                        f"{len(ids)} reported)")
    if tuple(sorted(outputs["deviations"])) != DEVIATIONS:
        problems.append(f"verify: deviations {outputs['deviations']} != {list(DEVIATIONS)}")
    if outputs["check_count"] != len(checks):
        problems.append("verify: check_count disagrees with the check list")
    failing = []
    for c in checks:
        if c["passed"] != (c["residual"] <= c["tolerance"]):
            problems.append(f"verify: {c['id']} verdict disagrees with its residual")
        if not c["passed"] and c["id"] not in DEVIATIONS:
            failing.append(f"{c['id']} ({c['residual']:.3e} > {c['tolerance']:g})")
    all_passed = outputs["all_passed"]
    if all_passed != (not failing):
        problems.append("verify: all_passed disagrees with the per-check verdicts")
    if all_passed != (exit_code == 0):
        problems.append(f"verify: all_passed={all_passed} but exit code {exit_code}")
    verdict.failing_checks.extend(failing)


_EMIT_CHECKS = {"spinor": _check_spinor, "density": _check_density, "boost": _check_boost}


def check(command: str, params: dict, exit_code: int, stdout: str) -> Verdict:
    """Judge one invocation of ``command`` run with ``params``."""
    verdict = Verdict()
    expected_exits = (0, 1) if command == "verify" else (0,)
    if exit_code not in expected_exits:
        verdict.problems.append(f"{command}: exit code {exit_code}")
        return verdict
    try:
        if command == "verify":
            _check_verify(exit_code, stdout, verdict)
        else:
            _EMIT_CHECKS[command](params, _parse_emit(stdout, params["format"]), verdict.problems)
    except (ValueError, KeyError, TypeError, IndexError, SyntaxError) as exc:
        verdict.problems.append(f"{command}: malformed output ({type(exc).__name__}: {exc})")
    return verdict
