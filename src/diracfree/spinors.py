"""Plane-wave spinor constructions for the free Dirac particle.

Covers the two-component helicity eigenspinors and their unitary column
matrices Phi / Phi-tilde, the axis-3 spin basis matrix U with bi-spinor
columns u(1)..u(4), the relativistic helicity basis matrices V / V-tilde
(built both by the direct block solution and by the Lorentz boost), the
box-normalized eta-parametrized columns, and charge conjugation.

Sign and phase conventions are fixed once here and never rephased:

* phi(+1/2) = (cos(t/2) e^{-i f/2}, sin(t/2) e^{+i f/2}),
  phi(-1/2) = (-sin(t/2) e^{-i f/2}, cos(t/2) e^{+i f/2});
* positive-branch bi-spinors put the momentum factor in the lower block,
  ``(phi, c(sigma.p)/(m c^2 + E) phi)``;
* negative-branch bi-spinors use the mirrored form with the momentum
  factor in the upper block, ``(c(sigma.p)/(R + m c^2) phi, phi)``.  Their
  plane wave carries phase ``exp(+i(R t - p.r)/hbar)``, i.e. physical
  momentum ``-p``: they are eigenvectors of the Hamiltonian built from
  ``-p``, not of the one built from ``p``.  The direct ``-R`` eigenvector
  of the momentum-``p`` Hamiltonian is ``negative_energy_eigenvector``:
  minus the mirrored negative-branch bi-spinor of the momentum ``-p``
  state, ``(c(sigma.p)/(R + m c^2) chi, -chi)``;
* so the negative-branch bi-spinor of helicity lambda carries the
  two-spinor phi(-lambda): the helicity of its momentum -p is lambda.
  ``helicity_bispinor`` is the one place that applies this label flip.

Normalization is always an explicit final step: internal construction is
unnormalized and a ``Normalization`` value selects among u+u = 1, |u-bar u|
= 1, |u-bar u| = 2mc, and the box convention u+u = 1/V.  The invariant
norm of the block solution is taken in its closed form
|phi|^2 2mc^2 / (mc^2 + R), which keeps its digits at any |p|.

The helicity spinors and column matrices, ``spin_basis_matrix``,
``bispinor_block``, ``helicity_bispinor``, ``negative_energy_eigenvector``,
``boost_bispinor``, ``helicity_basis``, ``eta_bispinor``,
``charge_conjugate``, ``plane_wave`` and ``dirac_residual`` accept stacked
angles, eta values, states and spinors (leading batch axes) and return
stacked spinors, matrices and residuals; the unstacked call is the
batch-of-one case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EtaOutOfRange,
    MasslessState,
    NonPositiveVolume,
    UnnormalizablePhi,
    ZeroMomentum,
)
from .gamma import GAMMA, hamiltonian, sigma_dot
from .kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    angles_of,
    check_eta,
    momentum_axis,
    rapidity,
)
from .smallmat import block4, max_abs_each, stack_last


class Helicity(Enum):
    """Spin projection on the momentum direction, +1/2 or -1/2."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value

    @property
    def half(self) -> float:
        return 0.5 * self.value

    @property
    def flipped(self) -> "Helicity":
        """The opposite helicity."""
        return Helicity(-self.value)


class Normalization(Enum):
    UNIT = "unit"
    INVARIANT_UNIT = "inv1"
    INVARIANT_2MC = "inv2mc"
    BOX = "box"


def helicity_spinor(lam: Helicity, angles: PolarAngles) -> np.ndarray:
    """Eigenspinor of sigma.n(theta, phi) with eigenvalue +/-1."""
    half_theta = 0.5 * angles.theta
    minus = np.exp(-0.5j * angles.phi)
    plus = np.exp(0.5j * angles.phi)
    if lam is Helicity.PLUS:
        return stack_last([np.cos(half_theta) * minus, np.sin(half_theta) * plus])
    return stack_last([-np.sin(half_theta) * minus, np.cos(half_theta) * plus])


def phi_matrix(angles: PolarAngles) -> np.ndarray:
    """Unitary 2x2 matrix with the two helicity spinors as columns."""
    return stack_last(
        [helicity_spinor(Helicity.PLUS, angles), helicity_spinor(Helicity.MINUS, angles)]
    )


def phi_tilde_matrix(angles: PolarAngles) -> np.ndarray:
    """Companion matrix (phi(+1/2), -phi(-1/2)); sigma.n = tilde Phi . Phi+."""
    return stack_last(
        [helicity_spinor(Helicity.PLUS, angles), -helicity_spinor(Helicity.MINUS, angles)]
    )


def spin_basis_matrix(state: MomentumState) -> np.ndarray:
    """Hermitian involutive matrix whose columns are the axis-3 spin bi-spinors.

    Columns 1-2 are +R eigenvectors of the Hamiltonian, columns 3-4 are -R
    eigenvectors; at p = 0 the matrix reduces to diag(1, 1, -1, -1).
    """
    kappa = state.c / (state.rest_energy + state.R)
    sp = kappa[..., None, None] * sigma_dot(state.p)
    eye = np.eye(2)
    u = block4(eye, sp, sp, -eye)
    return np.sqrt((state.rest_energy + state.R) / (2.0 * state.R))[..., None, None] * u


def _normalize(raw: np.ndarray, phi: np.ndarray, state: MomentumState, norm: Normalization,
               volume: float | None) -> np.ndarray:
    nsq = np.vecdot(raw, raw).real
    if np.count_nonzero(nsq == 0.0):
        raise UnnormalizablePhi("two-spinor must be nonzero")
    if norm is Normalization.UNIT:
        return raw / np.sqrt(nsq)[..., None]
    if norm is Normalization.BOX:
        if volume is None or volume <= 0:
            raise NonPositiveVolume("box normalization requires volume > 0")
        return raw / np.sqrt(volume * nsq)[..., None]
    # |u-bar u| of the block solution in closed form, |phi|^2 2mc^2 / (mc^2 + R):
    # |upper|^2 - |lower|^2 loses every digit to cancellation once c|p| >> mc^2
    mc2 = state.rest_energy
    invariant = np.vecdot(phi, phi).real * (2.0 * mc2 / (mc2 + state.R))
    # an infinite R is an overflow, left to show as a non-finite result
    if np.count_nonzero((invariant == 0.0) & np.isfinite(state.R)):
        raise UnnormalizablePhi("invariant norm vanishes; state is light-like")
    if norm is Normalization.INVARIANT_UNIT:
        return raw / np.sqrt(invariant)[..., None]
    target = 2.0 * state.m * state.c
    return raw * np.sqrt(target / invariant)[..., None]


def _two_spinor(phi) -> np.ndarray:
    """phi as complex two-spinors, each checked to be nonzero."""
    phi = np.asarray(phi, dtype=np.complex128)
    if not phi.any(axis=-1).all():
        raise UnnormalizablePhi("two-spinor must be nonzero")
    return phi


def bispinor_block(phi: np.ndarray, state: MomentumState, branch: EnergyBranch,
                   norm: Normalization = Normalization.UNIT,
                   volume: float | None = None) -> np.ndarray:
    """Bi-spinor from a two-spinor by the block solution of the eigenproblem.

    Positive branch: ``(phi, c(sigma.p)/(m c^2 + R) phi)`` with energy +R.
    Negative branch: ``(c(sigma.p)/(R + m c^2) phi, phi)``; its plane wave
    carries momentum -p and energy -R (see module docstring).  The adjoint
    norm u-bar u is positive on the first branch and negative on the second,
    so the 2mc convention yields +2mc and -2mc respectively.
    """
    phi = _two_spinor(phi)
    kappa = state.c / (state.rest_energy + state.R)
    coupled = kappa[..., None] * np.matvec(sigma_dot(state.p), phi)
    if phi.shape != coupled.shape:
        phi, coupled = np.broadcast_arrays(phi, coupled)
    if branch is EnergyBranch.POSITIVE:
        raw = np.concatenate([phi, coupled], axis=-1)
    else:
        raw = np.concatenate([coupled, phi], axis=-1)
    return _normalize(raw, phi, state, norm, volume)


def helicity_bispinor(lam: Helicity, branch: EnergyBranch, angles: PolarAngles,
                      state: MomentumState, norm: Normalization = Normalization.UNIT,
                      volume: float | None = None) -> np.ndarray:
    """Bi-spinor of helicity ``lam`` on ``branch``, its two-spinor along ``angles``.

    The block solution of ``bispinor_block`` for the helicity eigenspinor
    that carries the label convention of the module docstring: ``lam`` on
    the positive branch, ``lam.flipped`` on the negative one.
    """
    phi = helicity_spinor(lam if branch is EnergyBranch.POSITIVE else lam.flipped, angles)
    return bispinor_block(phi, state, branch, norm, volume)


def _mirrored(state: MomentumState) -> MomentumState:
    """The state with momentum -p, same mass and units."""
    return MomentumState(state.m, -state.p, state.constants)


def negative_energy_eigenvector(chi: np.ndarray, state: MomentumState,
                                norm: Normalization = Normalization.UNIT,
                                volume: float | None = None) -> np.ndarray:
    """Direct -R eigenvector of the momentum-p Hamiltonian.

    ``(c(sigma.p)/(m c^2 + R) chi, -chi)``: minus the negative-branch
    ``bispinor_block`` of the momentum ``-p`` state, since sigma.(-p) is
    exactly -sigma.p.
    """
    return -bispinor_block(chi, _mirrored(state), EnergyBranch.NEGATIVE, norm, volume)


def boost_bispinor(phi: np.ndarray, state: MomentumState) -> np.ndarray:
    """Positive-branch bi-spinor by boosting the rest-frame solution (phi, 0).

    ``cosh(th/2) (phi, (sigma.l) tanh(th/2) phi)`` with l = p/|p|; equals the
    direct block construction scaled so that u-bar u = phi+ phi.
    """
    if state.m == 0:
        raise MasslessState("boost construction requires m > 0")
    phi = _two_spinor(phi)
    half = 0.5 * rapidity(state)
    moving = (state.p_abs != 0.0)[..., None]
    lower = np.tanh(half)[..., None] * np.matvec(sigma_dot(momentum_axis(state)), phi)
    boosted = np.cosh(half)[..., None] * np.concatenate(np.broadcast_arrays(phi, lower), axis=-1)
    # at rest the boost is the identity: (phi, 0) exactly, signed zeros included
    rest = np.concatenate(np.broadcast_arrays(phi, np.zeros(2, dtype=np.complex128)), axis=-1)
    return np.where(moving, boosted, rest)


@dataclass(frozen=True)
class HelicityBasis:
    """Unitary matrix V of helicity bi-spinor columns and its partner.

    Columns of V: (+R, +1/2), (+R, -1/2), (-R, +1/2), (-R, -1/2) by energy
    and helicity.  V-tilde flips the sign of the last two columns, giving
    H V = R V-tilde and H V-tilde = R V.
    """

    V: np.ndarray
    V_tilde: np.ndarray


def helicity_basis(state: MomentumState) -> HelicityBasis:
    """V and V-tilde of a state, or ``(N, 4, 4)`` stacks of a stacked state."""
    if np.count_nonzero(state.p_abs == 0.0):
        raise ZeroMomentum("helicity basis needs a momentum direction")
    angles = angles_of(state.p)
    kappa = (state.c * state.p_abs / (state.rest_energy + state.R))[..., None, None]
    phi_m = phi_matrix(angles)
    phi_t = phi_tilde_matrix(angles)
    v = block4(phi_m, kappa * phi_t, kappa * phi_t, -phi_m)
    v *= np.sqrt((state.rest_energy + state.R) / (2.0 * state.R))[..., None, None]
    flip = np.diag([1.0, 1.0, -1.0, -1.0])
    return HelicityBasis(V=v, V_tilde=v @ flip)


def eta_bispinor(lam: Helicity, branch: EnergyBranch, eta: float,
                 angles: PolarAngles, volume: float = 1.0) -> np.ndarray:
    """Box-normalized helicity plane-wave column in the eta parametrization.

    The branch/helicity table of explicit half-angle columns, prefactor
    1/sqrt(V (1 + eta^2)).  Negative-branch columns describe waves with
    physical momentum opposite to the (theta, phi) direction.
    """
    eta = check_eta(eta)
    if volume <= 0:
        raise NonPositiveVolume("volume must be positive")
    half = 0.5 * angles.theta
    minus, plus = np.exp(-0.5j * angles.phi), np.exp(0.5j * angles.phi)
    a = np.cos(half) * minus
    b = np.sin(half) * plus
    sm = np.sin(half) * minus
    cm = np.cos(half) * plus
    if branch is EnergyBranch.POSITIVE:
        if lam is Helicity.PLUS:
            column = [a, b, eta * a, eta * b]
        else:
            column = [sm, -cm, -eta * sm, eta * cm]
    else:
        if lam is Helicity.PLUS:
            column = [eta * sm, -eta * cm, -sm, cm]
        else:
            column = [eta * a, eta * b, a, b]
    return stack_last(np.broadcast_arrays(*column)) / np.sqrt(volume * (1.0 + np.square(eta)))[..., None]


def charge_conjugate(u: np.ndarray) -> np.ndarray:
    """i gamma^2 u*; maps positive-branch columns onto negative-branch ones.

    Applying it twice returns +u (checked once in the test suite rather than
    assumed).
    """
    return 1j * np.matvec(GAMMA[2], np.conjugate(np.asarray(u)))


def plane_wave(u: np.ndarray, state: MomentumState, branch: EnergyBranch,
               r, t: float) -> np.ndarray:
    """Attach the propagation phase exp(+/- i (p.r - R t) / hbar) to u."""
    arg = (np.vecdot(state.p, np.asarray(r, dtype=float)) - state.R * t) / state.hbar
    return np.asarray(u) * np.exp(1j * branch.sign * arg)[..., None]


def dirac_residual(u: np.ndarray, state: MomentumState, branch: EnergyBranch) -> float:
    """Eigenvalue-equation residual of a bi-spinor, before any phase.

    Positive branch: |H(p) u - R u|; negative branch: |H(-p) u + R u|,
    matching the momentum carried by each branch's plane wave.  The largest
    entry magnitude, one value per element of a stack.
    """
    if branch is EnergyBranch.NEGATIVE:
        state = _mirrored(state)
    u = np.asarray(u)
    deviation = np.matvec(hamiltonian(state), u) - (branch.sign * state.R)[..., None] * u
    return max_abs_each(deviation, ndim=1)[()]
