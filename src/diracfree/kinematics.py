"""Particle kinematics: momentum states, polar directions, four-vectors.

Three equivalent parametrizations of a massive particle's motion are
supported and kept mutually consistent:

* Cartesian momentum ``p`` with energy branches ``E = +/- R``,
  ``R = sqrt(c^2 p^2 + m^2 c^4)``;
* rapidity ``th`` with ``E = m c^2 cosh(th)``, ``|p| = m c sinh(th)``;
* the subluminal parameter ``eta = tanh(th/2) = c|p| / (R + m c^2)`` on
  ``[0, 1)``, which rationalizes all half-angle formulas.

Natural units (c = hbar = 1) are the default, but both constants stay
explicit fields so dimensional factors can be exercised with c != 1.  The
mass and both constants are stored as numpy float64, so a product or
power beyond the float range is inf rather than an ``OverflowError``.
``momentum_axis`` is the one home of the direction p/|p| (the z axis at
rest).

Angles, directions, four-vectors and momenta may be stacked: ``theta`` and
``phi`` of shape ``(N,)``, ``p`` of shape ``(N, 3)``.  Every quantity then
comes out with the same leading axes, and an unstacked input is the
batch-of-one case of the same code: its scalars are numpy float64 values
(a ``float`` subclass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import EtaOutOfRange, MasslessState
from .smallmat import power_of_two_scale, stack_last


class EnergyBranch(Enum):
    """Sign of the energy eigenvalue, E = sign * R."""

    POSITIVE = 1
    NEGATIVE = -1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class PhysicalConstants:
    """Speed of light and reduced Planck constant, stored as numpy float64.

    As numpy scalars their powers and products overflow to inf, which an
    emit then reports as a non-finite output, instead of raising
    ``OverflowError`` as Python's ``float ** 2`` does.
    """

    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and self.hbar > 0):
            raise ValueError("physical constants must be strictly positive")
        object.__setattr__(self, "c", np.float64(self.c))
        object.__setattr__(self, "hbar", np.float64(self.hbar))


NATURAL_UNITS = PhysicalConstants()


@dataclass(frozen=True)
class PolarAngles:
    """Spherical direction (theta, phi); theta clamped to [0, pi], phi mod 2 pi.

    Either angle may be an ``(N,)`` array; the two are broadcast to one shape.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)[()]
        phi = np.array(self.phi, dtype=float)[()] % (2.0 * math.pi)
        low, high = theta < 0.0, theta > math.pi
        if np.count_nonzero(low | high):
            # where, not clip: -0.0 and nan pass through as under min/max
            theta = np.where(low, 0.0, np.where(high, math.pi, theta))[()]
        if theta.shape != phi.shape:
            theta, phi = np.broadcast_arrays(theta, phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def direction(angles: PolarAngles) -> np.ndarray:
    """Unit vector (sin th cos ph, sin th sin ph, cos th).

    The third component is cos(theta); see the documented-deviations section
    of the verification report for the one printed source that disagrees.
    """
    st, ct = np.sin(angles.theta), np.cos(angles.theta)
    sp, cp = np.sin(angles.phi), np.cos(angles.phi)
    n = stack_last([st * cp, st * sp, ct])
    n.setflags(write=False)
    return n


def _euclidean(v):
    return np.sqrt(np.vecdot(v, v))


def scaled_norm(v, norm=_euclidean):
    """``norm(v)`` of a vector, or of each vector in a stack, without overflow.

    ``norm`` runs on ``v / s`` with ``s = power_of_two_scale(v, 1)``, and its
    result is multiplied by ``s``, so a finite v never overflows to inf.  Both
    scalings are exact: where ``norm(v)`` stays in range the result keeps its bits.
    """
    s = power_of_two_scale(v, ndim=1)
    return norm(v / s[..., None]) * s


def angles_of(v) -> PolarAngles:
    """Polar angles of a nonzero 3-vector, or of each vector in a stack."""
    # a copy: numpy's arccos and arctan2 may round a reversed view differently
    # from the same entries in order, and a stack entry must equal the single call
    v = np.array(v, dtype=float)
    r = scaled_norm(v)
    if np.count_nonzero(r == 0.0):
        raise ValueError("zero vector has no direction")
    cos_theta = np.minimum(np.maximum(v[..., 2] / r, -1.0), 1.0)
    return PolarAngles(np.arccos(cos_theta), np.arctan2(v[..., 1], v[..., 0]))


@dataclass(frozen=True, eq=False)
class FourVector:
    """Contravariant four-vector a^mu = (a0, a) with metric diag(1,-1,-1,-1).

    A stack of N four-vectors has ``t`` of shape ``(N,)`` and ``r`` of shape
    ``(N, 3)``.
    """

    t: float
    r: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.shape[-1:] != (3,):
            raise ValueError("spatial part must be a 3-vector")
        r.setflags(write=False)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float)[()])
        object.__setattr__(self, "r", r)

    def as_array(self) -> np.ndarray:
        return np.concatenate((np.asarray(self.t)[..., None], self.r), axis=-1)

    def __iter__(self):
        return iter(self.as_array())


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - np.vecdot(a.r, b.r)


@dataclass(frozen=True, eq=False)
class MomentumState:
    """Mass, momentum, and unit system of a free particle; m >= 0.

    ``m`` is stored as numpy float64, like the constants.  ``p`` of shape
    ``(N, 3)`` stacks N momenta of one mass and unit system; ``p_abs``,
    ``R`` and ``energy`` then return ``(N,)`` arrays.
    """

    m: float
    p: np.ndarray
    constants: PhysicalConstants = NATURAL_UNITS

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape[-1:] != (3,):
            raise ValueError("momentum must be a 3-vector")
        if self.m < 0:
            raise ValueError("mass must be nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "m", np.float64(self.m))
        object.__setattr__(self, "p", p)

    @property
    def c(self) -> float:
        return self.constants.c

    @property
    def hbar(self) -> float:
        return self.constants.hbar

    @cached_property
    def p_abs(self) -> float:
        return scaled_norm(self.p)

    @property
    def rest_energy(self) -> float:
        return self.m * self.c**2

    @cached_property
    def R(self) -> float:
        """Energy magnitude sqrt(c^2 p^2 + m^2 c^4)."""
        return np.hypot(self.c * self.p_abs, self.rest_energy)

    def energy(self, branch: EnergyBranch = EnergyBranch.POSITIVE) -> float:
        return branch.sign * self.R

    def momentum_four_vector(self, branch: EnergyBranch = EnergyBranch.POSITIVE) -> FourVector:
        """p^mu = (E/c, p); satisfies p.p = m^2 c^2 on either branch."""
        return FourVector(self.energy(branch) / self.c, self.p)


def momentum_axis(state: MomentumState) -> np.ndarray:
    """Unit vector p/|p| along the momentum, or the z axis at rest.

    One vector per element of a stacked state.
    """
    moving = (state.p_abs > 0)[..., None]
    return np.where(moving, state.p, [0.0, 0.0, 1.0]) / np.where(moving, state.p_abs[..., None], 1.0)


def check_eta(eta: float) -> float:
    """eta as float64, checked to lie in [0, 1); an ``(N,)`` array entry by entry."""
    eta = np.asarray(eta, dtype=float)
    bad = ~((0.0 <= eta) & (eta < 1.0))
    if np.count_nonzero(bad):
        raise EtaOutOfRange(f"eta must lie in [0, 1), got {eta[bad][0]}")
    return eta[()]


def from_eta(m: float, c: float, eta: float, dir: PolarAngles,
             hbar: float = 1.0) -> MomentumState:
    """State with |p| = 2 m c eta / (1 - eta^2) along the given direction.

    ``eta`` and ``dir`` may be stacked; they broadcast to one stack of states.
    """
    eta = check_eta(eta)
    if m <= 0:
        raise MasslessState("eta parametrization requires m > 0")
    p_abs = 2.0 * m * c * eta / (1.0 - np.square(eta))
    return MomentumState(m, p_abs[..., None] * direction(dir), PhysicalConstants(c, hbar))


def to_eta(state: MomentumState) -> float:
    """eta = c|p| / (R + m c^2); inverse of ``from_eta`` on [0, 1)."""
    if state.m == 0:
        raise MasslessState("eta parameter is undefined for m = 0")
    return state.c * state.p_abs / (state.R + state.rest_energy)


def rapidity(state: MomentumState) -> float:
    """Boost parameter th with E = m c^2 cosh th, |p| = m c sinh th."""
    if state.m == 0:
        raise MasslessState("rapidity is undefined for m = 0")
    return np.arcsinh(state.p_abs / (state.m * state.c))
