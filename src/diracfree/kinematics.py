"""Particle kinematics: momentum states, polar directions, four-vectors.

Three equivalent parametrizations of a massive particle's motion are
supported and kept mutually consistent:

* Cartesian momentum ``p`` with energy branches ``E = +/- R``,
  ``R = sqrt(c^2 p^2 + m^2 c^4)``;
* rapidity ``th`` with ``E = m c^2 cosh(th)``, ``|p| = m c sinh(th)``;
* the subluminal parameter ``eta = tanh(th/2) = c|p| / (R + m c^2)`` on
  ``[0, 1)``, which rationalizes all half-angle formulas.

Units have hbar = 1 throughout; c is an explicit field of
``MomentumState``, 1 by default, so dimensional factors can be exercised
with c != 1.  The mass and c are stored as numpy float64, so a product or
power beyond the float range is inf rather than an ``OverflowError``.
``verify`` builds every state it sweeps through ``GridSpec.states``, which
stacks ``from_eta``.  ``momentum_axis`` is the one home of the direction
p/|p| (the z axis at rest), and ``mirrored`` of the state with momentum -p.
Each factor of the eta parametrization is formed in one function:
``MomentumState.eta`` is eta of a state (``to_eta`` adds the m > 0 guard),
and ``one_minus_eta_squared`` is 1 - eta^2.

Angles, directions, four-vectors and momenta may be stacked: ``theta`` and
``phi`` of shape ``(N,)``, ``p`` of shape ``(N, 3)``.  Every quantity then
comes out with the same leading axes, and an unstacked input is the
batch-of-one case of the same code: its scalars are numpy float64 values
(a ``float`` subclass).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

import numpy as np

from .smallmat import divide_by_power_of_two, power_of_two_scale, stack_last


class EnergyBranch(Enum):
    """Sign of the energy eigenvalue, E = sign * R."""

    POSITIVE = 1
    NEGATIVE = -1

    @property
    def sign(self) -> int:
        return self.value


class _Frozen:
    """Fields set once in ``__init__``: assigning or deleting one raises ``AttributeError``.

    ``__init__`` stores the fields in ``__dict__``, where ``cached_property``
    also writes.  A plain class, not a frozen dataclass, so that importing
    the module generates and compiles no methods.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PolarAngles(_Frozen):
    """Spherical direction (theta, phi); theta in [0, pi], phi taken mod 2 pi.

    Either angle may be an ``(N,)`` array; the two are broadcast to one shape.
    A theta below 0 or above pi raises ``ValueError`` naming the first one.
    """

    def __init__(self, theta: float, phi: float = 0.0):
        theta = np.array(theta, dtype=float)
        phi = np.array(phi, dtype=float)[()] % (2.0 * math.pi)
        bad = (theta < 0.0) | (theta > math.pi)
        if np.count_nonzero(bad):
            raise ValueError(f"theta must lie in [0, pi], got {theta[bad][0]}")
        theta = theta[()]
        if theta.shape != phi.shape:
            theta, phi = np.broadcast_arrays(theta, phi)
        self.__dict__.update(theta=theta, phi=phi)


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


def scaled_norm(v):
    """Real length sqrt(v+ v) of a real or complex vector, or of each in a stack, without overflow.

    The length of ``v / s``, ``s = power_of_two_scale(v, 1)``, times ``s``: a
    finite v gives inf only for a length past the float range, and as both
    scalings are exact, a length that stays in range keeps its bits.
    """
    s = power_of_two_scale(v, ndim=1)
    w = divide_by_power_of_two(v, s[..., None])
    return np.sqrt(np.vecdot(w, w).real) * s


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


class FourVector(_Frozen):
    """Contravariant four-vector a^mu = (a0, a) with metric diag(1,-1,-1,-1).

    A stack of N four-vectors has ``t`` of shape ``(N,)`` and ``r`` of shape
    ``(N, 3)``.
    """

    def __init__(self, t: float, r: np.ndarray = (0.0, 0.0, 0.0)):
        r = np.array(r, dtype=float)
        if r.shape[-1:] != (3,):
            raise ValueError("spatial part must be a 3-vector")
        r.setflags(write=False)
        self.__dict__.update(t=np.asarray(t, dtype=float)[()], r=r)

    def as_array(self) -> np.ndarray:
        return np.concatenate((np.asarray(self.t)[..., None], self.r), axis=-1)


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - np.vecdot(a.r, b.r)


class MomentumState(_Frozen):
    """Mass, momentum and speed of light of a free particle, in units with hbar = 1.

    m >= 0 and c > 0, each stored as numpy float64: their powers and
    products overflow to inf, which an emit then reports as a non-finite
    output, instead of raising ``OverflowError`` as Python's ``float ** 2``
    does.  ``p`` of shape ``(N, 3)`` stacks N momenta of one mass and unit
    system; ``p_abs``, ``R`` and ``energy`` then return ``(N,)`` arrays.
    """

    def __init__(self, m: float, p: np.ndarray, c: float = 1.0):
        if not c > 0:
            raise ValueError("physical constants must be strictly positive")
        p = np.array(p, dtype=float)
        if p.shape[-1:] != (3,):
            raise ValueError("momentum must be a 3-vector")
        if m < 0:
            raise ValueError("mass must be nonnegative")
        p.setflags(write=False)
        self.__dict__.update(m=np.float64(m), p=p, c=np.float64(c))

    @cached_property
    def p_abs(self) -> float:
        return scaled_norm(self.p)

    @property
    def rest_energy(self) -> float:
        """m c^2, formed as (m c) c: c^2 alone goes subnormal for c below about 1.5e-154."""
        return (self.m * self.c) * self.c

    @cached_property
    def R(self) -> float:
        """Energy magnitude sqrt(c^2 p^2 + m^2 c^4)."""
        return np.hypot(self.c * self.p_abs, self.rest_energy)

    @cached_property
    def eta(self) -> float:
        """Speed parameter c|p| / (R + m c^2); 1 at m = 0, where ``to_eta`` raises instead."""
        return self.c * self.p_abs / (self.R + self.rest_energy)

    def energy(self, branch: EnergyBranch = EnergyBranch.POSITIVE) -> float:
        return branch.sign * self.R

    def momentum_four_vector(self, branch: EnergyBranch = EnergyBranch.POSITIVE) -> FourVector:
        """p^mu = (E/c, p); satisfies p.p = m^2 c^2 on either branch."""
        return FourVector(self.energy(branch) / self.c, self.p)


def mirrored(state: MomentumState) -> MomentumState:
    """The state with momentum -p, same mass and units, as a negative-branch wave carries."""
    return MomentumState(state.m, -state.p, state.c)


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
        raise ValueError(f"eta must lie in [0, 1), got {eta[bad][0]}")
    return eta[()]


def one_minus_eta_squared(eta):
    """1 - eta^2, of a value or of each entry of an array: the one place it is formed."""
    return 1.0 - np.square(eta)


def from_eta(m: float, c: float, eta: float, dir: PolarAngles) -> MomentumState:
    """State with |p| = 2 m c eta / (1 - eta^2) along the given direction.

    ``eta`` and ``dir`` may be stacked; they broadcast to one stack of states.
    """
    eta = check_eta(eta)
    if m <= 0:
        raise ValueError("eta parametrization requires m > 0")
    p_abs = 2.0 * m * c * eta / one_minus_eta_squared(eta)
    return MomentumState(m, p_abs[..., None] * direction(dir), c)


def to_eta(state: MomentumState) -> float:
    """eta = c|p| / (R + m c^2), ``state.eta``; inverse of ``from_eta`` on [0, 1)."""
    if state.m == 0:
        raise ValueError("eta parameter is undefined for m = 0")
    return state.eta


def rapidity(state: MomentumState) -> float:
    """Boost parameter th with E = m c^2 cosh th, |p| = m c sinh th."""
    if state.m == 0:
        raise ValueError("rapidity is undefined for m = 0")
    return np.arcsinh(state.p_abs / (state.m * state.c))
