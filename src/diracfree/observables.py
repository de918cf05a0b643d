"""Covariant quantities built from bi-spinors.

Dirac adjoint and bilinears, the polarization four-vector of a spin
direction, the matrix gamma_5 a-slash + 1 of the constraint it satisfies
together with the Dirac equation, the conserved current, and relativistic
spin expectation values.  Each function returns its object; the verify
sweep measures the identities between them.

Physical components (polarization four-vector, current) are computed as
complex bilinears and their imaginary parts are *checked* against a
tolerance instead of being discarded: a stray imaginary part is a bug
detector, not noise.

Every function accepts stacks: a stacked state, stacked directions ``n`` of
shape ``(N, 3)`` and stacked bi-spinors of shape ``(N, 4)`` give stacked
results, one per element; the unstacked call is the batch-of-one case.
"""

from __future__ import annotations

import numpy as np

from .gamma import GAMMA, GAMMA0, ID4, SPIN, gamma5_lower_times, gamma_slash
from .kinematics import EnergyBranch, FourVector, MomentumState, angles_of
from .smallmat import IMAG_TOL, divide_by_power_of_two, power_of_two_scale, stack_last
from .spinors import Helicity, Normalization, helicity_bispinor


def dirac_adjoint(u: np.ndarray) -> np.ndarray:
    """Row vector u+ gamma^0 of a column or of each column in a stack."""
    # gamma^0 = beta is diagonal in the Dirac representation
    return np.conjugate(np.asarray(u)) * GAMMA0.diagonal().real


def bilinear(u_left: np.ndarray, m: np.ndarray, u_right: np.ndarray) -> complex:
    """u-bar_left M u_right, for one pair of columns or each pair of a stack."""
    # vecdot conjugates its first argument; conjugating first cancels that
    return np.vecdot(np.conjugate(dirac_adjoint(u_left) @ m), u_right)


def adjoint_norm(u: np.ndarray) -> float:
    """u-bar u (always real for finite components)."""
    # vecdot conjugates its first argument; conjugating first cancels that
    return np.vecdot(np.conjugate(dirac_adjoint(u)), u).real


def _real_part(value, what: str):
    """Real part of a physical component; any stray imaginary part raises."""
    value = np.asarray(value)
    stray = np.abs(value.imag) > IMAG_TOL * np.maximum(1.0, np.abs(value.real))
    if np.count_nonzero(stray):
        raise ValueError(f"{what} has a non-negligible imaginary part: {value[stray][0]}")
    return value.real[()]


def _bilinear_four_vector(u, matrices, symbol: str) -> FourVector:
    """The four real bilinears u-bar M^mu u, one per matrix, as a four-vector."""
    comps = [_real_part(bilinear(u, m, u), f"{symbol}^{mu}") for mu, m in enumerate(matrices)]
    return FourVector(comps[0], stack_last(comps[1:]))


def polarization_four_vector(state: MomentumState, n) -> FourVector:
    """Closed-form polarization four-vector of a rest-frame spin direction n.

    a0 = (p.n)/(m c), a = n + p (p.n) / (m (E + m c^2)) with E = +R.  For
    unit n and an on-shell state it satisfies p.a = 0 and a.a = -1, and it
    reduces to (0, n) at rest.
    """
    if state.m == 0:
        raise ValueError("polarization four-vector requires m > 0")
    n = np.asarray(n, dtype=float)
    p_dot_n = np.vecdot(state.p, n)
    a0 = p_dot_n / (state.m * state.c)
    avec = n + state.p * (p_dot_n / (state.m * (state.R + state.rest_energy)))[..., None]
    return FourVector(a0, avec)


def polarization_from_bilinear(state: MomentumState, n) -> FourVector:
    """Same four-vector evaluated as the pseudo-vector bilinear.

    Builds the positive-branch bi-spinor from the +1 eigenspinor of
    sigma.n with unit invariant norm and evaluates u-bar (gamma_5,lower
    gamma^mu) u componentwise.  Independent route used to cross-check the
    closed form.
    """
    u = helicity_bispinor(
        Helicity.PLUS, EnergyBranch.POSITIVE, angles_of(n), state, Normalization.INVARIANT_UNIT
    )
    return _bilinear_four_vector(u, [gamma5_lower_times(g) for g in GAMMA], "a")


def polarization_constraint(a: FourVector) -> np.ndarray:
    """Matrix gamma_5,lower a-slash + 1 of the polarization equation.

    Annihilates the positive-branch bi-spinor whose two-spinor is the +1
    eigenvector of sigma.n when a is the polarization four-vector of n; its
    action on the wrong helicity is of order one.
    """
    return gamma5_lower_times(gamma_slash(a)) + ID4


def current_density(u: np.ndarray) -> FourVector:
    """Current four-vector j^mu = u-bar gamma^mu u.

    Proportional to p^mu: j^mu = (p^mu / m c) u-bar u for any normalization
    of the underlying two-spinor.
    """
    return _bilinear_four_vector(u, GAMMA, "j")


def spin_expectations(u: np.ndarray) -> np.ndarray:
    """Expectation value of the spin operator (1/2) Sigma in state u."""
    u = divide_by_power_of_two(u, power_of_two_scale(u, 1)[..., None])  # exact: keeps |u|^2 in range
    nsq = np.vecdot(u, u).real
    return stack_last([0.5 * np.vecdot(u, np.matvec(s, u)).real / nsq for s in SPIN])


def relate_spin_expectations(state: MomentumState, s_nonrel: np.ndarray) -> np.ndarray:
    """Relativistic spin expectation from the rest-frame one.

    (m c^2 / E) <s> + c^2 p (p . <s>) / (E (E + m c^2)) with E = +R:
    the component along p is unchanged, transverse components shrink by
    m c^2 / E.  The longitudinal term is formed as (c p)(c p . <s>), never
    through c^2, which is subnormal for c below about 1.5e-154.
    """
    s_nonrel = np.asarray(s_nonrel, dtype=float)
    e = state.R
    mc2 = state.rest_energy
    cp = state.c * state.p
    longitudinal = cp * np.vecdot(cp, s_nonrel)[..., None]
    return (mc2 / e)[..., None] * s_nonrel + longitudinal / (e * (e + mc2))[..., None]
