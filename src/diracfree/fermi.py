"""Audit of the free-electron bi-spinors in Fermi's 1954 lecture notes.

Fermi's Chicago quantum-mechanics notes list four "orthogonal normalized"
plane-wave bi-spinors, the second pair attributed to the negative energy
eigenvalue -R.  Direct substitution shows all four are +R eigenvectors of
the free Hamiltonian and the set is linearly dependent (vanishing
determinant).  This module preserves the original set as a regression
fixture (its first pair taken from the corrected set, its second never
forming R - m c^2), provides the corrected set (the axis-3 spin basis,
whose last two columns really are -R eigenvectors), the energy projection
operators built from H/R, and Fermi's variant gamma representation with the
primed spin matrices.  The state-dependent constructions accept a stacked
state and return stacked bi-spinors and projectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gamma import ALPHA, BETA, ID4, hamiltonian
from .kinematics import MomentumState, momentum_axis
from .smallmat import cmat, stack_last
from .spinors import spin_basis_matrix

FERMI_GAMMA1 = cmat(
    [
        [0, 0, 0, -1j],
        [0, 0, -1j, 0],
        [0, 1j, 0, 0],
        [1j, 0, 0, 0],
    ]
)
FERMI_GAMMA2 = cmat(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
)
FERMI_GAMMA3 = cmat(
    [
        [0, 0, -1j, 0],
        [0, 0, 0, 1j],
        [1j, 0, 0, 0],
        [0, -1j, 0, 0],
    ]
)
FERMI_GAMMA4 = BETA


def fermi_gamma_set() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fermi's gamma_1..gamma_4 (gamma_4 = beta).

    These square to the identity, pairwise anticommute, and reproduce the
    standard alpha matrices through alpha_k = i beta gamma_k.
    """
    return FERMI_GAMMA1, FERMI_GAMMA2, FERMI_GAMMA3, FERMI_GAMMA4


def fermi_sigma_primes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primed spin matrices (1/i) alpha_2 alpha_3, etc.

    Entrywise equal to the block-diagonal spin matrices Sigma_k.
    """
    a1, a2, a3 = ALPHA
    return (-1j * a2 @ a3, -1j * a3 @ a1, -1j * a1 @ a2)


def fermi_bispinors_original(state: MomentumState) -> list[np.ndarray]:
    """The four bi-spinors as printed in the notes.

    The printed u1 and u2 are the corrected set's first pair, taken from it.
    u3 and u4 are printed with sqrt((R - m c^2)/2R) c p/(R - m c^2) and
    sqrt((R - m c^2)/2R), which are N p/|p| and N eta with N = sqrt((R +
    m c^2)/2R), u1's first entry, and eta = c|p|/(R + m c^2), the state's
    ``eta``; they are
    evaluated so, and R - m c^2, which cancels near rest, is never formed.
    The printed 1/(R - m c^2) blows up at rest, hence the |p| > 0
    precondition.  All four satisfy H u = +R u; the set has a vanishing
    determinant.  Preserved as printed, bugs included: the audit is the
    feature.
    """
    if np.count_nonzero(state.p_abs == 0.0):
        raise ValueError("the original set is singular at p = 0")
    u1, u2, _, _ = fermi_bispinors_corrected(state)
    n = u1[..., :1]
    nx, ny, nz = np.moveaxis(momentum_axis(state), -1, 0)
    eta = state.eta
    zero = np.zeros_like(eta)
    u3 = n * stack_last([nz, nx + 1j * ny, eta, zero])
    u4 = n * stack_last([nx - 1j * ny, -nz, zero, eta])
    return [u1, u2, u3, u4]


def fermi_bispinors_corrected(state: MomentumState) -> list[np.ndarray]:
    """The corrected set: columns of the axis-3 spin basis matrix.

    Well defined at p = 0, unimodular determinant, and the second pair are
    genuine -R eigenvectors.
    """
    u = spin_basis_matrix(state)
    return [u[..., k].copy() for k in range(4)]


class FermiProjectors(NamedTuple):
    """Complementary projectors onto the energy branches."""

    P: np.ndarray
    N: np.ndarray


def fermi_projectors(state: MomentumState) -> FermiProjectors:
    """P = 1/2 + H/(2R) and N = 1/2 - H/(2R).

    Idempotent, complementary, orthogonal; on the corrected bi-spinors they
    select the positive / negative energy pairs.
    """
    h = hamiltonian(state)
    p = 0.5 * ID4 + h / (2.0 * state.R)[..., None, None]
    return FermiProjectors(P=p, N=ID4 - p)
