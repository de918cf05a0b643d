"""Energy projectors, polarizers and pure-state polarization density matrices.

Each construction has one implementation here and returns matrices: the
energy projector, the polarizer 1 - gamma_5 a-slash, the density matrix
by its closed form and by its outer product, and the covariant expansion
of the projector-polarizer product.  The verify sweep measures the
identities between them.

Conventions, fixed by the explicit component checks in the test suite:

* the slash of the energy-momentum four-vector always carries E = +R; the
  negative branch flips the sign of the whole slash, Lambda(+/-) = mc -/+
  p-slash (sic: Lambda_+ = mc + p-slash, Lambda_- = mc - p-slash);
* inside a density matrix the polarization four-vector is evaluated along
  ``sign(2 lambda) n`` on both branches, giving the factor
  ``1 - sign(2 lambda) gamma_5 a-slash``;
* outer products: u u-bar = rho_+ for the positive branch and v v-bar =
  -rho_- for the negative one, with the 2mc-invariant normalization and
  the helicity label convention of ``spinors.helicity_bispinor``.

Every construction accepts stacks (stacked states, eta values, angles,
directions ``n`` of shape ``(N, 3)``, bi-spinors of shape ``(N, 4)``) and
returns one matrix per element; the unstacked call is the batch-of-one case.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, NonUnitDirection
from .gamma import (
    GAMMA,
    GAMMA5_LOWER,
    ID4,
    METRIC,
    alpha_dot,
    gamma_slash,
    sigma_dot,
    spin_dot,
)
from .kinematics import (
    EnergyBranch,
    FourVector,
    MomentumState,
    PolarAngles,
    angles_of,
    from_eta,
)
from .observables import adjoint_norm, dirac_adjoint, polarization_four_vector
from .smallmat import UNIT_TOL, Block2x2, disassemble
from .spinors import Helicity, Normalization, helicity_bispinor


def _check_unit(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    # written so that a nan or infinite direction fails too
    if np.count_nonzero(~(np.abs(np.vecdot(n, n) - 1.0) <= UNIT_TOL)):
        raise NonUnitDirection("polarization direction must be a unit vector")
    return n


def nonrel_density(lam: Helicity, n) -> np.ndarray:
    """Two-level pure-state density matrix (1 +/- sigma.n) / 2.

    ``n`` of shape ``(N, 3)`` gives an ``(N, 2, 2)`` stack.
    """
    n = _check_unit(n)
    return 0.5 * (np.eye(2) + lam.sign * sigma_dot(n))


def energy_projector(state: MomentumState, branch: EnergyBranch) -> np.ndarray:
    """mc +/- p-slash, projecting (up to 2mc) onto one energy branch."""
    p4 = state.momentum_four_vector(EnergyBranch.POSITIVE)
    return state.m * state.c * ID4 + branch.sign * gamma_slash(p4)


def outer_with_adjoint(u: np.ndarray) -> np.ndarray:
    """Rank-one matrix u u-bar."""
    return np.asarray(u)[..., :, None] * dirac_adjoint(u)[..., None, :]


def polarizer(a: FourVector) -> np.ndarray:
    """Polarization factor 1 - gamma_5,lower a-slash of a four-vector a."""
    return ID4 - GAMMA5_LOWER @ gamma_slash(a)


def density4(state: MomentumState, branch: EnergyBranch, lam: Helicity, n) -> np.ndarray:
    """Pure-state density matrix (mc +/- p-slash)(1 - s gamma_5 a-slash)/2.

    ``s = sign(2 lambda)`` and the a-slash is built from the polarization
    four-vector of ``s n``.  Equals the outer product of the corresponding
    2mc-normalized bi-spinor with its Dirac adjoint (positive branch), or
    its negative (negative branch); see ``density4_outer``.
    """
    n = _check_unit(n)
    a = polarization_four_vector(state, lam.sign * n)
    return 0.5 * energy_projector(state, branch) @ polarizer(a)


def density4_outer(state: MomentumState, branch: EnergyBranch, lam: Helicity, n) -> np.ndarray:
    """Outer-product route to the same density matrix.

    Built from ``helicity_bispinor`` of ``lam`` along n, whose outer product
    equals -rho_- on the negative branch, hence the overall sign flip.
    """
    n = _check_unit(n)
    u = helicity_bispinor(lam, branch, angles_of(n), state, Normalization.INVARIANT_2MC)
    return branch.sign * outer_with_adjoint(u)


def density_block_form(eta: float, angles: PolarAngles, branch: EnergyBranch,
                       lam: Helicity, m: float = 1.0, c: float = 1.0) -> Block2x2:
    """Density matrix of an eta-parametrized helicity state, in 2x2 blocks.

    Returns ``+/-(1 - eta^2) u u-bar / (u-bar u)``, which factorizes as a
    scalar block pattern times the two-level density matrix of the
    polarization direction: for positive energy
    ``[[rho, -s eta rho], [s eta rho, -eta^2 rho]]`` and for negative energy
    ``[[eta^2 rho, s eta rho], [-s eta rho, -rho]]`` with s = sign(2 lambda)
    and rho evaluated along s n (positive branch) or -s n (negative).
    In the rest limit eta -> 0 the positive branch reduces to
    diag(rho, 0).
    """
    state = from_eta(m, c, eta, angles)
    u = helicity_bispinor(lam, branch, angles, state, Normalization.INVARIANT_2MC)
    scale = branch.sign * (1.0 - np.square(eta))
    scaled = scale[..., None, None] * outer_with_adjoint(u) / adjoint_norm(u)[..., None, None]
    return disassemble(scaled)


def sigma_tensor(mu: int, nu: int) -> np.ndarray:
    """Antisymmetric tensor of matrices (gamma^mu gamma^nu - gamma^nu gamma^mu)/2."""
    if mu not in range(4) or nu not in range(4):
        raise IndexOutOfRange("tensor indices must lie in 0..3")
    return 0.5 * (GAMMA[mu] @ GAMMA[nu] - GAMMA[nu] @ GAMMA[mu])


def slash_pair(p: FourVector, a: FourVector) -> np.ndarray:
    """Contraction Sigma^{mu nu} p_mu a_nu of two four-vectors.

    Equals -p0 (alpha.a) + a0 (alpha.p) - i Sigma.(p x a); the relation
    p-slash gamma_5 a-slash = -gamma_5 (this contraction) holds whenever
    p.a = 0.
    """
    p_low = np.matvec(METRIC, p.as_array())
    a_low = np.matvec(METRIC, a.as_array())
    total = np.zeros(p_low.shape[:-1] + (4, 4), dtype=np.complex128)
    for mu in range(4):
        for nu in range(4):
            if mu != nu:
                total += sigma_tensor(mu, nu) * (p_low[..., mu] * a_low[..., nu])[..., None, None]
    return total


def slash_pair_components(p: FourVector, a: FourVector) -> np.ndarray:
    """Componentwise route -p0 (alpha.a) + a0 (alpha.p) - i Sigma.(p x a)."""
    cross = np.cross(p.r, a.r)
    return (
        (-p.t)[..., None, None] * alpha_dot(a.r)
        + a.t[..., None, None] * alpha_dot(p.r)
        - 1j * spin_dot(cross)
    )


def covariant_decomposition(state: MomentumState, branch: EnergyBranch,
                            a: FourVector) -> np.ndarray:
    """Covariant expansion mc (1 - gamma_5 a-slash) +/- [p-slash + gamma_5 Sigma^{mu nu} p_mu a_nu].

    Equals the product (mc +/- p-slash)(1 - gamma_5 a-slash) of the energy
    projector and the polarizer whenever p.a = 0, as for the polarization
    four-vector of any direction.
    """
    p4 = state.momentum_four_vector(EnergyBranch.POSITIVE)
    return (
        state.m * state.c * polarizer(a)
        + branch.sign * (gamma_slash(p4) + GAMMA5_LOWER @ slash_pair(p4, a))
    )
