"""Matrix constants of the standard (Dirac) representation.

Pauli sigma_k, Dirac alpha_k / beta, covariant gamma^mu, gamma^5, the
block-diagonal spin matrices Sigma_k, the Levi-Civita symbol, and the
commutator / anticommutator helpers.  Conventions:

* metric g = diag(1, -1, -1, -1), stored in ``METRIC``;
* gamma^0 = beta, gamma^k = beta alpha_k;
* gamma^5 = i gamma^0 gamma^1 gamma^2 gamma^3 = [[0, 1], [1, 0]] in blocks;
  the index-lowered companion is GAMMA5_LOWER = -GAMMA5, and
  ``gamma5_lower_times`` is the one function that multiplies by it;
* Sigma_k = block-diagonal (sigma_k, sigma_k); that it equals
  alpha_k gamma^5 is the ``spin-gamma5`` check, not its definition.

All constants are immutable module-level arrays; every function here is
pure, so the module is safe to use concurrently.  The vector contractions,
the slash and the momentum-dependent matrices accept stacked inputs
(vectors of shape ``(N, 3)``, stacked ``FourVector`` and ``MomentumState``) and
return ``(N, 2, 2)`` or ``(N, 4, 4)`` stacks; the commutators broadcast.
"""

from __future__ import annotations

import numpy as np

from .kinematics import FourVector, MomentumState, momentum_axis
from .smallmat import block4, cmat

SIGMA1 = cmat([[0, 1], [1, 0]])
SIGMA2 = cmat([[0, -1j], [1j, 0]])
SIGMA3 = cmat([[1, 0], [0, -1]])
PAULI = (SIGMA1, SIGMA2, SIGMA3)

ID2 = cmat(np.eye(2))
ID4 = cmat(np.eye(4))
ZERO2 = cmat(np.zeros((2, 2)))

ALPHA = tuple(cmat(block4(ZERO2, s, s, ZERO2)) for s in PAULI)
BETA = cmat(block4(ID2, ZERO2, ZERO2, -ID2))

GAMMA0 = BETA
GAMMA = (GAMMA0,) + tuple(cmat(BETA @ a) for a in ALPHA)
GAMMA5 = cmat(1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
GAMMA5_LOWER = cmat(-GAMMA5)

# gamma^5 must come out as the off-diagonal block form; the product above
# is the defining construction, this is the independent cross-check.
assert np.array_equal(GAMMA5, cmat(block4(ZERO2, ID2, ID2, ZERO2)))

SPIN = tuple(cmat(block4(s, ZERO2, ZERO2, s)) for s in PAULI)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)

_LEVI = np.zeros((3, 3, 3), dtype=int)
for _q, _r, _s in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_q, _r, _s] = 1
    _LEVI[_q, _s, _r] = -1
_LEVI.setflags(write=False)


def levi_civita(q: int, r: int, s: int) -> int:
    """Totally antisymmetric symbol e(q, r, s), 1-based indices in {1, 2, 3}."""
    if not all(k in (1, 2, 3) for k in (q, r, s)):
        raise ValueError("Levi-Civita indices must be 1, 2, or 3")
    return int(_LEVI[q - 1, r - 1, s - 1])


def _contract(v, mats) -> np.ndarray:
    """v1 M1 + v2 M2 + v3 M3 for a 3-vector or each vector of a stack."""
    v = np.asarray(v)[..., None, None]
    return v[..., 0, :, :] * mats[0] + v[..., 1, :, :] * mats[1] + v[..., 2, :, :] * mats[2]


def sigma_dot(v) -> np.ndarray:
    """v1 sigma1 + v2 sigma2 + v3 sigma3."""
    return _contract(v, PAULI)


def alpha_dot(v) -> np.ndarray:
    return _contract(v, ALPHA)


def spin_dot(v) -> np.ndarray:
    """Contraction with the block-diagonal spin matrices Sigma_k."""
    return _contract(v, SPIN)


def gamma_slash(a: FourVector) -> np.ndarray:
    """Feynman slash a0 gamma^0 - a . gamma of a contravariant four-vector."""
    return np.asarray(a.t)[..., None, None] * GAMMA[0] - _contract(a.r, GAMMA[1:])


def hamiltonian(state: MomentumState) -> np.ndarray:
    """Free-particle matrix c alpha.p + m c^2 beta."""
    return state.c * alpha_dot(state.p) + state.rest_energy * BETA


def helicity_operator(state: MomentumState) -> np.ndarray:
    """Spin projection (1/2) Sigma.p-hat, with p-hat from ``momentum_axis``."""
    if np.count_nonzero(state.p_abs == 0.0):
        raise ValueError("helicity is undefined at rest")
    return 0.5 * spin_dot(momentum_axis(state))


def gamma5_lower_times(x: np.ndarray) -> np.ndarray:
    """GAMMA5_LOWER x, of a 4x4 matrix or of each matrix of a stack."""
    return GAMMA5_LOWER @ x


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y + y @ x
