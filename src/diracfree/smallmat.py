"""Dense complex 2x2 / 4x4 matrix kernel.

Everything in this library is carried by fixed-size complex matrices, so
this module deliberately supports nothing else: value-semantic numpy
arrays, 2x2-block composition of 4x4 matrices, cofactor determinants, the
Schur block-determinant formulas, and the block rank criterion.

``dagger``, ``stack_last`` and ``block4`` also act on stacks of matrices
(leading batch axes).  Stacked vector products elsewhere in the library use
``np.vecdot`` and ``np.matvec``, whose entries round exactly like
``np.vdot`` / ``np.dot`` and ``@`` on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonCommutingBlocks, SingularA

# The tolerance policy, in one table.
DEFAULT_TOL = 1e-12  # residual bound of a verify check
IMAG_TOL = 1e-10  # imaginary part a real bilinear may carry, relative to max(1, |re|)
UNIT_TOL = 1e-12  # |n.n - 1| allowed for a unit polarization direction


def cmat(entries) -> np.ndarray:
    """Coerce row-major entries to an immutable complex square matrix."""
    m = np.array(entries, dtype=np.complex128)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def max_abs(x) -> float:
    """Largest entry magnitude; the residual norm used throughout."""
    return float(np.max(np.abs(np.asarray(x)))) if np.asarray(x).size else 0.0


def mat_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


@dataclass(frozen=True)
class Block2x2:
    """A 4x4 matrix partitioned into four 2x2 blocks.

    Layout: ``[[a, b], [c, d]]`` with a top-left, b top-right, c bottom-left,
    d bottom-right.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            block = np.asarray(getattr(self, name), dtype=np.complex128)
            if block.shape != (2, 2):
                raise ValueError(f"block {name} must be 2x2, got {block.shape}")
            block.setflags(write=False)
            object.__setattr__(self, name, block)


def stack_last(entries) -> np.ndarray:
    """``np.stack(entries, axis=-1)`` for entries of one shape, without its call overhead."""
    stacked = np.array(entries)
    return stacked.transpose(*range(1, stacked.ndim), 0)


def block4(a, b, c, d) -> np.ndarray:
    """Complex 4x4 matrix ``[[a, b], [c, d]]`` of 2x2 blocks, each maybe stacked."""
    blocks = [np.asarray(x) for x in (a, b, c, d)]
    stack = max((x.shape for x in blocks), key=len)[:-2]
    m = np.empty(stack + (4, 4), dtype=np.complex128)
    m[..., :2, :2], m[..., :2, 2:], m[..., 2:, :2], m[..., 2:, 2:] = blocks
    return m


def assemble(blocks: Block2x2) -> np.ndarray:
    m = block4(blocks.a, blocks.b, blocks.c, blocks.d)
    m.setflags(write=False)
    return m


def disassemble(m: np.ndarray) -> Block2x2:
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4, got {m.shape}")
    return Block2x2(m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:])


def block_mul(x: Block2x2, y: Block2x2) -> Block2x2:
    """Blockwise product: top-left = A1 A2 + B1 C2, and so on."""
    return Block2x2(
        x.a @ y.a + x.b @ y.c,
        x.a @ y.b + x.b @ y.d,
        x.c @ y.a + x.d @ y.c,
        x.c @ y.b + x.d @ y.d,
    )


def det2(m: np.ndarray) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _det3(m: np.ndarray) -> complex:
    return complex(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def det4(m: np.ndarray) -> complex:
    """Determinant by cofactor expansion along the first row.

    Direct expansion (24 signed terms) keeps the structure exact; no
    pivoting edge cases at this size.
    """
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4, got {m.shape}")
    rows = (1, 2, 3)
    total = 0.0 + 0.0j
    for j in range(4):
        cols = [k for k in range(4) if k != j]
        minor = m[np.ix_(rows, cols)]
        total += (-1) ** j * m[0, j] * _det3(minor)
    return complex(total)


def _inv2(m: np.ndarray) -> np.ndarray:
    d = det2(m)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=np.complex128) / d


def schur_det(blocks: Block2x2, tol: float = DEFAULT_TOL) -> complex:
    """Block determinant via the Schur reduction formulas.

    Uses det(AD - CB) when AC = CA, else det(AD - BC) when CD = DC.  The
    commutation residual is measured against ``tol``; the AC = CA route is
    preferred when both apply.
    """
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    if max_abs(a @ c - c @ a) <= tol:
        return det2(a @ d - c @ b)
    if max_abs(c @ d - d @ c) <= tol:
        return det2(a @ d - b @ c)
    raise NonCommutingBlocks(
        "neither AC = CA nor CD = DC holds within tolerance; "
        "the Schur formulas do not apply"
    )


def block_rank_is_n(blocks: Block2x2, tol: float = DEFAULT_TOL) -> bool:
    """Rank criterion for a partitioned matrix with nonsingular top-left block.

    With A invertible, the 4x4 matrix has rank 2 exactly when D = C A^-1 B.
    """
    a = blocks.a
    if abs(det2(a)) <= tol:
        raise SingularA("top-left block is singular within tolerance")
    residual = max_abs(blocks.d - blocks.c @ _inv2(a) @ blocks.b)
    return residual <= tol
