"""Dense complex 2x2 / 4x4 matrix kernel.

Everything in this library is carried by fixed-size complex matrices, so
this module deliberately supports nothing else: value-semantic numpy
arrays, 2x2-block composition of 4x4 matrices, cofactor determinants, the
Schur block-determinant formulas, and the block rank criterion.

Every function also acts on stacks of matrices (leading batch axes), and a
single matrix is the batch-of-one case.  Stacked vector products elsewhere
in the library use ``np.vecdot`` and ``np.matvec``.  ``residual`` is the
one measure every verdict and every emitted residual uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonCommutingBlocks, SingularA

# The tolerance policy, in one table; a verify run judges every check by one tolerance.
DEFAULT_TOL = 1e-12  # the default bound on the ``residual`` of a verify check
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
    """Largest entry magnitude, 0.0 for no entries."""
    return float(np.max(np.abs(np.asarray(x)))) if np.asarray(x).size else 0.0


def residual(lhs, rhs, scale=1.0) -> float:
    """The largest ``|lhs - rhs| / scale`` of any entry: how far an identity misses.

    ``lhs``, ``rhs`` and ``scale`` broadcast against each other.  A nan entry
    in any of them makes the result nan, and no entries at all give 0.0.
    """
    return float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))


def max_abs_each(x, ndim: int = 2) -> np.ndarray:
    """Largest entry magnitude of each matrix (``ndim=2``) or vector (``ndim=1``) in a stack."""
    return np.max(np.abs(x), axis=tuple(range(-ndim, 0)))


def power_of_two_scale(x, ndim: int = 2) -> np.ndarray:
    """The power of two that brings ``max_abs_each(x, ndim)`` into [0.5, 1) (1 for zero); exact to divide by."""
    return np.ldexp(1.0, np.frexp(max_abs_each(x, ndim))[1])


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


@dataclass(frozen=True)
class Block2x2:
    """A 4x4 matrix partitioned into four 2x2 blocks.

    Layout: ``[[a, b], [c, d]]`` with a top-left, b top-right, c bottom-left,
    d bottom-right.  Each block may be a stack of shape ``(..., 2, 2)``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            block = np.asarray(getattr(self, name), dtype=np.complex128)
            if block.shape[-2:] != (2, 2):
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
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4, got {m.shape}")
    return Block2x2(m[..., :2, :2], m[..., :2, 2:], m[..., 2:, :2], m[..., 2:, 2:])


def block_mul(x: Block2x2, y: Block2x2) -> Block2x2:
    """Blockwise product: top-left = A1 A2 + B1 C2, and so on."""
    return Block2x2(
        x.a @ y.a + x.b @ y.c,
        x.a @ y.b + x.b @ y.d,
        x.c @ y.a + x.d @ y.c,
        x.c @ y.b + x.d @ y.d,
    )


def det2(m: np.ndarray) -> complex:
    m = np.asarray(m)
    return (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])[()]


# det4 expands along row 0 into the four 3x3 cofactors, each of which
# expands along row 1 into 2x2 minors of rows 2 and 3: six distinct column
# pairs, computed once.  _COFACTOR_COLS[j] are the columns of cofactor j and
# _COFACTOR_MINORS[j, k] the minor that multiplies its k-th row-1 entry.
_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]
_PAIR_A, _PAIR_B = np.array(_PAIRS).T
_COFACTOR_COLS = np.array([[k for k in range(4) if k != j] for j in range(4)])
_COFACTOR_MINORS = np.array(
    [[_PAIRS.index((c1, c2)), _PAIRS.index((c0, c2)), _PAIRS.index((c0, c1))]
     for c0, c1, c2 in _COFACTOR_COLS]
)
_ALTERNATING = np.array([1, -1, 1, -1])


def det4(m: np.ndarray) -> complex:
    """Determinant by cofactor expansion along the first row.

    Direct expansion (24 signed terms) keeps the structure exact; no
    pivoting edge cases at this size.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4, got {m.shape}")
    minors = m[..., 2, _PAIR_A] * m[..., 3, _PAIR_B] - m[..., 2, _PAIR_B] * m[..., 3, _PAIR_A]
    terms = m[..., 1, _COFACTOR_COLS] * minors[..., _COFACTOR_MINORS]
    cofactors = terms[..., 0] - terms[..., 1] + terms[..., 2]
    products = _ALTERNATING * m[..., 0, :] * cofactors
    total = 0.0 + 0.0j
    for j in range(4):
        total = total + products[..., j]
    return total[()]


def _inv2(m: np.ndarray) -> np.ndarray:
    inv = np.empty(m.shape, dtype=np.complex128)
    inv[..., 0, 0], inv[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    inv[..., 0, 1], inv[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    return inv / det2(m)[..., None, None]


def schur_det(blocks: Block2x2) -> complex:
    """Block determinant via the Schur reduction formulas.

    Uses det(AD - CB) when AC = CA, else det(AD - BC) when CD = DC, each
    commutator within ``DEFAULT_TOL``; the AC = CA route is preferred when
    both apply.  The route is chosen per stack element.
    """
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    ac = max_abs_each(a @ c - c @ a) <= DEFAULT_TOL
    cd = max_abs_each(c @ d - d @ c) <= DEFAULT_TOL
    if not np.all(ac | cd):
        raise NonCommutingBlocks(
            "neither AC = CA nor CD = DC holds within tolerance; "
            "the Schur formulas do not apply"
        )
    return np.where(ac, det2(a @ d - c @ b), det2(a @ d - b @ c))[()]


def block_rank_is_n(blocks: Block2x2) -> bool:
    """Rank criterion for a partitioned matrix with nonsingular top-left block.

    With A invertible, the 4x4 matrix has rank 2 exactly when D = C A^-1 B,
    one verdict per stack element.  With s = ``power_of_two_scale(A)``, A is
    singular when |det(A / s)| <= ``DEFAULT_TOL`` at any scale (a zero block
    stays singular), and A^-1 = (A / s)^-1 / s keeps det A clear of underflow.
    """
    s = power_of_two_scale(blocks.a)[..., None, None]
    a = blocks.a / s
    if np.count_nonzero(np.abs(det2(a)) <= DEFAULT_TOL):
        raise SingularA("top-left block is singular within tolerance")
    return (max_abs_each(blocks.d - blocks.c @ (_inv2(a) / s) @ blocks.b) <= DEFAULT_TOL)[()]
