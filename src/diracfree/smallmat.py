"""Dense complex 2x2 / 4x4 matrix kernel.

Everything in this library is carried by fixed-size complex matrices, so
this module deliberately supports nothing else: value-semantic numpy
arrays, 2x2-block composition of 4x4 matrices, cofactor determinants, the
Schur block determinant det(AD - CB) of a matrix whose blocks have
AC = CA, and the Schur complement, which vanishes exactly at rank 2.  The
block kernels split 4x4 matrices with ``disassemble``.

Every function also acts on stacks of matrices (leading batch axes), and a
single matrix is the batch-of-one case.  Stacked vector products elsewhere
in the library use ``np.vecdot`` and ``np.matvec``.  ``residual`` is the
one measure every verdict and every emitted residual uses.
"""

from __future__ import annotations

import numpy as np


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


def residual(lhs, rhs, scale=None) -> float:
    """The largest ``|lhs - rhs| / scale`` of any entry: how far an identity misses.

    ``lhs``, ``rhs`` and ``scale`` broadcast against each other.  With no
    scale the deviation is not divided at all, which is the scale 1 bit for
    bit.  A nan entry in any of them makes the result nan, and no entries at
    all give 0.0.
    """
    deviation = np.abs(lhs - rhs)
    if scale is not None:
        deviation = deviation / scale
    return float(np.max(deviation, initial=0.0))


def max_abs_each(x, ndim: int = 2) -> np.ndarray:
    """Largest entry magnitude of each matrix (``ndim=2``) or vector (``ndim=1``) in a stack."""
    return np.max(np.abs(x), axis=tuple(range(-ndim, 0)))


def power_of_two_scale(x, ndim: int = 2) -> np.ndarray:
    """The power of two that brings ``max_abs_each(x, ndim)`` into [0.5, 1) (1 for zero); exact to divide by.

    The top binade, from 2**1023 up, comes into [1, 2) instead, as 2**1024 is inf.
    """
    return np.ldexp(1.0, np.minimum(np.frexp(max_abs_each(x, ndim))[1], 1023))


def divide_by_power_of_two(x, s) -> np.ndarray:
    """``x / s`` for a power of two ``s`` broadcast against ``x``, by ``np.ldexp``: exact at any scale.

    numpy's complex / real multiplies by 1/s, which is inf for s below about 2.8e-309.
    """
    x = np.asarray(x)
    shift = 1 - np.frexp(s)[1]  # s = 2**-shift
    if not np.iscomplexobj(x):
        return np.ldexp(x, shift)
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(shift)), dtype=x.dtype)
    out.real = np.ldexp(x.real, shift)
    out.imag = np.ldexp(x.imag, shift)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


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


def disassemble(m: np.ndarray) -> tuple:
    """The 2x2 blocks ``(a, b, c, d)`` of ``[[a, b], [c, d]]``: complex views of a 4x4 matrix or stack."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4, got {m.shape}")
    return m[..., :2, :2], m[..., :2, 2:], m[..., 2:, :2], m[..., 2:, 2:]


def block_mul(x: tuple, y: tuple) -> np.ndarray:
    """The 4x4 product of two ``disassemble`` splits, blockwise: top-left = A1 A2 + B1 C2, and so on."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = x, y
    return block4(a1 @ a2 + b1 @ c2, a1 @ b2 + b1 @ d2, c1 @ a2 + d1 @ c2, c1 @ b2 + d1 @ d2)


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


def schur_det(m: np.ndarray) -> complex:
    """Determinant of a 4x4 matrix ``[[A, B], [C, D]]`` with AC = CA, as det(AD - CB).

    AC = CA is tested per stack element with A and C each at its
    ``power_of_two_scale``, so at any scale of the blocks; a nan commutator
    fails the test.
    """
    a, b, c, d = disassemble(m)
    a_unit, c_unit = (divide_by_power_of_two(v, power_of_two_scale(v)[..., None, None]) for v in (a, c))
    if not np.all(max_abs_each(a_unit @ c_unit - c_unit @ a_unit) <= DEFAULT_TOL):
        raise ValueError("AC = CA does not hold within tolerance; the Schur formula does not apply")
    return det2(a @ d - c @ b)


def schur_complement(m: np.ndarray) -> np.ndarray:
    """The Schur complement D - C A^-1 B of a 4x4 matrix ``[[A, B], [C, D]]`` with nonsingular A.

    It vanishes exactly when the matrix has rank 2.  With s =
    ``power_of_two_scale(A)``, A is singular when |det(A / s)| <= ``DEFAULT_TOL``
    at any scale (a zero block stays singular), and C A^-1 B is formed as
    (C (A / s)^-1)(B / s) with exact divisions, in range where A^-1 is not.
    """
    a, b, c, d = disassemble(m)
    s = power_of_two_scale(a)[..., None, None]
    a = divide_by_power_of_two(a, s)
    if np.count_nonzero(np.abs(det2(a)) <= DEFAULT_TOL):
        raise ValueError("top-left block is singular within tolerance")
    return d - c @ _inv2(a) @ divide_by_power_of_two(b, s)
