"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own code paths: determinants by
permutation expansion, rank by Gaussian elimination.
"""

from __future__ import annotations

import itertools

import numpy as np


def perm_parity(perm: tuple[int, ...]) -> int:
    parity = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def perm_det(m: np.ndarray) -> complex:
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = perm_parity(perm)
        for i in range(n):
            term = term * m[i, perm[i]]
        total += term
    return complex(total)


def row_reduce_rank(m: np.ndarray, tol: float = 1e-10) -> int:
    """Numerical rank by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.complex128)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] = a[r] - a[r, col] * a[rank]
        rank += 1
    return rank
