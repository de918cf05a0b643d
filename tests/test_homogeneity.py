"""Exact (m, c) homogeneity of the verify residuals: a metamorphic oracle.

With hbar = 1 every identity is homogeneous in m and c at fixed eta and
direction, and binary floating point multiplies by a power of two exactly
unless it overflows or underflows.  So a residual whose measure has degree
(a, b) reads, at (2^k m, 2^j c), 2^(a k + b j) times its value at (m, c),
bit for bit.  ``DEGREES`` holds each degree, read from the runs at m = 2 and
at c = 2 on ``GRID``; the (1, 0) and (0, 1) pairs re-read it.
``ROOT_DEGREES`` holds the residuals that carry sqrt(2mc), asserted only at
``EVEN_PAIRS``.
"""

import math

import pytest

from diracfree import verify

GRID = {"eta_values": (0.1, 0.3, 0.5, 0.7, 0.9), "theta_count": 3, "phi_count": 3}
PAIRS = [(1, 0), (0, 1), (-20, 7), (30, 30)]
EVEN_PAIRS = [(2, 0), (0, 2), (-20, 8), (30, 30)]

# check id -> (a, b): the residual scales as m^a c^b
DEGREES = {
    "block-factor-minus": (0, 0),
    "block-factor-plus": (0, 0),
    "block-rank": (1, 2),
    "block-squared-norm": (2, 4),
    "blockmul-oracle": (0, 0),
    "boost-direct": (0, 0),
    "completeness-2": (0, 0),
    "covariant-decomposition": (1, 1),
    "current": (0, 0),
    "det-mult": (0, 0),
    "eta-determinant": (0, 0),
    "explicit-polarizer-minus": (0, 0),
    "explicit-polarizer-plus": (0, 0),
    "explicit-projector-minus": (0, 0),
    "explicit-projector-plus": (0, 0),
    "explicit-rank-one-minus": (0, 0),
    "explicit-rank-one-plus": (0, 0),
    "fermi-dependence": (0, 0),
    "fermi-eigen": (1, 2),
    "fermi-projector-action": (0, 0),
    "fermi-projectors": (0, 0),
    "h-factorization": (1, 2),
    "h-helicity-comm": (1, 2),
    "h-squared": (2, 4),
    "helicity-basis-unitary": (0, 0),
    "helicity-eigen-2": (0, 0),
    "helicity-eigen-4": (0, 0),
    "hv-exchange": (1, 2),
    "n3-convention": (0, 0),
    "nonrel-density": (0, 0),
    "norm-ratio": (0, 0),
    "on-shell": (2, 2),
    "parallel-polarization": (0, 0),
    "pauli-products": (0, 0),
    "phi-swap": (0, 0),
    "phi-unitary": (0, 0),
    "polarization-dual": (0, 0),
    "polarization-equation": (0, 0),
    "projector-trace": (1, 1),
    "schur-oracle": (0, 0),
    "sigma-factorization": (0, 0),
    "slash-pair": (1, 1),
    "slash-square": (2, 2),
    "spin-basis": (0, 0),
    "spin-basis-eigen": (1, 2),
    "spin-direction": (0, 0),
    "spin-relation": (0, 0),
    "spin-relation-axis": (0, 0),
    "v-inverse-sandwich": (0, 0),
    "wave-numbers": (1, 1),
}

# These compare with a bi-spinor normalized to u-bar u = 2mc, so they carry
# sqrt(2mc).  sqrt(2) is irrational: a power of two with an odd exponent
# cannot scale them exactly, one with even exponents can.  So they are
# asserted only at EVEN_PAIRS; none is exact at (1, 0) or (0, 1).
ROOT_DEGREES = {
    "adjoint-orthogonality": (1, 1),
    "density-outer-minus": (1, 1),
    "density-outer-plus": (1, 1),
    "density-trace": (1, 1),
    "norm-conversion": (1, 1),
    "projector-sum-minus": (1, 1),
    "projector-sum-plus": (1, 1),
}

# exactly 0 at every (m, c) tried
ZERO = (
    "alpha-anticomm", "alpha-spin-comm", "clifford", "conjugation-minus", "conjugation-plus",
    "conjugation-square", "dagger-antihom", "fermi-alpha-relation", "fermi-clifford",
    "fermi-eigenvalues", "fermi-sigma-primes", "h-spin-comm", "nonrel-limit", "polarization-rest",
    "sigma-n-matrix", "sigma-tensor", "spin-bound", "spin-gamma5",
)

# Residuals that do not scale by a power of two at every pair; nothing is
# asserted about them.  The last six mix terms of different degree in their
# measure, such as _rel's max(1, |want|), which switches where m^a c^b
# crosses 1; every raw |lhs - rhs| of theirs scales.  eig-det is relative,
# degree (0, 0): it reads the same at (1, 0), (0, 1), (2, 2) and (30, 30),
# but not at (-20, 7), where the max(1, .) of its scales switches below unit
# scale.
NOT_SCALING = (
    "eig-det", "adjoint-norms", "eta-rapidity", "eta-round-trip", "fermi-corrected",
    "polarization-invariants", "projector-algebra",
)


def _residuals(k, j, ids=None):
    grid = verify.GridSpec(mass=2.0**k, c=2.0**j, **GRID)
    return {entry.id: float(entry.fn(grid)) for entry in verify.REGISTRY if ids is None or entry.id in ids}


def _moved(degrees, unit, scaled, k, j):
    """The residuals of ``degrees`` that did not scale by 2^(a k + b j), as (got, want) hex."""
    return {
        i: (scaled[i].hex(), math.ldexp(unit[i], a * k + b * j).hex())
        for i, (a, b) in degrees.items()
        if scaled[i] != math.ldexp(unit[i], a * k + b * j)
    }


@pytest.fixture(scope="module")
def unit():
    return _residuals(0, 0)


def test_every_check_is_classified_once():
    named = [*DEGREES, *ROOT_DEGREES, *ZERO, *NOT_SCALING]
    assert len(named) == len(set(named))
    assert sorted(named) == verify.registry_ids()


def test_scaled_residuals_are_nonzero_and_the_zero_ones_zero(unit):
    assert [i for i in [*DEGREES, *ROOT_DEGREES] if unit[i] == 0.0] == []
    assert [i for i in ZERO if unit[i] != 0.0] == []


@pytest.mark.parametrize("k, j", PAIRS)
def test_residuals_scale_by_their_degree_bit_for_bit(unit, k, j):
    scaled = _residuals(k, j)
    assert _moved(DEGREES, unit, scaled, k, j) == {}
    assert [i for i in ZERO if scaled[i] != 0.0] == []


@pytest.mark.parametrize("k, j", EVEN_PAIRS)
def test_root_residuals_scale_at_even_pairs_bit_for_bit(unit, k, j):
    assert _moved(ROOT_DEGREES, unit, _residuals(k, j, ROOT_DEGREES), k, j) == {}
