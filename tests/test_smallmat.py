import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import smallmat as sm
from diracfree.gamma import SIGMA1, SIGMA2, sigma_dot

from oracles import perm_det, row_reduce_rank

RNG = np.random.default_rng(42)
SCALES = [1e-150, 1e-8, 1.0, 1e4, 1e6, 1e8, 1e150]


def random_cmat(n=4):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def d9_matrix(m, c, p, e):
    """Plane-wave eigenproblem matrix [[ (mc^2-E), c s.p ], [ c s.p, -(mc^2+E) ]]."""
    sg = c * sigma_dot(p)
    eye = np.eye(2)
    return np.block([[(m * c**2 - e) * eye, sg], [sg, -(m * c**2 + e) * eye]])


class TestBlocks:
    def test_round_trip(self):
        m = random_cmat()
        assert np.array_equal(sm.block4(*sm.disassemble(m)), m)

    def test_block_identity(self):
        ident = sm.disassemble(np.eye(4))
        out = sm.block_mul(ident, ident)
        assert sm.max_abs(out - np.eye(4)) == 0.0

    def test_eigenproblem_product(self):
        # m = c = 1, p = (0,0,1), E = 2: the two partitioned factors multiply
        # to (m^2 c^4 + c^2 p^2 - E^2) I = -2 I.
        p = np.array([0.0, 0.0, 1.0])
        first = sm.disassemble(d9_matrix(1.0, 1.0, p, 2.0))
        sg = sigma_dot(p)
        eye = np.eye(2)
        second = sm.disassemble(sm.block4((1.0 + 2.0) * eye, sg, sg, -(1.0 - 2.0) * eye))
        got = sm.block_mul(first, second)
        assert sm.max_abs(got - (-2.0) * np.eye(4)) <= 1e-14

    def test_matches_dense_product(self):
        for _ in range(50):
            x, y = random_cmat(), random_cmat()
            got = sm.block_mul(sm.disassemble(x), sm.disassemble(y))
            assert sm.max_abs(got - x @ y) <= 1e-13

    @pytest.mark.parametrize("kernel", [sm.disassemble, sm.schur_det, sm.schur_complement])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 2)], ids=["3x3", "4x2"])
    def test_rejects_non_4x4(self, kernel, shape):
        with pytest.raises(ValueError):
            kernel(np.eye(*shape))


class TestDagger:
    def test_identity(self):
        assert np.array_equal(sm.dagger(np.eye(4, dtype=complex)), np.eye(4))

    def test_sigma2_hermitian(self):
        assert np.array_equal(sm.dagger(SIGMA2), SIGMA2)

    def test_involution(self):
        m = random_cmat()
        assert np.array_equal(sm.dagger(sm.dagger(m)), m)

    def test_anti_homomorphism(self):
        x, y = random_cmat(), random_cmat()
        assert sm.max_abs(sm.dagger(x @ y) - sm.dagger(y) @ sm.dagger(x)) == 0.0


class TestDeterminants:
    def test_det4_identity(self):
        assert sm.det4(np.eye(4, dtype=complex)) == 1.0

    def test_det4_on_shell_vanishes(self):
        p = np.array([0.3, -0.4, 0.5])
        r = np.sqrt(np.dot(p, p) + 1.0)
        assert abs(sm.det4(d9_matrix(1.0, 1.0, p, r))) <= 1e-12

    def test_det4_rest_frame_frozen(self):
        # m = c = 1, p = 0, E = 2: det = (E^2 - m^2 c^4)^2 = 9,
        # cross-checked against the permutation-expansion oracle.
        m = d9_matrix(1.0, 1.0, np.zeros(3), 2.0)
        assert abs(sm.det4(m) - 9.0) <= 1e-12
        assert abs(perm_det(m) - 9.0) <= 1e-12

    def test_det4_against_permutation_oracle(self):
        for _ in range(20):
            m = random_cmat()
            assert abs(sm.det4(m) - perm_det(m)) <= 1e-11

    def test_det2(self):
        assert sm.det2(np.array([[1, 2], [3, 4]], dtype=complex)) == -2.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_det4_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs, rhs = sm.det4(x @ y), sm.det4(x) * sm.det4(y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestSchurDet:
    def test_trivial_blocks(self):
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        assert sm.schur_det(sm.block4(eye, zero, zero, eye)) == 1.0

    def test_eigenproblem_determinant(self):
        # Schur route on the plane-wave matrix: (E^2 - c^2 p^2 - m^2 c^4)^2.
        p = np.array([0.1, 0.7, -0.3])
        for e in (2.0, -1.5, 0.25):
            closed = (e**2 - np.dot(p, p) - 1.0) ** 2
            got = sm.schur_det(d9_matrix(1.0, 1.0, p, e))
            assert abs(got - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_matches_dense_determinant(self):
        for _ in range(50):
            a = random_cmat(2)
            c = 0.7 * a + 1.3 * np.eye(2)
            m = sm.block4(a, random_cmat(2), c, random_cmat(2))
            got = sm.schur_det(m)
            want = sm.det4(m)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_second_formula_route(self):
        # blocks where only CD = DC holds
        d = random_cmat(2)
        c = 0.4 * d + 0.9 * np.eye(2)
        m = sm.block4(random_cmat(2), random_cmat(2), c, d)
        got = sm.schur_det(m)
        want = sm.det4(m)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("scale", SCALES)
    def test_commuting_blocks_at_any_scale(self, scale):
        # AC = CA exactly; the commutator of the raw blocks rounds at scale^2 * eps
        rng = np.random.default_rng(7)
        a, b, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        m = sm.block4(scale * a, b, scale * (2.0 * a + np.eye(2)), d)
        want = sm.det4(m)
        assert abs(sm.schur_det(m) - want) <= 1e-14 * abs(want)

    def test_non_commuting_raises(self):
        b = random_cmat(2)
        for scale in SCALES:
            m = sm.block4(scale * SIGMA1, b, scale * SIGMA2, scale * SIGMA1 @ SIGMA2)
            with pytest.raises(ValueError, match="the Schur formulas do not apply"):
                sm.schur_det(m)


class TestBlockRank:
    """``schur_complement``, the matrix the ``block-rank`` check compares with its closed form."""

    P = np.array([0.3, -0.4, 0.5])
    R = np.sqrt(np.dot(P, P) + 1.0)

    def test_trivial_rank_two(self):
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        assert np.array_equal(sm.schur_complement(sm.block4(eye, zero, zero, zero)), zero)

    def test_on_shell_rank_two(self):
        # the solution-generating matrix has rank 2 exactly on shell, where the complement vanishes
        m = d9_matrix(1.0, 1.0, self.P, -self.R)
        assert sm.max_abs(sm.schur_complement(m)) <= 1e-15
        assert row_reduce_rank(m) == 2

    def test_off_shell_full_rank(self):
        # one unit below -R the complement is (2R + 1) / (R + 2) times the identity
        e = -self.R - 1.0
        closed = (e - self.R) * (e + self.R) / (1.0 - e)
        m = d9_matrix(1.0, 1.0, self.P, e)
        got = sm.schur_complement(m)
        assert got.shape == (2, 2) and got.dtype == np.complex128
        assert sm.max_abs(got - closed * np.eye(2)) <= 1e-15 * closed
        assert row_reduce_rank(m) == 4

    def test_singular_a_raises(self):
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="top-left block is singular"):
            sm.schur_complement(sm.block4(zero, np.eye(2), np.eye(2), zero))

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8])
    def test_singular_a_is_scale_free(self, scale):
        eye = np.eye(2)
        sm.schur_complement(sm.block4(scale * eye, eye, eye, eye))  # |det A| = scale^2
        with pytest.raises(ValueError, match="top-left block is singular"):
            sm.schur_complement(sm.block4(scale * np.ones((2, 2)), eye, eye, eye))

    def test_tiny_a_inverts_without_underflow(self):
        # det A = 1e-600 underflows; A^-1 = 1e300 I does not
        eye = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sm.schur_complement(sm.block4(1e-300 * eye, eye, eye, eye))
            assert sm.max_abs(got + 1e300 * eye) <= 1e-15 * 1e300
            rank_two = sm.schur_complement(sm.block4(1e-300 * eye, 1e-300 * eye, eye, eye))
            assert sm.max_abs(rank_two) <= 1e-15

    @pytest.mark.parametrize("scale", [1e-310, 1e300, 2.0**1023])
    def test_rank_two_at_extreme_scales_is_exact(self, scale):
        # A = B = scale I, C = D = I: C A^-1 B = I, formed without leaving the float range
        eye = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sm.schur_complement(sm.block4(scale * eye, scale * eye, eye, eye))
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_stack_mixing_scales_matches_single_calls(self):
        eye = np.eye(2)
        ms = [sm.block4(s * eye, s * eye, eye, eye) for s in (1e-310, 1.0, 1e300)]
        ms += [d9_matrix(1.0, 1.0, self.P, e) for e in (-self.R, -self.R - 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sm.schur_complement(np.stack(ms))
            assert got.shape == (5, 2, 2)
            for g, m in zip(got, ms):
                assert np.array_equal(g, sm.schur_complement(m))


class TestDivideByPowerOfTwo:
    def test_subnormal_divisor(self):
        # numpy's complex / real multiplies by 1/s, which is inf for this s
        x = np.array([1e-320 + 2e-320j, -3e-321j])
        s = sm.power_of_two_scale(x, 1)
        with np.errstate(all="raise"):
            got = sm.divide_by_power_of_two(x, s)
        assert np.array_equal(got * s, x)
        assert 0.5 <= sm.max_abs(got) < 1.0

    def test_matches_division_in_range(self):
        x = random_cmat()
        s = sm.power_of_two_scale(x)
        assert np.array_equal(sm.divide_by_power_of_two(x, s), x / s)
        assert np.array_equal(sm.divide_by_power_of_two(x.real, s), x.real / s)


class TestResidual:
    def test_largest_entry_deviation(self):
        lhs = np.array([[1.0, 2.0], [3.0, 4.0]])
        rhs = np.array([[1.0, 2.5], [2.0, 4.0]])
        assert sm.residual(lhs, rhs) == 1.0
        assert sm.residual(lhs, lhs) == 0.0

    def test_scale_divides(self):
        assert sm.residual(np.array([3.0, 1.0]), 0.0, 4.0) == 0.75
        # entry by entry: 2/4 and 1/0.5
        assert sm.residual(np.array([2.0, 1.0]), 0.0, np.array([4.0, 0.5])) == 2.0

    def test_complex_entries(self):
        # |(3 + 4i) - 0| = 5, |1j - 1| = sqrt(2)
        assert sm.residual(np.array([3 + 4j, 1j]), np.array([0.0, 1.0])) == 5.0
        assert sm.residual(np.array([1j]), np.array([1.0]), 2.0) == np.sqrt(2.0) / 2.0

    @pytest.mark.parametrize("slot", range(3))
    def test_nan_in_any_slot(self, slot):
        args = [np.array([1.0, 2.0]), np.array([1.0, 2.5]), 1.0]
        args[slot] = np.array([np.nan, 1.0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(sm.residual(*args))

    def test_empty_item_is_zero(self):
        assert sm.residual(np.zeros((0, 4, 4)), np.zeros((0, 4, 4))) == 0.0
        assert sm.residual(np.zeros(0), 0.0, 2.0) == 0.0
