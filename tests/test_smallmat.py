import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import smallmat as sm
from diracfree.errors import NonCommutingBlocks, SingularA
from diracfree.gamma import SIGMA1, SIGMA2, sigma_dot

from oracles import naive_matmul, perm_det, row_reduce_rank

RNG = np.random.default_rng(42)


def random_cmat(n=4):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def d9_matrix(m, c, p, e):
    """Plane-wave eigenproblem matrix [[ (mc^2-E), c s.p ], [ c s.p, -(mc^2+E) ]]."""
    sg = c * sigma_dot(p)
    eye = np.eye(2)
    return np.block([[(m * c**2 - e) * eye, sg], [sg, -(m * c**2 + e) * eye]])


class TestMatMul:
    def test_identity(self):
        m = random_cmat()
        assert sm.max_abs(sm.mat_mul(np.eye(4, dtype=complex), m) - m) == 0.0

    def test_pauli_square(self):
        assert sm.max_abs(sm.mat_mul(SIGMA1, SIGMA1) - np.eye(2)) == 0.0

    def test_against_triple_loop_oracle(self):
        for _ in range(20):
            x, y = random_cmat(), random_cmat()
            assert sm.max_abs(sm.mat_mul(x, y) - naive_matmul(x, y)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm.mat_mul(random_cmat(2), random_cmat(4))


class TestBlocks:
    def test_round_trip(self):
        m = random_cmat()
        assert np.array_equal(sm.assemble(sm.disassemble(m)), m)

    def test_block_identity(self):
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        ident = sm.Block2x2(eye, zero, zero, eye)
        out = sm.block_mul(ident, ident)
        assert sm.max_abs(sm.assemble(out) - np.eye(4)) == 0.0

    def test_eigenproblem_product(self):
        # m = c = 1, p = (0,0,1), E = 2: the two partitioned factors multiply
        # to (m^2 c^4 + c^2 p^2 - E^2) I = -2 I.
        p = np.array([0.0, 0.0, 1.0])
        first = sm.disassemble(d9_matrix(1.0, 1.0, p, 2.0))
        sg = sigma_dot(p)
        eye = np.eye(2)
        second = sm.Block2x2((1.0 + 2.0) * eye, sg, sg, -(1.0 - 2.0) * eye)
        got = sm.assemble(sm.block_mul(first, second))
        assert sm.max_abs(got - (-2.0) * np.eye(4)) <= 1e-14

    def test_matches_dense_product(self):
        for _ in range(50):
            x, y = random_cmat(), random_cmat()
            got = sm.assemble(sm.block_mul(sm.disassemble(x), sm.disassemble(y)))
            assert sm.max_abs(got - x @ y) <= 1e-13

    def test_bad_block_shape(self):
        with pytest.raises(ValueError):
            sm.Block2x2(np.eye(3), np.eye(2), np.eye(2), np.eye(2))


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
        assert sm.schur_det(sm.Block2x2(eye, zero, zero, eye)) == 1.0

    def test_eigenproblem_determinant(self):
        # Schur route on the plane-wave matrix: (E^2 - c^2 p^2 - m^2 c^4)^2.
        p = np.array([0.1, 0.7, -0.3])
        for e in (2.0, -1.5, 0.25):
            closed = (e**2 - np.dot(p, p) - 1.0) ** 2
            got = sm.schur_det(sm.disassemble(d9_matrix(1.0, 1.0, p, e)))
            assert abs(got - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_matches_dense_determinant(self):
        for _ in range(50):
            a = random_cmat(2)
            c = 0.7 * a + 1.3 * np.eye(2)
            blocks = sm.Block2x2(a, random_cmat(2), c, random_cmat(2))
            got = sm.schur_det(blocks)
            want = sm.det4(sm.assemble(blocks))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_second_formula_route(self):
        # blocks where only CD = DC holds
        d = random_cmat(2)
        c = 0.4 * d + 0.9 * np.eye(2)
        blocks = sm.Block2x2(random_cmat(2), random_cmat(2), c, d)
        got = sm.schur_det(blocks)
        want = sm.det4(sm.assemble(blocks))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_non_commuting_raises(self):
        blocks = sm.Block2x2(SIGMA1, random_cmat(2), SIGMA2, SIGMA1 @ SIGMA2)
        with pytest.raises(NonCommutingBlocks):
            sm.schur_det(blocks)


class TestBlockRank:
    def test_trivial_rank_two(self):
        eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        assert sm.block_rank_is_n(sm.Block2x2(eye, zero, zero, zero))

    def test_on_shell_rank_two(self):
        # the solution-generating matrix has rank 2 exactly on shell
        p = np.array([0.3, -0.4, 0.5])
        r = np.sqrt(np.dot(p, p) + 1.0)
        sg = sigma_dot(p)
        eye = np.eye(2)
        blocks = sm.Block2x2((1.0 + r) * eye, sg, sg, -(1.0 - r) * eye)
        assert sm.block_rank_is_n(blocks)
        assert row_reduce_rank(sm.assemble(blocks)) == 2

    def test_off_shell_full_rank(self):
        p = np.array([0.3, -0.4, 0.5])
        r = np.sqrt(np.dot(p, p) + 1.0) + 1.0
        sg = sigma_dot(p)
        eye = np.eye(2)
        blocks = sm.Block2x2((1.0 + r) * eye, sg, sg, -(1.0 - r) * eye)
        assert not sm.block_rank_is_n(blocks)
        assert row_reduce_rank(sm.assemble(blocks)) == 4

    def test_singular_a_raises(self):
        zero = np.zeros((2, 2), dtype=complex)
        with pytest.raises(SingularA):
            sm.block_rank_is_n(sm.Block2x2(zero, np.eye(2), np.eye(2), zero))

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8])
    def test_singular_a_is_scale_free(self, scale):
        eye = np.eye(2)
        sm.block_rank_is_n(sm.Block2x2(scale * eye, eye, eye, eye))  # |det A| = scale^2
        with pytest.raises(SingularA):
            sm.block_rank_is_n(sm.Block2x2(scale * np.ones((2, 2)), eye, eye, eye))

    def test_tiny_a_inverts_without_underflow(self):
        # det A = 1e-600 underflows; A^-1 = 1e300 I does not
        eye = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not sm.block_rank_is_n(sm.Block2x2(1e-300 * eye, eye, eye, eye))
            assert sm.block_rank_is_n(sm.Block2x2(1e-300 * eye, 1e-300 * eye, eye, eye))
