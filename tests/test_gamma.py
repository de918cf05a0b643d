import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import gamma as ga
from diracfree.kinematics import EnergyBranch, FourVector, MomentumState
from diracfree.smallmat import dagger, max_abs

finite = st.floats(-5.0, 5.0)


class TestPauli:
    def test_hermitian_and_involutive(self):
        for s in ga.PAULI:
            assert max_abs(s - dagger(s)) == 0.0
            assert max_abs(s @ s - np.eye(2)) == 0.0

    def test_commutators(self):
        for q in range(3):
            for r in range(3):
                target = sum(
                    2j * ga.levi_civita(q + 1, r + 1, s + 1) * ga.PAULI[s]
                    for s in range(3)
                )
                assert max_abs(ga.commutator(ga.PAULI[q], ga.PAULI[r]) - target) == 0.0

    def test_sigma1_sigma2(self):
        assert max_abs(ga.commutator(ga.PAULI[0], ga.PAULI[1]) - 2j * ga.PAULI[2]) == 0.0


class TestLeviCivita:
    def test_values(self):
        assert ga.levi_civita(1, 2, 3) == 1
        assert ga.levi_civita(2, 1, 3) == -1
        assert ga.levi_civita(1, 1, 3) == 0

    def test_total_antisymmetry(self):
        for q in (1, 2, 3):
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    assert ga.levi_civita(q, r, s) == -ga.levi_civita(r, q, s)
                    assert ga.levi_civita(q, r, s) == -ga.levi_civita(q, s, r)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="Levi-Civita indices must be 1, 2, or 3"):
            ga.levi_civita(0, 1, 2)


class TestDiracMatrices:
    def test_alpha_beta_hermitian(self):
        for m in ga.ALPHA + (ga.BETA,):
            assert max_abs(m - dagger(m)) == 0.0

    def test_anticommutators(self):
        for r in range(3):
            for s in range(3):
                target = 2.0 * (r == s) * np.eye(4)
                assert max_abs(ga.anticommutator(ga.ALPHA[r], ga.ALPHA[s]) - target) == 0.0
            assert max_abs(ga.anticommutator(ga.ALPHA[r], ga.BETA)) == 0.0
        assert max_abs(ga.BETA @ ga.BETA - np.eye(4)) == 0.0

    def test_clifford_table_exact(self):
        for mu in range(4):
            for nu in range(4):
                got = ga.anticommutator(ga.GAMMA[mu], ga.GAMMA[nu])
                assert max_abs(got - 2.0 * ga.METRIC[mu, nu] * np.eye(4)) == 0.0

    def test_gamma5(self):
        block = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert max_abs(ga.GAMMA5 - block) == 0.0
        assert max_abs(ga.GAMMA5_LOWER + ga.GAMMA5) == 0.0
        for mu in range(4):
            assert max_abs(ga.anticommutator(ga.GAMMA[mu], ga.GAMMA5)) == 0.0

    def test_spin_from_alpha_gamma5(self):
        for q in range(3):
            assert max_abs(ga.SPIN[q] - ga.ALPHA[q] @ ga.GAMMA5) == 0.0
            assert max_abs(ga.SPIN[q] - dagger(ga.SPIN[q])) == 0.0
            assert max_abs(ga.SPIN[q] @ ga.SPIN[q] - np.eye(4)) == 0.0

    def test_spin_commutators(self):
        for r in range(3):
            for q in range(3):
                target = sum(
                    2j * ga.levi_civita(r + 1, q + 1, s + 1) * ga.ALPHA[s]
                    for s in range(3)
                )
                assert max_abs(ga.commutator(ga.ALPHA[r], ga.SPIN[q]) - target) == 0.0
        for q in range(3):
            assert max_abs(ga.commutator(ga.BETA, ga.SPIN[q])) == 0.0


class TestContractions:
    def test_sigma_dot_axis(self):
        assert max_abs(ga.sigma_dot([0, 0, 1]) - ga.PAULI[2]) == 0.0

    @given(finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_sigma_dot_square(self, x, y, z):
        v = np.array([x, y, z])
        got = ga.sigma_dot(v) @ ga.sigma_dot(v)
        assert max_abs(got - np.dot(v, v) * np.eye(2)) <= 1e-12

    @given(finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_alpha_dot_square(self, x, y, z):
        v = np.array([x, y, z])
        got = ga.alpha_dot(v) @ ga.alpha_dot(v)
        assert max_abs(got - np.dot(v, v) * np.eye(4)) <= 1e-12

    def test_gamma_slash_time_axis(self):
        assert max_abs(ga.gamma_slash(FourVector(1.0)) - ga.GAMMA0) == 0.0

    def test_slash_square_on_shell(self):
        state = MomentumState(1.0, np.array([0.5, -1.0, 2.0]))
        p4 = state.momentum_four_vector(EnergyBranch.POSITIVE)
        got = ga.gamma_slash(p4) @ ga.gamma_slash(p4)
        assert max_abs(got - (state.m * state.c) ** 2 * np.eye(4)) <= 1e-12

    def test_accepts_four_vector(self):
        a = FourVector(0.5, np.array([1.0, 2.0, 3.0]))
        want = 0.5 * ga.GAMMA0 - 1.0 * ga.GAMMA[1] - 2.0 * ga.GAMMA[2] - 3.0 * ga.GAMMA[3]
        assert max_abs(ga.gamma_slash(a) - want) == 0.0


class TestHamiltonian:
    def test_rest_frame_is_beta(self):
        state = MomentumState(1.0, np.zeros(3))
        assert max_abs(ga.hamiltonian(state) - ga.BETA) == 0.0

    def test_square_frozen(self):
        state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]))
        h = ga.hamiltonian(state)
        assert max_abs(h @ h - 2.0 * np.eye(4)) <= 1e-15

    def test_square_general(self):
        state = MomentumState(1.3, np.array([0.2, 2.0, -0.7]))
        h = ga.hamiltonian(state)
        assert max_abs(h @ h - state.R**2 * np.eye(4)) <= 1e-12

    def test_spin_commutator_cross_product(self):
        state = MomentumState(1.0, np.array([0.4, -0.2, 0.9]))
        h = ga.hamiltonian(state)
        basis = np.eye(3)
        for q in range(3):
            target = 2j * state.c * ga.alpha_dot(np.cross(state.p, basis[q]))
            assert max_abs(ga.commutator(h, ga.SPIN[q]) - target) <= 1e-13


class TestHelicityOperator:
    def test_axis_momentum(self):
        state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]))
        target = 0.5 * np.diag([1.0, -1.0, 1.0, -1.0])
        assert max_abs(ga.helicity_operator(state) - target) == 0.0

    def test_commutes_with_hamiltonian(self):
        state = MomentumState(1.0, np.array([1.1, -0.3, 0.4]))
        got = ga.commutator(ga.hamiltonian(state), ga.helicity_operator(state))
        assert max_abs(got) <= 1e-13

    def test_rest_frame_rejected(self):
        with pytest.raises(ValueError, match="helicity is undefined at rest"):
            ga.helicity_operator(MomentumState(1.0, np.zeros(3)))
