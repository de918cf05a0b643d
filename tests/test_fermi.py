import numpy as np
import pytest

from diracfree import fermi as fe
from diracfree.gamma import ALPHA, BETA, SPIN, anticommutator, hamiltonian
from diracfree.kinematics import MomentumState
from diracfree.smallmat import det4, max_abs
from diracfree.verify import GridSpec

from oracles import perm_det, row_reduce_rank


def moving_state(p=(0.3, -0.7, 1.1), m=1.0, c=1.0):
    return MomentumState(m, np.array(p, dtype=float), c)


class TestOriginalBispinors:
    def test_third_bispinor_has_positive_energy(self):
        # the audited claim: H u(3) = +R u(3), not -R
        state = moving_state()
        h = hamiltonian(state)
        u3 = fe.fermi_bispinors_original(state)[2]
        assert max_abs(h @ u3 - state.R * u3) <= 1e-13
        assert max_abs(h @ u3 + state.R * u3) > 1.0

    def test_all_four_positive_energy(self):
        state = moving_state((1.5, 0.2, -0.4), m=2.0, c=1.5)
        h = hamiltonian(state)
        for u in fe.fermi_bispinors_original(state):
            assert max_abs(h @ u - state.R * u) <= 1e-12

    def test_first_bispinor_is_correct(self):
        state = moving_state()
        u1_original = fe.fermi_bispinors_original(state)[0]
        u1_corrected = fe.fermi_bispinors_corrected(state)[0]
        assert max_abs(u1_original - u1_corrected) <= 1e-15

    def test_first_pair_is_the_corrected_pair(self):
        grid = GridSpec(mass=3, c=0.5, theta_count=5, phi_count=7)
        state = grid.states(0.6, grid.angle_stack())
        original = fe.fermi_bispinors_original(state)[:2]
        corrected = fe.fermi_bispinors_corrected(state)[:2]
        assert all(np.array_equal(u, v) for u, v in zip(original, corrected))

    def test_linearly_dependent(self):
        state = moving_state()
        stacked = np.column_stack(fe.fermi_bispinors_original(state))
        assert abs(det4(stacked)) <= 1e-10
        assert abs(perm_det(stacked)) <= 1e-10
        assert row_reduce_rank(stacked, tol=1e-8) < 4

    def test_rest_frame_rejected(self):
        with pytest.raises(ValueError, match="the original set is singular at p = 0"):
            fe.fermi_bispinors_original(MomentumState(1.0, np.zeros(3)))


class TestCorrectedBispinors:
    def test_energy_pattern(self):
        state = moving_state()
        h = hamiltonian(state)
        columns = fe.fermi_bispinors_corrected(state)
        for u, e in zip(columns, (state.R, state.R, -state.R, -state.R)):
            assert max_abs(h @ u - e * u) <= 1e-12

    def test_unimodular(self):
        state = moving_state()
        stacked = np.column_stack(fe.fermi_bispinors_corrected(state))
        assert abs(abs(det4(stacked)) - 1.0) <= 1e-12

    def test_rest_frame_defined(self):
        columns = fe.fermi_bispinors_corrected(MomentumState(1.0, np.zeros(3)))
        stacked = np.column_stack(columns)
        assert max_abs(stacked - np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0


class TestProjectors:
    def test_complementary(self):
        pr = fe.fermi_projectors(moving_state())
        assert max_abs(pr.P + pr.N - np.eye(4)) <= 1e-15

    def test_idempotent_orthogonal(self):
        pr = fe.fermi_projectors(moving_state())
        assert max_abs(pr.P @ pr.P - pr.P) <= 1e-13
        assert max_abs(pr.N @ pr.N - pr.N) <= 1e-13
        assert max_abs(pr.P @ pr.N) <= 1e-13

    def test_selects_corrected_pairs(self):
        state = moving_state()
        pr = fe.fermi_projectors(state)
        u1, u2, u3, u4 = fe.fermi_bispinors_corrected(state)
        for u in (u1, u2):
            assert max_abs(pr.P @ u - u) <= 1e-13
            assert max_abs(pr.N @ u) <= 1e-13
        for u in (u3, u4):
            assert max_abs(pr.N @ u - u) <= 1e-13
            assert max_abs(pr.P @ u) <= 1e-13

    def test_closed_form(self):
        state = moving_state()
        pr = fe.fermi_projectors(state)
        h = hamiltonian(state)
        assert max_abs(pr.P - (state.R * np.eye(4) + h) / (2.0 * state.R)) <= 1e-14


class TestVariantGammas:
    def test_squares_and_anticommutation(self):
        gammas = fe.fermi_gamma_set()
        for i, g1 in enumerate(gammas):
            assert max_abs(g1 @ g1 - np.eye(4)) == 0.0
            for g2 in gammas[i + 1:]:
                assert max_abs(anticommutator(g1, g2)) == 0.0

    def test_alpha_relation(self):
        g1, g2, g3, g4 = fe.fermi_gamma_set()
        assert max_abs(g4 - BETA) == 0.0
        for alpha, g in zip(ALPHA, (g1, g2, g3)):
            assert max_abs(alpha - 1j * BETA @ g) == 0.0

    def test_eigenvalue_pattern(self):
        # +1 twice and -1 twice: trace 0, trace of square 4, det 1
        seven = (fe.FERMI_GAMMA4,) + tuple(ALPHA) + fe.fermi_gamma_set()[:3]
        for m in seven:
            assert abs(complex(np.trace(m))) == 0.0
            assert abs(complex(np.trace(m @ m)) - 4.0) == 0.0
            assert abs(det4(m) - 1.0) <= 1e-15


class TestSigmaPrimes:
    def test_z_component_explicit(self):
        _, _, sz = fe.fermi_sigma_primes()
        assert max_abs(sz - np.diag([1.0, -1.0, 1.0, -1.0])) == 0.0

    def test_equals_spin_set(self):
        for prime, spin in zip(fe.fermi_sigma_primes(), SPIN):
            assert max_abs(prime - spin) == 0.0
