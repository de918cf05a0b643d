import math

import numpy as np
import pytest

from diracfree import density as de
from diracfree import observables as ob
from diracfree import spinors as sp
from diracfree.gamma import ALPHA, GAMMA5_LOWER, SPIN, gamma_slash
from diracfree.kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    direction,
    from_eta,
    minkowski_dot,
    momentum_axis,
)
from diracfree.smallmat import block_mul, disassemble, max_abs

from scalar_sweep import _rank_one_minus, _rank_one_plus

POS, NEG = EnergyBranch.POSITIVE, EnergyBranch.NEGATIVE
PLUS, MINUS = sp.Helicity.PLUS, sp.Helicity.MINUS
RNG = np.random.default_rng(23)


def eta_state(eta, theta=0.8, phi=2.1):
    return from_eta(1.0, 1.0, eta, PolarAngles(theta, phi))


class TestNonrelDensity:
    def test_axis_plus(self):
        rho = de.nonrel_density(PLUS, np.array([0.0, 0.0, 1.0]))
        assert max_abs(rho - np.diag([1.0, 0.0])) == 0.0

    def test_pure_state_properties(self):
        n = np.array([0.6, 0.64, 0.48])
        for lam in (PLUS, MINUS):
            rho = de.nonrel_density(lam, n)
            assert abs(float(np.trace(rho).real) - 1.0) <= 1e-15
            assert max_abs(rho @ rho - rho) <= 1e-15
            assert max_abs(rho - rho.conj().T) <= 1e-15

    def test_outer_product_route(self):
        ang = PolarAngles(1.7, 0.456)
        n = direction(ang)
        for lam in (PLUS, MINUS):
            phi = sp.helicity_spinor(lam, ang)
            assert max_abs(
                np.outer(phi, np.conj(phi)) - de.nonrel_density(lam, n)
            ) <= 1e-15

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="polarization direction must be a unit vector"):
            de.nonrel_density(PLUS, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("n", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
    def test_non_finite_rejected(self, n):
        with pytest.raises(ValueError, match="polarization direction must be a unit vector"):
            de.nonrel_density(PLUS, np.array(n))


class TestEnergyProjectors:
    def test_sum_and_products(self):
        state = eta_state(0.73, 1.9, 5.8)
        mc2 = 2.0 * state.m * state.c
        plus = de.energy_projector(state, POS)
        minus = de.energy_projector(state, NEG)
        assert max_abs(plus + minus - mc2 * np.eye(4)) <= 1e-13
        assert max_abs(plus @ minus) <= 1e-12
        assert max_abs(plus @ plus - mc2 * plus) <= 1e-12
        assert max_abs(minus @ minus - mc2 * minus) <= 1e-12

    def test_outer_product_sums(self):
        ang = PolarAngles(0.66, 1.2)
        state = from_eta(1.0, 1.0, 0.5, ang)
        for branch in (POS, NEG):
            total = sum(
                de.outer_with_adjoint(
                    sp.bispinor_block(
                        sp.helicity_spinor(lam, ang), state, branch,
                        sp.Normalization.INVARIANT_2MC,
                    )
                )
                for lam in (PLUS, MINUS)
            )
            target = branch.sign * de.energy_projector(state, branch)
            assert max_abs(total - target) <= 1e-12

    def test_annihilates_dirac_solutions(self):
        state = eta_state(0.41)
        ang = PolarAngles(0.8, 2.1)
        u = sp.bispinor_block(sp.helicity_spinor(PLUS, ang), state, POS)
        minus = de.energy_projector(state, NEG)
        assert max_abs(minus @ u) <= 1e-12


class TestDensity4:
    def test_trace(self):
        state = eta_state(0.52)
        n = state.p / state.p_abs
        for branch in (POS, NEG):
            for lam in (PLUS, MINUS):
                rho = de.density4(state, branch, lam, n)
                assert abs(complex(np.trace(rho)) - 2.0 * state.m * state.c) <= 1e-12

    @pytest.mark.parametrize("branch", [POS, NEG])
    @pytest.mark.parametrize("lam", [PLUS, MINUS])
    def test_closed_equals_outer(self, branch, lam):
        state = eta_state(0.68, 2.4, 0.5)
        n_parallel = state.p / state.p_abs
        skew = np.array([0.36, -0.48, 0.8])
        for n in (n_parallel, skew / np.linalg.norm(skew)):
            closed = de.density4(state, branch, lam, n)
            outer = de.density4_outer(state, branch, lam, n)
            assert max_abs(closed - outer) <= 1e-12

    def test_lambda_sum_restores_projector(self):
        state = eta_state(0.3, 1.0, 1.0)
        n = state.p / state.p_abs
        for branch in (POS, NEG):
            total = sum(de.density4(state, branch, lam, n) for lam in (PLUS, MINUS))
            assert max_abs(total - de.energy_projector(state, branch)) <= 1e-12

    def test_half_eta_explicit_plus(self):
        # eta = 1/2, helicity +1/2, positive branch: the outer product of the
        # eta column (box prefactor removed) equals the explicit matrix
        eta, theta, phi = 0.5, 1.23, 0.77
        raw = sp.eta_bispinor(PLUS, POS, eta, PolarAngles(theta, phi), 1.0)
        raw = raw * math.sqrt(1 + eta**2)
        got = (1 - eta**2) * de.outer_with_adjoint(raw)
        assert max_abs(got - _rank_one_plus(eta, PolarAngles(theta, phi))) <= 1e-12

    def test_half_eta_explicit_minus(self):
        eta, theta, phi = 0.5, 1.23, 0.77
        raw = sp.eta_bispinor(MINUS, NEG, eta, PolarAngles(theta, phi), 1.0)
        raw = raw * math.sqrt(1 + eta**2)
        got = (1 - eta**2) * de.outer_with_adjoint(raw)
        assert max_abs(got - _rank_one_minus(eta, PolarAngles(theta, phi))) <= 1e-12

    def test_explicit_matrices_from_closed_form(self):
        # the closed-form density matrix reproduces the same explicit
        # matrices through (1-eta^2)^2 / (2mc) scaling
        eta, theta, phi = 0.5, 0.31, 4.4
        state = eta_state(eta, theta, phi)
        scale = (1 - eta**2) ** 2 / (2.0 * state.m * state.c)
        n = state.p / state.p_abs
        got_p = scale * de.density4(state, POS, PLUS, n)
        assert max_abs(got_p - _rank_one_plus(eta, PolarAngles(theta, phi))) <= 1e-12
        got_m = -scale * de.density4(state, NEG, MINUS, n)
        assert max_abs(got_m - _rank_one_minus(eta, PolarAngles(theta, phi))) <= 1e-12

    def test_non_unit_rejected(self):
        state = eta_state(0.5)
        with pytest.raises(ValueError, match="polarization direction must be a unit vector"):
            de.density4(state, POS, PLUS, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("n", [[math.nan, 0.0, 1.0], [0.0, -math.inf, 0.0]])
    def test_non_finite_rejected(self, n):
        with pytest.raises(ValueError, match="polarization direction must be a unit vector"):
            de.density4(eta_state(0.5), POS, PLUS, np.array(n))


class TestBlockFactorization:
    def test_positive_branch_structure(self):
        eta, ang = 0.37, PolarAngles(1.9, 0.3)
        n = direction(ang)
        a, b, c, d = disassemble(de.density_block_form(eta, ang, POS, PLUS))
        rho = de.nonrel_density(PLUS, n)
        assert max_abs(a - rho) <= 1e-13
        assert max_abs(b + eta * rho) <= 1e-13
        assert max_abs(c - eta * rho) <= 1e-13
        assert max_abs(d + eta**2 * rho) <= 1e-13

    def test_negative_branch_structure(self):
        eta, ang = 0.37, PolarAngles(1.9, 0.3)
        n = direction(ang)
        a, b, c, d = disassemble(de.density_block_form(eta, ang, NEG, MINUS))
        rho = de.nonrel_density(PLUS, n)  # opposite two-spinor label
        assert max_abs(a - eta**2 * rho) <= 1e-13
        assert max_abs(b + eta * rho) <= 1e-13
        assert max_abs(c - eta * rho) <= 1e-13
        assert max_abs(d + rho) <= 1e-13

    @pytest.mark.parametrize("m", [1.0, 3.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 137.0])
    def test_matches_state_route(self, m, c):
        # the 2mc-normalized block solution of the state with that eta, at
        # mass m and speed of light c: the result is scale-free, so the two
        # routes agree to rounding, which the state's
        # |p| = 2 m c eta / (1 - eta^2) amplifies by 1/(1 - eta^2)
        theta, phi = np.meshgrid(np.linspace(0.0, math.pi, 5), np.linspace(0.0, 6.0, 4))
        ang = PolarAngles(theta.ravel(), phi.ravel())
        for eta in (0.0, 1e-8, 0.2, 0.5, 0.9, 0.99):
            state = from_eta(m, c, eta, ang)
            for branch in (POS, NEG):
                for lam in (PLUS, MINUS):
                    u = sp.helicity_bispinor(lam, branch, ang, state, sp.Normalization.INVARIANT_2MC)
                    scale = branch.sign * (1.0 - eta**2) / ob.adjoint_norm(u)
                    via_state = scale[:, None, None] * de.outer_with_adjoint(u)
                    got = de.density_block_form(eta, ang, branch, lam)
                    bound = 16 * np.finfo(float).eps / (1.0 - eta**2)
                    assert max_abs(got - via_state) <= bound, (eta, branch, lam)

    def test_rest_limit(self):
        ang = PolarAngles(0.5, 0.5)
        a, *others = disassemble(de.density_block_form(0.0, ang, POS, MINUS))
        rho = de.nonrel_density(MINUS, direction(ang))
        assert max_abs(a - rho) <= 1e-14
        for off in others:
            assert max_abs(off) <= 1e-14


class TestSigmaTensor:
    def test_table(self):
        assert max_abs(de.sigma_tensor(0, 1) - ALPHA[0]) == 0.0
        assert max_abs(de.sigma_tensor(0, 2) - ALPHA[1]) == 0.0
        assert max_abs(de.sigma_tensor(0, 3) - ALPHA[2]) == 0.0
        assert max_abs(de.sigma_tensor(1, 2) + 1j * SPIN[2]) == 0.0
        assert max_abs(de.sigma_tensor(1, 3) - 1j * SPIN[1]) == 0.0
        assert max_abs(de.sigma_tensor(2, 3) + 1j * SPIN[0]) == 0.0

    def test_antisymmetry(self):
        for mu in range(4):
            assert max_abs(de.sigma_tensor(mu, mu)) == 0.0
            for nu in range(4):
                assert max_abs(de.sigma_tensor(mu, nu) + de.sigma_tensor(nu, mu)) == 0.0

    def test_index_range(self):
        with pytest.raises(ValueError, match=r"tensor indices must lie in 0\.\.3"):
            de.sigma_tensor(4, 0)


class TestSlashPair:
    def test_component_formula(self):
        state = eta_state(0.58, 0.4, 3.3)
        n = np.array([0.8, 0.0, 0.6])
        a = ob.polarization_four_vector(state, n)
        p4 = state.momentum_four_vector(POS)
        assert max_abs(de.slash_pair(p4, a) - de.slash_pair_components(p4, a)) <= 1e-12

    def test_gamma5_exchange(self):
        state = eta_state(0.58, 0.4, 3.3)
        n = np.array([0.0, 0.6, 0.8])
        a = ob.polarization_four_vector(state, n)
        p4 = state.momentum_four_vector(POS)
        assert abs(minkowski_dot(p4, a)) <= 1e-12 * state.R
        lhs = gamma_slash(p4) @ GAMMA5_LOWER @ gamma_slash(a)
        rhs = -GAMMA5_LOWER @ de.slash_pair(p4, a)
        assert max_abs(lhs - rhs) <= 1e-12


def decomposition_mismatch(state, branch, lam):
    """Projector times polarizer against its covariant expansion and its block product."""
    a = ob.polarization_four_vector(state, lam.sign * momentum_axis(state))
    projector, polarizer = de.energy_projector(state, branch), de.polarizer(a)
    product = projector @ polarizer
    blocks = block_mul(disassemble(projector), disassemble(polarizer))
    return max(
        max_abs(product - de.covariant_decomposition(state, branch, a)),
        max_abs(blocks - product),
    )


class TestCovariantIdentity:
    @pytest.mark.parametrize("branch", [POS, NEG])
    @pytest.mark.parametrize("lam", [PLUS, MINUS])
    def test_moving_states(self, branch, lam):
        for eta in (0.15, 0.5, 0.88):
            state = eta_state(eta, 1.1, 2.2)
            assert decomposition_mismatch(state, branch, lam) <= 1e-12

    def test_rest_state(self):
        state = MomentumState(1.0, np.zeros(3))
        assert decomposition_mismatch(state, POS, PLUS) <= 1e-13

    def test_parallel_polarization_components(self):
        eta = 0.64
        state = eta_state(eta, 2.0, 1.0)
        n = state.p / state.p_abs
        a = ob.polarization_four_vector(state, n)
        assert abs(a.t - 2.0 * eta / (1.0 - eta**2)) <= 1e-12
        assert max_abs(a.r - (1.0 + eta**2) / (1.0 - eta**2) * n) <= 1e-12
