import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import spinors as sp
from diracfree.gamma import hamiltonian, helicity_operator, sigma_dot
from diracfree.kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    angles_of,
    from_eta,
    mirrored,
    rapidity,
)
from diracfree.observables import adjoint_norm
from diracfree.smallmat import dagger, det4, max_abs

from oracles import perm_det

POS, NEG = EnergyBranch.POSITIVE, EnergyBranch.NEGATIVE
PLUS, MINUS = sp.Helicity.PLUS, sp.Helicity.MINUS

RNG = np.random.default_rng(7)


def random_state(rng=RNG, m=1.0, c=1.0):
    eta = float(rng.uniform(0.05, 0.9))
    ang = PolarAngles(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 6.28)))
    return from_eta(m, c, eta, ang)


def random_unit_spinor(rng=RNG):
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return phi / math.sqrt(float(np.vdot(phi, phi).real))


def dirac_deviation(u, state, branch):
    """H(p) u - R u on the positive branch, H(-p) u + R u on the negative one.

    Each branch's Hamiltonian takes the momentum its plane wave carries; a
    stacked state and spinor give one deviation per element.
    """
    moving = MomentumState(state.m, branch.sign * state.p, state.c)
    return np.matvec(hamiltonian(moving), u) - (branch.sign * state.R)[..., None] * u


class TestHelicitySpinors:
    def test_north_pole_values(self):
        assert max_abs(sp.helicity_spinor(PLUS, PolarAngles(0, 0)) - [1, 0]) == 0.0
        assert max_abs(sp.helicity_spinor(MINUS, PolarAngles(0, 0)) - [0, 1]) == 0.0

    def test_eigenvalue_equation(self):
        for ang in (PolarAngles(0.4, 1.0), PolarAngles(2.8, 5.5), PolarAngles(math.pi, 0.0)):
            n = np.array(
                [math.sin(ang.theta) * math.cos(ang.phi),
                 math.sin(ang.theta) * math.sin(ang.phi),
                 math.cos(ang.theta)]
            )
            for lam in (PLUS, MINUS):
                phi = sp.helicity_spinor(lam, ang)
                assert max_abs(sigma_dot(n) @ phi - lam.sign * phi) <= 1e-15
                assert abs(np.vdot(phi, phi).real - 1.0) <= 1e-15
                assert lam.flipped.sign == -lam.sign

    def test_column_matrices_at_origin(self):
        assert max_abs(sp.phi_matrix(PolarAngles(0, 0)) - np.eye(2)) == 0.0
        assert max_abs(sp.phi_tilde_matrix(PolarAngles(0, 0)) - np.diag([1.0, -1.0])) == 0.0

    @given(st.floats(0.0, math.pi), st.floats(0.0, 6.28))
    @settings(max_examples=60, deadline=None)
    def test_factorization_properties(self, theta, phi):
        ang = PolarAngles(theta, phi)
        n = np.array(
            [math.sin(theta) * math.cos(ang.phi),
             math.sin(theta) * math.sin(ang.phi),
             math.cos(theta)]
        )
        pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
        sn = sigma_dot(n)
        assert max_abs(pm @ dagger(pm) - np.eye(2)) <= 1e-15
        assert max_abs(pt @ dagger(pt) - np.eye(2)) <= 1e-15
        assert max_abs(pt @ dagger(pm) - sn) <= 1e-15
        assert max_abs(pm @ dagger(pt) - sn) <= 1e-15
        assert max_abs(sn @ pm - pt) <= 1e-15
        assert max_abs(sn @ pt - pm) <= 1e-15

    def test_completeness(self):
        ang = PolarAngles(1.234, 4.321)
        total = sum(
            np.outer(sp.helicity_spinor(lam, ang), np.conj(sp.helicity_spinor(lam, ang)))
            for lam in (PLUS, MINUS)
        )
        assert max_abs(total - np.eye(2)) <= 1e-15


class TestSpinBasisMatrix:
    def test_rest_frame(self):
        u = sp.spin_basis_matrix(MomentumState(1.0, np.zeros(3)))
        assert max_abs(u - np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_frozen_first_column(self):
        # m = c = 1, p = (0, 0, 1): first column sqrt((1+rt2)/(2 rt2)) * (1, 0, 1/(1+rt2), 0)
        u = sp.spin_basis_matrix(MomentumState(1.0, np.array([0.0, 0.0, 1.0])))
        rt2 = math.sqrt(2.0)
        expect = math.sqrt((1 + rt2) / (2 * rt2)) * np.array([1, 0, 1 / (1 + rt2), 0])
        assert max_abs(u[:, 0] - expect) <= 1e-15

    def test_eigenvectors(self):
        state = random_state()
        h = hamiltonian(state)
        u = sp.spin_basis_matrix(state)
        for k, e in enumerate((state.R, state.R, -state.R, -state.R)):
            assert max_abs(h @ u[:, k] - e * u[:, k]) <= 1e-12

    def test_hermitian_involutive_unimodular(self):
        state = random_state()
        u = sp.spin_basis_matrix(state)
        assert max_abs(u - dagger(u)) <= 1e-15
        assert max_abs(u @ u - np.eye(4)) <= 1e-14
        assert abs(abs(det4(u)) - 1.0) <= 1e-13

    def test_nonrelativistic_limit(self):
        rest = np.diag([1.0, 1.0, -1.0, -1.0])
        deficits = []
        for c in (10.0, 100.0, 1000.0):
            state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]), c)
            deficit = max_abs(sp.spin_basis_matrix(state) - rest)
            assert deficit <= 3.0 / c
            deficits.append(deficit)
        assert deficits[0] > deficits[1] > deficits[2]


class TestBispinorBlock:
    def test_rest_frame_upper_block(self):
        state = MomentumState(1.0, np.zeros(3))
        phi = np.array([0.6, 0.8j])
        u = sp.bispinor_block(phi, state, POS, sp.Normalization.UNIT)
        assert max_abs(u[2:]) == 0.0
        assert max_abs(u[:2] - phi) <= 1e-15

    def test_invariant_unit_norm(self):
        state = random_state()
        u = sp.bispinor_block(random_unit_spinor(), state, POS, sp.Normalization.INVARIANT_UNIT)
        assert abs(adjoint_norm(u) - 1.0) <= 1e-13

    def test_invariant_2mc_norms(self):
        state = random_state(m=1.4, c=2.0)
        target = 2.0 * state.m * state.c
        u = sp.bispinor_block(random_unit_spinor(), state, POS, sp.Normalization.INVARIANT_2MC)
        v = sp.bispinor_block(random_unit_spinor(), state, NEG, sp.Normalization.INVARIANT_2MC)
        assert abs(adjoint_norm(u) - target) <= 1e-12
        assert abs(adjoint_norm(v) + target) <= 1e-12

    def test_box_norm(self):
        state = random_state()
        u = sp.bispinor_block(
            random_unit_spinor(), state, POS, sp.Normalization.BOX, volume=3.0
        )
        assert abs(float(np.vdot(u, u).real) - 1.0 / 3.0) <= 1e-13

    @pytest.mark.parametrize("p", [1e3, 1e8, 1e20])
    def test_invariant_norm_at_large_momentum(self, p):
        # (1, 0, 0, k)/sqrt(1 - k^2), k = p/(1 + R): 1 - k^2 cancels in float64
        with decimal.localcontext(prec=60):
            k = Decimal(p) / (1 + (Decimal(p) ** 2 + 1).sqrt())
            scale = 1 / (1 - k * k).sqrt()
            want = np.array([float(scale), 0.0, 0.0, float(k * scale)])
        state = MomentumState(1.0, [p, 0.0, 0.0])
        u = sp.bispinor_block(np.array([1.0, 0.0]), state, POS, sp.Normalization.INVARIANT_UNIT)
        assert max_abs(u - want) <= 4 * np.finfo(float).eps * max_abs(want)

    def test_box_requires_volume(self):
        state = random_state()
        with pytest.raises(ValueError, match="box normalization requires volume > 0"):
            sp.bispinor_block(random_unit_spinor(), state, POS, sp.Normalization.BOX)

    @pytest.mark.parametrize("volume", [0.0, -1.0, math.nan, math.inf])
    def test_box_rejects_a_volume_not_positive_and_finite(self, volume):
        # an infinite volume would give a zero spinor, a nan one a nan spinor
        with pytest.raises(ValueError, match="box normalization requires volume > 0"):
            sp.bispinor_block(random_unit_spinor(), random_state(), POS, sp.Normalization.BOX, volume)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError, match="two-spinor must be nonzero"):
            sp.bispinor_block(np.zeros(2), random_state(), POS)

    def test_branch_eigen_residuals(self):
        state = random_state()
        phi = random_unit_spinor()
        u = sp.bispinor_block(phi, state, POS, sp.Normalization.UNIT)
        v = sp.bispinor_block(phi, state, NEG, sp.Normalization.UNIT)
        assert max_abs(dirac_deviation(u, state, POS)) <= 1e-13
        assert max_abs(dirac_deviation(v, state, NEG)) <= 1e-13

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-320])
    @pytest.mark.parametrize("branch", [POS, NEG])
    def test_norms_at_any_spinor_scale(self, scale, branch):
        # |phi|^2 overflows at 1e200 and underflows to 0 at 1e-170 and 1e-320
        state = MomentumState(1.4, [0.3, -0.7, 0.5], 2.0)
        phi = np.array([scale, 0.0])
        with np.errstate(all="raise"):
            unit = sp.bispinor_block(phi, state, branch, sp.Normalization.UNIT)
            inv1 = sp.bispinor_block(phi, state, branch, sp.Normalization.INVARIANT_UNIT)
            inv2mc = sp.bispinor_block(phi, state, branch, sp.Normalization.INVARIANT_2MC)
        assert abs(float(np.vdot(unit, unit).real) - 1.0) <= 1e-15
        assert abs(abs(adjoint_norm(inv1)) - 1.0) <= 1e-15
        assert abs(abs(adjoint_norm(inv2mc)) - 2.0 * state.m * state.c) <= 1e-14
        assert max_abs(dirac_deviation(unit, state, branch)) <= 1e-14

    @pytest.mark.parametrize("norm", list(sp.Normalization))
    def test_spinor_scales_stack(self, norm):
        state = MomentumState(1.4, [0.3, -0.7, 0.5], 2.0)
        phis = np.array([[1e200, 0.0], [0.6, 0.8j], [0.0, 1e-170], [1e-320, 1e-320j], [3.0, -4.0]])
        stacked = sp.bispinor_block(phis, state, POS, norm, volume=2.5)
        singles = [sp.bispinor_block(phi, state, POS, norm, volume=2.5) for phi in phis]
        assert np.array_equal(stacked, singles)

    def test_negative_eigenvector_direct(self):
        # minus the negative-branch bi-spinor of the mirrored state: H(p) v = -R v
        state = random_state()
        chi = random_unit_spinor()
        v = -sp.bispinor_block(chi, mirrored(state), NEG, sp.Normalization.UNIT)
        h = hamiltonian(state)
        assert max_abs(h @ v + state.R * v) <= 1e-13

    def test_negative_forms_related_by_momentum_flip(self):
        # the direct -R eigenvector is (c(sigma.p)/(R + m c^2) chi, -chi), normalized
        state = random_state()
        flipped = MomentumState(state.m, -state.p, state.c)
        chi = random_unit_spinor()
        direct = -sp.bispinor_block(chi, mirrored(state), NEG, sp.Normalization.UNIT)
        by_hand = -sp.bispinor_block(chi, flipped, NEG, sp.Normalization.UNIT)
        kappa = state.c / (state.rest_energy + state.R)
        raw = np.concatenate([kappa * sigma_dot(state.p) @ chi, -chi])
        assert max_abs(direct - by_hand) <= 1e-13
        assert max_abs(direct - raw / np.linalg.norm(raw)) <= 1e-13
        assert max_abs(hamiltonian(state) @ direct + state.R * direct) <= 1e-13

    def test_eigen_residual(self):
        state = random_state()
        for branch in (POS, NEG):
            u = sp.bispinor_block(random_unit_spinor(), state, branch)
            assert max_abs(dirac_deviation(u, state, branch)) <= 1e-13


class TestHelicityBispinor:
    @pytest.mark.parametrize("lam", [PLUS, MINUS])
    def test_negative_branch_carries_flipped_label(self, lam):
        state = random_state()
        ang = PolarAngles(1.3, 4.1)
        norm = sp.Normalization.INVARIANT_2MC
        positive = sp.bispinor_block(sp.helicity_spinor(lam, ang), state, POS, norm)
        negative = sp.bispinor_block(sp.helicity_spinor(lam.flipped, ang), state, NEG, norm)
        assert np.array_equal(sp.helicity_bispinor(lam, POS, ang, state, norm), positive)
        assert np.array_equal(sp.helicity_bispinor(lam, NEG, ang, state, norm), negative)

    @pytest.mark.parametrize("branch", [POS, NEG])
    @pytest.mark.parametrize("lam", [PLUS, MINUS])
    def test_helicity_of_the_carried_momentum(self, branch, lam):
        # the negative branch carries momentum -p, whose helicity operator is -Lambda(p)
        state = random_state()
        u = sp.helicity_bispinor(lam, branch, angles_of(state.p), state)
        assert max_abs(branch.sign * helicity_operator(state) @ u - lam.half * u) <= 1e-14


class TestBoost:
    def test_rest_frame(self):
        state = MomentumState(1.0, np.zeros(3))
        phi = np.array([0.0, 1.0])
        assert max_abs(sp.boost_bispinor(phi, state) - [0, 1, 0, 0]) == 0.0

    def test_frozen_example(self):
        # m = c = 1, eta = 1/2 along z, phi = (1, 0):
        # cosh(th/2) = sqrt((E + 1)/2) = sqrt(4/3), lower block (1/2, 0)
        state = from_eta(1.0, 1.0, 0.5, PolarAngles(0.0, 0.0))
        got = sp.boost_bispinor(np.array([1.0, 0.0]), state)
        pref = 2.0 / math.sqrt(3.0)
        assert max_abs(got - pref * np.array([1.0, 0.0, 0.5, 0.0])) <= 1e-15

    def test_prefactor_is_half_angle_cosh(self):
        state = from_eta(1.0, 1.0, 0.62, PolarAngles(0.0, 0.0))
        th = rapidity(state)
        got = sp.boost_bispinor(np.array([1.0, 0.0]), state)
        expect = math.cosh(0.5 * th) * np.array([1.0, 0.0, math.tanh(0.5 * th), 0.0])
        assert max_abs(got - expect) <= 1e-14

    @given(st.floats(0.01, 0.95), st.floats(0.05, 3.1), st.floats(0.0, 6.28),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_construction(self, eta, theta, phi, seed):
        rng = np.random.default_rng(seed)
        state = from_eta(1.0, 1.0, eta, PolarAngles(theta, phi))
        spinor = random_unit_spinor(rng)
        boosted = sp.boost_bispinor(spinor, state)
        direct = sp.bispinor_block(spinor, state, POS, sp.Normalization.INVARIANT_UNIT)
        assert max_abs(boosted - direct) <= 1e-12


class TestHelicityBasis:
    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError, match="helicity basis needs a momentum direction"):
            sp.helicity_basis(MomentumState(1.0, np.zeros(3)))

    def test_unitary(self):
        basis = sp.helicity_basis(random_state())
        assert max_abs(dagger(basis.V) @ basis.V - np.eye(4)) <= 1e-14
        assert abs(abs(det4(basis.V)) - 1.0) <= 1e-13

    def test_helicity_eigencolumns(self):
        state = random_state()
        lam = helicity_operator(state)
        v = sp.helicity_basis(state).V
        for k, half in enumerate((0.5, -0.5, 0.5, -0.5)):
            assert max_abs(lam @ v[:, k] - half * v[:, k]) <= 1e-13

    def test_energy_eigencolumns(self):
        state = random_state()
        h = hamiltonian(state)
        v = sp.helicity_basis(state).V
        for k, e in enumerate((state.R, state.R, -state.R, -state.R)):
            assert max_abs(h @ v[:, k] - e * v[:, k]) <= 1e-12

    def test_exchange_relations(self):
        state = random_state()
        h = hamiltonian(state)
        basis = sp.helicity_basis(state)
        assert max_abs(h @ basis.V - state.R * basis.V_tilde) <= 1e-12
        assert max_abs(h @ basis.V_tilde - state.R * basis.V) <= 1e-12

    def test_hamiltonian_factorization(self):
        state = random_state()
        h = hamiltonian(state)
        basis = sp.helicity_basis(state)
        assert max_abs(h - state.R * basis.V_tilde @ np.linalg.inv(basis.V)) <= 1e-12
        assert max_abs(h - state.R * basis.V @ np.linalg.inv(basis.V_tilde)) <= 1e-12

    def test_unscaled_block_square(self):
        from diracfree.kinematics import angles_of

        state = random_state()
        ang = angles_of(state.p)
        pm = sp.phi_matrix(ang)
        sg = state.c * sigma_dot(state.p)
        e = state.R
        m = np.block(
            [
                [(state.rest_energy + e) * pm, sg @ pm],
                [sg @ pm, -(state.rest_energy + e) * pm],
            ]
        )
        scalar = (state.rest_energy + e) ** 2 + (state.c * state.p_abs) ** 2
        assert max_abs(dagger(m) @ m - scalar * np.eye(4)) <= 1e-10 * scalar


class TestEtaBispinors:
    @pytest.mark.parametrize("volume", [0.0, -1.0, math.nan, math.inf])
    def test_volume_not_positive_and_finite_rejected(self, volume):
        with pytest.raises(ValueError, match="^volume must be positive$"):
            sp.eta_bispinor(PLUS, POS, 0.5, PolarAngles(0.3, 0.4), volume)

    def test_rest_plus_column(self):
        got = sp.eta_bispinor(PLUS, POS, 0.0, PolarAngles(0, 0), volume=1.0)
        assert max_abs(got - [1, 0, 0, 0]) == 0.0

    def test_box_norm(self):
        for branch in (POS, NEG):
            for lam in (PLUS, MINUS):
                u = sp.eta_bispinor(lam, branch, 0.6, PolarAngles(0.8, 0.9), volume=2.0)
                assert abs(float(np.vdot(u, u).real) - 0.5) <= 1e-15

    def test_negative_minus_column_explicit(self):
        # (-1/2, negative branch): (eta a, eta b, a, b) with the half-angle entries
        eta, ang = 0.37, PolarAngles(1.1, 2.6)
        a = math.cos(0.55) * np.exp(-1.3j)
        b = math.sin(0.55) * np.exp(1.3j)
        expect = np.array([eta * a, eta * b, a, b]) / math.sqrt(1 + eta**2)
        got = sp.eta_bispinor(MINUS, NEG, eta, ang, volume=1.0)
        assert max_abs(got - expect) <= 1e-15

    def test_determinant_frozen(self):
        # stacked columns (pos +, pos -, neg +, neg -) with box prefactor
        # removed: determinant (1 - eta^2)^2, cross-checked by permutation
        # expansion
        for eta in (0.1, 0.5, 0.9):
            ang = PolarAngles(0.7, 1.9)
            cols = np.column_stack(
                [
                    sp.eta_bispinor(lam, branch, eta, ang, volume=1.0)
                    * math.sqrt(1 + eta**2)
                    for branch in (POS, NEG)
                    for lam in (PLUS, MINUS)
                ]
            )
            expect = (1.0 - eta**2) ** 2
            assert abs(det4(cols) - expect) <= 1e-12
            assert abs(perm_det(cols) - expect) <= 1e-12

    def test_matches_helicity_basis_positive_columns(self):
        # the lambda = -1/2 eta column carries a global -1 relative to the
        # basis-matrix column (the two printed conventions differ by it)
        eta, ang, volume = 0.44, PolarAngles(0.95, 4.4), 2.0
        state = from_eta(1.0, 1.0, eta, ang)
        v = sp.helicity_basis(state).V
        for col, lam, phase in ((0, PLUS, 1.0), (1, MINUS, -1.0)):
            flugge = sp.eta_bispinor(lam, POS, eta, ang, volume)
            assert max_abs(v[:, col] - phase * math.sqrt(volume) * flugge) <= 1e-14

    def test_negative_columns_collinear_after_momentum_flip(self):
        # negative-branch eta columns carry momentum opposite to (theta, phi);
        # against the helicity basis of the same state they match the flipped
        # direction up to a unit phase
        eta, ang = 0.44, PolarAngles(0.95, 4.4)
        state = from_eta(1.0, 1.0, eta, ang)
        v = sp.helicity_basis(state).V
        flipped = PolarAngles(math.pi - ang.theta, ang.phi + math.pi)
        for col, lam in ((2, PLUS), (3, MINUS)):
            flugge = sp.eta_bispinor(lam, NEG, eta, flipped, volume=1.0)
            overlap = abs(complex(np.vdot(v[:, col], flugge)))
            assert abs(overlap - 1.0) <= 1e-13

    def test_range_checks(self):
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)"):
            sp.eta_bispinor(PLUS, POS, 1.0, PolarAngles(0, 0))
        with pytest.raises(ValueError, match="volume must be positive"):
            sp.eta_bispinor(PLUS, POS, 0.5, PolarAngles(0, 0), volume=0.0)


class TestChargeConjugation:
    @pytest.mark.parametrize("lam", [PLUS, MINUS])
    def test_maps_positive_to_negative_columns(self, lam):
        for eta in (0.0, 0.3, 0.85):
            for ang in (PolarAngles(0, 0), PolarAngles(1.3, 0.6), PolarAngles(2.9, 5.1)):
                plus = sp.eta_bispinor(lam, POS, eta, ang)
                minus = sp.eta_bispinor(lam, NEG, eta, ang)
                assert max_abs(sp.charge_conjugate(plus) - minus) <= 1e-15

    def test_double_application_is_identity(self):
        u = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        assert max_abs(sp.charge_conjugate(sp.charge_conjugate(u)) - u) == 0.0
