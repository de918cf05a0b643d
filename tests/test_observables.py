import math

import numpy as np
import pytest

from diracfree import observables as ob
from diracfree import spinors as sp
from diracfree.gamma import GAMMA, GAMMA5_LOWER, PAULI
from diracfree.kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    angles_of,
    from_eta,
    minkowski_dot,
)
from diracfree.smallmat import max_abs

POS, NEG = EnergyBranch.POSITIVE, EnergyBranch.NEGATIVE
PLUS, MINUS = sp.Helicity.PLUS, sp.Helicity.MINUS
RNG = np.random.default_rng(11)


def helicity_state(eta=0.6, theta=0.8, phi=2.1):
    return from_eta(1.0, 1.0, eta, PolarAngles(theta, phi))


def unit_spinor():
    phi = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    return phi / math.sqrt(float(np.vdot(phi, phi).real))


class TestAdjoint:
    def test_rest_column(self):
        assert np.array_equal(ob.dirac_adjoint([1, 0, 0, 0]), [1, 0, 0, 0])

    def test_lower_block_sign(self):
        assert np.array_equal(ob.dirac_adjoint([0, 0, 1j, 0]), [0, 0, 1j, 0])

    def test_invariant_unit(self):
        u = sp.bispinor_block(unit_spinor(), helicity_state(), POS,
                              sp.Normalization.INVARIANT_UNIT)
        assert abs(complex(ob.dirac_adjoint(u) @ u) - 1.0) <= 1e-13

    def test_negative_branch_2mc(self):
        state = helicity_state()
        v = sp.bispinor_block(unit_spinor(), state, NEG, sp.Normalization.INVARIANT_2MC)
        assert abs(ob.adjoint_norm(v) + 2.0 * state.m * state.c) <= 1e-12

    def test_bilinear_identity_matrix(self):
        u = sp.bispinor_block(unit_spinor(), helicity_state(), POS)
        assert abs(ob.bilinear(u, np.eye(4), u) - ob.adjoint_norm(u)) <= 1e-14


class TestPolarizationVector:
    def test_rest_frame(self):
        state = MomentumState(1.0, np.zeros(3))
        n = np.array([0.6, 0.0, 0.8])
        a = ob.polarization_four_vector(state, n)
        assert a.t == 0.0
        assert max_abs(a.r - n) == 0.0

    def test_perpendicular_momentum(self):
        state = MomentumState(1.0, np.array([0.0, 2.0, 0.0]))
        n = np.array([1.0, 0.0, 0.0])
        a = ob.polarization_four_vector(state, n)
        assert a.t == 0.0
        assert max_abs(a.r - n) == 0.0

    def test_frozen_example(self):
        # m = c = 1, p = (0, 0, 4/3), n = z: a0 = 4/3 and
        # a3 = 1 + (16/9) / (5/3 + 1) = 5/3
        state = MomentumState(1.0, np.array([0.0, 0.0, 4.0 / 3.0]))
        a = ob.polarization_four_vector(state, np.array([0.0, 0.0, 1.0]))
        assert abs(a.t - 4.0 / 3.0) <= 1e-15
        assert abs(a.r[2] - 5.0 / 3.0) <= 1e-15
        # cross-check through the bilinear route
        b = ob.polarization_from_bilinear(state, np.array([0.0, 0.0, 1.0]))
        assert max_abs(a.as_array() - b.as_array()) <= 1e-14

    def test_orthogonal_and_unit(self):
        state = helicity_state(0.83, 2.5, 0.3)
        n = np.array([0.48, -0.6, 0.64])
        a = ob.polarization_four_vector(state, n)
        p4 = state.momentum_four_vector(POS)
        assert abs(minkowski_dot(p4, a)) <= 1e-12 * state.R
        assert abs(minkowski_dot(a, a) + 1.0) <= 1e-12

    def test_dual_route_random_directions(self):
        state = helicity_state(0.45, 1.9, 5.2)
        for _ in range(10):
            v = RNG.standard_normal(3)
            n = v / np.linalg.norm(v)
            closed = ob.polarization_four_vector(state, n).as_array()
            bil = ob.polarization_from_bilinear(state, n).as_array()
            assert max_abs(closed - bil) <= 1e-13


class TestPolarizationEquation:
    def test_rest_frame(self):
        state = MomentumState(1.0, np.zeros(3))
        n = np.array([0.0, 0.0, 1.0])
        u = sp.bispinor_block(sp.helicity_spinor(PLUS, PolarAngles(0, 0)), state, POS)
        a = ob.polarization_four_vector(state, n)
        assert max_abs(ob.polarization_constraint(a) @ u) <= 1e-15

    def test_moving_state(self):
        state = helicity_state(0.7, 1.2, 0.9)
        n_ang = PolarAngles(2.2, 3.3)
        from diracfree.kinematics import direction

        u = sp.bispinor_block(sp.helicity_spinor(PLUS, n_ang), state, POS)
        a = ob.polarization_four_vector(state, direction(n_ang))
        assert max_abs(ob.polarization_constraint(a) @ u) <= 1e-12

    def test_wrong_helicity_discriminates(self):
        state = helicity_state(0.7, 1.2, 0.9)
        n_ang = PolarAngles(2.2, 3.3)
        from diracfree.kinematics import direction

        u = sp.bispinor_block(sp.helicity_spinor(MINUS, n_ang), state, POS)
        a = ob.polarization_four_vector(state, direction(n_ang))
        assert max_abs(ob.polarization_constraint(a) @ u) > 0.1


class TestCurrent:
    def test_rest_frame(self):
        state = MomentumState(1.0, np.zeros(3))
        u = sp.bispinor_block(unit_spinor(), state, POS, sp.Normalization.INVARIANT_UNIT)
        j = ob.current_density(u)
        assert abs(j.t - 1.0) <= 1e-14
        assert max_abs(j.r) <= 1e-14

    def test_proportional_to_momentum(self):
        state = helicity_state(0.52, 0.4, 1.0)
        u = sp.bispinor_block(unit_spinor(), state, POS)
        j = ob.current_density(u).as_array()
        p4 = state.momentum_four_vector(POS).as_array()
        assert max_abs(j / ob.adjoint_norm(u) - p4 / (state.m * state.c)) <= 1e-12

    def test_scaling_homogeneity(self):
        state = helicity_state()
        phi = unit_spinor()
        u1 = sp.bispinor_block(phi, state, POS, sp.Normalization.INVARIANT_UNIT)
        u2 = 2.0 * u1
        j1 = ob.current_density(u1).as_array()
        j2 = ob.current_density(u2).as_array()
        assert max_abs(j2 - 4.0 * j1) <= 1e-12
        ratio1 = j1 / ob.adjoint_norm(u1)
        ratio2 = j2 / ob.adjoint_norm(u2)
        assert max_abs(ratio1 - ratio2) <= 1e-13


class TestSpinExpectations:
    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-320])
    def test_any_bispinor_scale(self, scale):
        # u+ u overflows at 1e200 and underflows to 0 at 1e-170 and 1e-320
        with np.errstate(all="raise"):
            got = ob.spin_expectations(np.array([scale, 0.0, 0.0, 0.0]))
        assert np.array_equal(got, [0.0, 0.0, 0.5])

    def test_rest_frame_equals_two_spinor_value(self):
        state = MomentumState(1.0, np.zeros(3))
        phi = unit_spinor()
        u = sp.bispinor_block(phi, state, POS)
        s_rest = np.array([0.5 * float(np.vdot(phi, s @ phi).real) for s in PAULI])
        assert max_abs(ob.spin_expectations(u) - s_rest) <= 1e-14

    def test_axis_aligned_momentum(self):
        state = from_eta(1.0, 1.0, 0.77, PolarAngles(0.0, 0.0))
        phi = unit_spinor()
        u = sp.bispinor_block(phi, state, POS)
        s_rel = ob.spin_expectations(u)
        s_rest = np.array([0.5 * float(np.vdot(phi, s @ phi).real) for s in PAULI])
        scale = state.rest_energy / state.R
        assert abs(s_rel[0] - scale * s_rest[0]) <= 1e-13
        assert abs(s_rel[1] - scale * s_rest[1]) <= 1e-13
        assert abs(s_rel[2] - s_rest[2]) <= 1e-13

    def test_dual_path(self):
        state = helicity_state(0.66, 2.0, 4.7)
        phi = unit_spinor()
        u = sp.bispinor_block(phi, state, POS)
        s_rest = np.array([0.5 * float(np.vdot(phi, s @ phi).real) for s in PAULI])
        assert max_abs(
            ob.spin_expectations(u) - ob.relate_spin_expectations(state, s_rest)
        ) <= 1e-12

    def test_magnitude_bound(self):
        for _ in range(20):
            state = helicity_state(float(RNG.uniform(0.1, 0.9)),
                                   float(RNG.uniform(0.1, 3.0)),
                                   float(RNG.uniform(0.0, 6.2)))
            phi = unit_spinor()
            u = sp.bispinor_block(phi, state, POS)
            s_rel = float(np.linalg.norm(ob.spin_expectations(u)))
            s_rest = float(np.linalg.norm(
                [0.5 * float(np.vdot(phi, s @ phi).real) for s in PAULI]
            ))
            assert s_rel <= s_rest + 1e-14

    def test_equality_when_parallel(self):
        # spin along the momentum axis: |<S>| = |<s>| = 1/2
        state = from_eta(1.0, 1.0, 0.8, PolarAngles(0.0, 0.0))
        phi = sp.helicity_spinor(PLUS, PolarAngles(0.0, 0.0))
        u = sp.bispinor_block(phi, state, POS)
        assert abs(np.linalg.norm(ob.spin_expectations(u)) - 0.5) <= 1e-13


class TestBilinearComponents:
    def test_pseudovector_components(self):
        state = helicity_state(0.4, 1.5, 0.2)
        n_ang = angles_of(state.p)
        u = sp.bispinor_block(
            sp.helicity_spinor(PLUS, n_ang), state, POS, sp.Normalization.INVARIANT_UNIT
        )
        a = ob.polarization_four_vector(state, state.p / state.p_abs)
        for mu, target in enumerate(a.as_array()):
            got = ob.bilinear(u, GAMMA5_LOWER @ GAMMA[mu], u)
            assert abs(got - target) <= 1e-13

    def test_vector_components(self):
        state = helicity_state(0.62, 2.8, 3.9)
        u = sp.bispinor_block(unit_spinor(), state, POS, sp.Normalization.INVARIANT_UNIT)
        p4 = state.momentum_four_vector(POS).as_array()
        for mu in range(4):
            got = ob.bilinear(u, GAMMA[mu], u)
            assert abs(got - p4[mu] / (state.m * state.c)) <= 1e-13
