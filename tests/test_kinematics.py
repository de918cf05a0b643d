import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import kinematics as ki
from diracfree.gamma import sigma_dot
from diracfree.smallmat import max_abs


class TestMomentumState:
    def test_rest_energy(self):
        state = ki.MomentumState(1.0, np.zeros(3))
        assert state.energy(ki.EnergyBranch.POSITIVE) == 1.0

    def test_energy_frozen(self):
        # m = c = 1, p = (0, 0, 4/3): E^2 - c^2 p^2 = 25/9 - 16/9 = 1 = m^2 c^4
        state = ki.MomentumState(1.0, np.array([0.0, 0.0, 4.0 / 3.0]))
        assert abs(state.energy(ki.EnergyBranch.POSITIVE) - 5.0 / 3.0) <= 1e-15

    def test_negative_branch_mirror(self):
        state = ki.MomentumState(1.0, np.array([0.2, -0.5, 0.9]))
        assert state.energy(ki.EnergyBranch.NEGATIVE) == -state.energy(
            ki.EnergyBranch.POSITIVE
        )

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ki.MomentumState(-1.0, np.zeros(3))

    def test_dimensional_constants(self):
        state = ki.MomentumState(2.0, np.array([0.0, 0.0, 3.0]), c=10.0)
        assert abs(state.R - math.hypot(30.0, 200.0)) <= 1e-12
        assert type(state.c) is np.float64 and state.c == 10.0

    def test_constants_default_to_float64_one(self):
        state = ki.MomentumState(1.0, np.zeros(3))
        assert type(state.c) is np.float64 and state.c == 1.0

    @pytest.mark.parametrize("field", ["c"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_non_positive_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match="^physical constants must be strictly positive$"):
            ki.MomentumState(1.0, np.zeros(3), **{field: value})

    def test_rest_energy_forms_m_c_first(self):
        # c^2 = 1e-320 is subnormal and keeps 3 digits; (m c) c keeps all of them
        state = ki.MomentumState(1e300, np.zeros(3), c=1e-160)
        assert state.rest_energy == (1e300 * 1e-160) * 1e-160
        assert abs(state.rest_energy / 1e-20 - 1.0) <= 4e-16


class TestEtaParametrization:
    def test_eta_zero_is_rest(self):
        state = ki.from_eta(1.0, 1.0, 0.0, ki.PolarAngles(0.3, 0.4))
        assert state.p_abs == 0.0
        assert state.R == 1.0

    def test_eta_half_frozen(self):
        state = ki.from_eta(1.0, 1.0, 0.5, ki.PolarAngles(0.0, 0.0))
        assert abs(state.p_abs - 4.0 / 3.0) <= 1e-15
        assert abs(state.R - 5.0 / 3.0) <= 1e-15

    def test_to_eta_frozen(self):
        state = ki.MomentumState(1.0, np.array([0.0, 0.0, 4.0 / 3.0]))
        assert abs(ki.to_eta(state) - 0.5) <= 1e-15

    def test_to_eta_rest(self):
        assert ki.to_eta(ki.MomentumState(1.0, np.zeros(3))) == 0.0

    @given(st.floats(0.0, 0.95), st.floats(0.01, 3.1), st.floats(0.0, 6.2))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, eta, theta, phi):
        state = ki.from_eta(1.0, 1.0, eta, ki.PolarAngles(theta, phi))
        assert abs(ki.to_eta(state) - eta) <= 1e-12
        # the closed-form energy matches R
        e = (1.0 + eta**2) / (1.0 - eta**2)
        assert abs(e - state.R) <= 1e-12 * max(1.0, e)

    def test_out_of_range(self):
        for eta in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)"):
                ki.from_eta(1.0, 1.0, eta, ki.PolarAngles(0.0, 0.0))

    def test_massless_rejected(self):
        with pytest.raises(ValueError, match="eta parameter is undefined for m = 0"):
            ki.to_eta(ki.MomentumState(0.0, np.array([0.0, 0.0, 1.0])))


class TestRapidity:
    def test_rest(self):
        assert ki.rapidity(ki.MomentumState(1.0, np.zeros(3))) == 0.0

    def test_half_angle_relations(self):
        state = ki.from_eta(1.0, 1.0, 0.7, ki.PolarAngles(1.0, 2.0))
        th = ki.rapidity(state)
        cosh_half = math.sqrt((state.R + state.rest_energy) / (2.0 * state.rest_energy))
        assert abs(math.cosh(0.5 * th) - cosh_half) <= 1e-13
        assert abs(math.tanh(0.5 * th) - ki.to_eta(state)) <= 1e-13

    def test_energy_momentum_form(self):
        state = ki.MomentumState(2.0, np.array([1.0, 2.0, -2.0]))
        th = ki.rapidity(state)
        assert abs(state.rest_energy * math.cosh(th) - state.R) <= 1e-12
        assert abs(state.m * state.c * math.sinh(th) - state.p_abs) <= 1e-12

    def test_massless_rejected(self):
        with pytest.raises(ValueError, match="rapidity is undefined for m = 0"):
            ki.rapidity(ki.MomentumState(0.0, np.array([1.0, 0.0, 0.0])))


class TestDirection:
    def test_poles_and_equator(self):
        assert max_abs(ki.direction(ki.PolarAngles(0.0, 0.0)) - [0, 0, 1]) == 0.0
        got = ki.direction(ki.PolarAngles(math.pi / 2.0, 0.0))
        assert max_abs(got - [1, 0, 0]) <= 1e-15

    @given(st.floats(0.0, math.pi), st.floats(0.0, 6.28))
    @settings(max_examples=80, deadline=None)
    def test_unit_norm(self, theta, phi):
        n = ki.direction(ki.PolarAngles(theta, phi))
        assert abs(np.dot(n, n) - 1.0) <= 1e-15

    def test_matches_half_angle_matrix(self):
        ang = ki.PolarAngles(0.9, 2.2)
        ct, st_ = math.cos(ang.theta), math.sin(ang.theta)
        target = np.array(
            [
                [ct, st_ * np.exp(-1j * ang.phi)],
                [st_ * np.exp(1j * ang.phi), -ct],
            ]
        )
        assert max_abs(sigma_dot(ki.direction(ang)) - target) <= 1e-15

    def test_angle_normalization(self):
        # theta outside [0, pi] is an error, not a clamp; -0.0 and nan pass as given
        for theta in (4.0, -0.5):
            with pytest.raises(ValueError, match=rf"theta must lie in \[0, pi\], got {theta}"):
                ki.PolarAngles(theta, -1.0)
        assert math.copysign(1.0, ki.PolarAngles(-0.0).theta) == -1.0
        assert math.isnan(ki.PolarAngles(math.nan).theta)
        ang = ki.PolarAngles(math.pi, -1.0)
        assert ang.theta == math.pi
        assert 0.0 <= ang.phi < 2.0 * math.pi
        assert abs(ang.phi - (2.0 * math.pi - 1.0)) <= 1e-15

    def test_angles_of_round_trip(self):
        ang = ki.PolarAngles(1.1, 5.0)
        back = ki.angles_of(ki.direction(ang))
        assert abs(back.theta - ang.theta) <= 1e-12
        assert abs(back.phi - ang.phi) <= 1e-12


class TestFourVectors:
    def test_unit_time_vector(self):
        a = ki.FourVector(1.0, np.zeros(3))
        assert ki.minkowski_dot(a, a) == 1.0

    def test_on_shell_invariant(self):
        state = ki.MomentumState(1.5, np.array([0.4, -1.2, 2.0]))
        for branch in ki.EnergyBranch:
            p4 = state.momentum_four_vector(branch)
            invariant = ki.minkowski_dot(p4, p4)
            assert abs(invariant - (state.m * state.c) ** 2) <= 1e-12

    def test_on_shell_with_c_not_one(self):
        state = ki.MomentumState(0.5, np.array([3.0, 0.0, 4.0]), c=7.0)
        p4 = state.momentum_four_vector()
        assert abs(ki.minkowski_dot(p4, p4) - (0.5 * 7.0) ** 2) <= 1e-10

    def test_as_array(self):
        a = ki.FourVector(2.0, np.array([1.0, 0.0, -1.0]))
        assert np.array_equal(a.as_array(), [2.0, 1.0, 0.0, -1.0])


class TestScaledNorm:
    @pytest.mark.parametrize("v, want", [
        (np.array([1e-320 + 0j, 0j]), 1e-320),
        (np.array([0j, 3e-310j]), 3e-310),
        (np.array([1e308, 1e308, 0.0]), math.hypot(1e308, 1e308)),
    ])
    def test_complex_with_subnormal_scale(self, v, want):
        # the scale is below 2.8e-309, whose reciprocal is inf, or in the top
        # binade, where the power of two past the largest entry is inf
        with np.errstate(all="raise"):
            assert ki.scaled_norm(v) == want


def _immutable_instances():
    from diracfree.fermi import fermi_projectors
    from diracfree.spinors import helicity_basis
    from diracfree.verify import GridSpec, IdentityCheck, VerificationReport

    state = ki.MomentumState(1.0, np.array([0.2, -0.5, 0.9]))
    check = IdentityCheck("clifford", "gamma anticommutators", 0.0, True)
    return {
        "PolarAngles": (ki.PolarAngles(0.5, 0.1), "theta"),
        "FourVector": (ki.FourVector(1.0, [0.0, 0.0, 1.0]), "t"),
        "MomentumState": (state, "m"),
        "HelicityBasis": (helicity_basis(state), "V"),
        "FermiProjectors": (fermi_projectors(state), "P"),
        "IdentityCheck": (check, "residual"),
        "VerificationReport": (VerificationReport("all", GridSpec(), 1e-12, [check]), "tolerance"),
        "GridSpec": (GridSpec(), "mass"),
    }


@pytest.mark.parametrize("name", list(_immutable_instances()))
def test_value_types_refuse_assignment_and_deletion(name):
    value, field = _immutable_instances()[name]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 0.0)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_momentum_state_caches_its_derived_values():
    state = ki.MomentumState(1.0, np.array([0.2, -0.5, 0.9]))
    assert state.R is state.R
    assert state.p_abs is state.p_abs
    assert state.eta is state.eta
    with pytest.raises(AttributeError):
        del state.R
