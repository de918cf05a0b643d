"""Stacked construction kernels and the stacked verify domains.

Every kernel that accepts leading batch axes is checked against the loop of
its own unstacked calls (the batch-of-one case), its validations are shown
to fire on one bad element inside an otherwise valid stack, and the 13
verify checks that sweep stacked points are compared with scalar loop
oracles over the points they sampled one by one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import density as de
from diracfree import gamma as ga
from diracfree import kinematics as ki
from diracfree import observables as ob
from diracfree import smallmat as sm
from diracfree import spinors as sp
from diracfree import verify
from diracfree.cli import main
from diracfree.errors import NonUnitDirection, ZeroMomentum
from diracfree.kinematics import EnergyBranch, MomentumState, PolarAngles
from diracfree.spinors import Helicity

EPS = np.finfo(float).eps
SCALES = (0.25, 1.0, 3.0, 137.0)
LAMBDAS = (Helicity.PLUS, Helicity.MINUS)


def assert_stacks(stacked, scalars):
    """Stacked output equals the stack of scalar outputs within 4 eps x scale."""
    want = np.stack([np.asarray(x) for x in scalars])
    got = np.asarray(stacked)
    assert got.shape == want.shape
    scale = max(1.0, sm.max_abs(want))
    assert sm.max_abs(got - want) <= 4 * EPS * scale


unit = st.floats(-1.0, 1.0, allow_nan=False)
momenta = st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=6).map(np.array)
angle_pairs = st.lists(
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=6
).map(np.array)


def _state(m, c, rows, spread):
    """A stacked state with momenta up to ``spread`` m c per component."""
    return MomentumState(m, spread * m * c * rows, ki.PhysicalConstants(c=c))


def _unstacked(state):
    return [MomentumState(state.m, p, state.constants) for p in state.p]


def _unit_rows(rows):
    norms = np.linalg.norm(rows, axis=-1)
    return rows[norms > 1e-3] / norms[norms > 1e-3, None]


class TestStackedKernels:
    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0))
    def test_state_kernels(self, rows, m, c, spread):
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        assert_stacks(state.p_abs, [s.p_abs for s in scalars])
        assert_stacks(state.R, [s.R for s in scalars])
        assert_stacks(ga.sigma_dot(state.p), [ga.sigma_dot(s.p) for s in scalars])
        assert_stacks(ga.alpha_dot(state.p), [ga.alpha_dot(s.p) for s in scalars])
        assert_stacks(ga.spin_dot(state.p), [ga.spin_dot(s.p) for s in scalars])
        assert_stacks(ga.hamiltonian(state), [ga.hamiltonian(s) for s in scalars])
        assert_stacks(sp.spin_basis_matrix(state), [sp.spin_basis_matrix(s) for s in scalars])

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.01, 5.0))
    def test_direction_kernels(self, rows, m, c, spread):
        rows = _unit_rows(rows)
        if len(rows) == 0:
            return
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        assert_stacks(ga.helicity_operator(state), [ga.helicity_operator(s) for s in scalars])
        basis = sp.helicity_basis(state)
        assert_stacks(basis.V, [sp.helicity_basis(s).V for s in scalars])
        assert_stacks(basis.V_tilde, [sp.helicity_basis(s).V_tilde for s in scalars])
        n = rows[::-1]
        for route in (ob.polarization_four_vector, ob.polarization_from_bilinear):
            assert_stacks(
                route(state, n).as_array(),
                [route(s, k).as_array() for s, k in zip(scalars, n)],
            )
            one_n = [route(s, n[0]).as_array() for s in scalars]
            assert_stacks(route(state, n[0]).as_array(), one_n)
        for lam in LAMBDAS:
            assert_stacks(de.nonrel_density(lam, n), [de.nonrel_density(lam, k) for k in n])

    @settings(max_examples=60, deadline=None)
    @given(angle_pairs)
    def test_angle_kernels(self, pairs):
        stacked = PolarAngles(pairs[:, 0], pairs[:, 1])
        scalars = [PolarAngles(t, p) for t, p in pairs]
        assert_stacks(ki.direction(stacked), [ki.direction(a) for a in scalars])
        for lam in LAMBDAS:
            assert_stacks(
                sp.helicity_spinor(lam, stacked), [sp.helicity_spinor(lam, a) for a in scalars]
            )
        assert_stacks(sp.phi_matrix(stacked), [sp.phi_matrix(a) for a in scalars])
        assert_stacks(sp.phi_tilde_matrix(stacked), [sp.phi_tilde_matrix(a) for a in scalars])

    def test_unstacked_scalars_stay_floats(self):
        state = ki.from_eta(1.0, 1.0, 0.5, PolarAngles(0.4, 1.1))
        for value in (state.p_abs, state.R, state.energy(EnergyBranch.NEGATIVE)):
            assert isinstance(value, float)
        assert isinstance(ob.polarization_four_vector(state, ki.direction(PolarAngles(1.0))).t, float)
        assert ga.hamiltonian(state).shape == (4, 4)

    def test_angles_out_of_range_normalized(self):
        stacked = PolarAngles(np.array([-0.5, -0.0, 4.0, 1.0]), np.array([7.0, -1.0, 0.0, 2.0]))
        for k, (t, p) in enumerate([(-0.5, 7.0), (-0.0, -1.0), (4.0, 0.0), (1.0, 2.0)]):
            single = PolarAngles(t, p)
            assert math.copysign(1.0, stacked.theta[k]) == math.copysign(1.0, single.theta)
            assert (stacked.theta[k], stacked.phi[k]) == (single.theta, single.phi)


class TestStackedValidation:
    """One bad element in a valid stack raises as the scalar call does."""

    def _stack_with_rest(self):
        p = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0], [0.0, 0.5, -0.1]])
        return MomentumState(1.0, p)

    def test_helicity_operator_rest_element(self):
        with pytest.raises(ZeroMomentum, match="helicity is undefined at rest"):
            ga.helicity_operator(self._stack_with_rest())

    def test_helicity_basis_rest_element(self):
        with pytest.raises(ZeroMomentum, match="helicity basis needs a momentum direction"):
            sp.helicity_basis(self._stack_with_rest())

    def test_nonrel_density_non_unit_element(self):
        n = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.9], [1.0, 0.0, 0.0]])
        for lam in LAMBDAS:
            with pytest.raises(NonUnitDirection, match="must be a unit vector"):
                de.nonrel_density(lam, n)

    def test_imaginary_part_message_matches_scalar(self):
        bad = 2.0 + 1e-6j
        with pytest.raises(ValueError) as scalar:
            ob._real_part(bad, "a^1")
        with pytest.raises(ValueError) as stacked:
            ob._real_part(np.array([1.0, bad, 3.0]), "a^1")
        assert str(stacked.value) == str(scalar.value)
        assert "non-negligible imaginary part" in str(scalar.value)

    def test_polarization_from_bilinear_imaginary_element(self, monkeypatch):
        bilinear = ob.bilinear

        def leaky(u_left, m, u_right):
            value = np.array(bilinear(u_left, m, u_right), dtype=complex)
            value[1] += 1e-3j
            return value

        monkeypatch.setattr(ob, "bilinear", leaky)
        state = ki.from_eta(1.0, 1.0, 0.5, PolarAngles(np.array([0.3, 1.0, 2.0]), 0.4))
        with pytest.raises(ValueError, match="a\\^0 has a non-negligible imaginary part"):
            ob.polarization_from_bilinear(state, ki.direction(PolarAngles(np.array([0.5, 1.5, 2.5]))))

    @pytest.mark.parametrize(
        "suite, message",
        [
            ("all", "helicity is undefined at rest"),
            ("spinors", "zero vector has no direction"),
            ("algebra", "helicity is undefined at rest"),
        ],
    )
    def test_verify_rest_eta_exit_two(self, capsys, suite, message):
        assert main(["verify", "--eta", "0,0.5", "--angles", "3x3", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# --------------------------------------------------------------------------
# scalar loop oracles for the 13 checks on stacked domains: the per-point
# residuals over the points each check sampled one at a time


def _old_angles(grid):
    return [(ang,) for ang in grid.angle_list()]


def _old_states(grid):
    return [(state,) for state in grid.states()]


def _old_rest_angles(grid):
    rest = MomentumState(grid.mass, np.zeros(3), ki.PhysicalConstants(c=grid.c))
    return [(rest, ang) for ang in grid.angle_list()]


def _old_dual_points(grid):
    thetas = [ang.theta for ang in grid.angle_list()[:: grid.phi_count]]
    points = []
    for eta in grid.eta_values:
        for t in thetas:
            state = ki.from_eta(grid.mass, grid.c, eta, PolarAngles(t, 1.0))
            points += [(state, PolarAngles(u, 2.5)) for u in thetas]
    return points


def _rest_spin(phi):
    return np.array([0.5 * float(np.vdot(phi, s @ phi).real) for s in ga.PAULI])


def _helicity_eigen_2(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    for lam in LAMBDAS:
        phi = sp.helicity_spinor(lam, ang)
        yield sm.max_abs(sn @ phi - lam.sign * phi)
        yield abs(float(np.vdot(phi, phi).real) - 1.0)


def _spin_direction(ang):
    n = ki.direction(ang)
    for lam in LAMBDAS:
        yield sm.max_abs(2.0 * _rest_spin(sp.helicity_spinor(lam, ang)) - lam.sign * n)


def _phi_unitary(ang):
    for m in (sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)):
        yield sm.max_abs(m @ m.conj().T - np.eye(2))
        yield sm.max_abs(m.conj().T @ m - np.eye(2))


def _sigma_factorization(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
    yield sm.max_abs(pt @ pm.conj().T - sn)
    yield sm.max_abs(pm @ pt.conj().T - sn)


def _phi_swap(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
    yield sm.max_abs(sn @ pm - pt)
    yield sm.max_abs(sn @ pt - pm)


def _completeness_2(ang):
    total = sum(
        np.outer(sp.helicity_spinor(lam, ang), np.conjugate(sp.helicity_spinor(lam, ang)))
        for lam in LAMBDAS
    )
    yield sm.max_abs(total - np.eye(2))


def _sigma_n_matrix(ang):
    st_, ct = math.sin(ang.theta), math.cos(ang.theta)
    target = np.array([[ct, st_ * np.exp(-1j * ang.phi)], [st_ * np.exp(1j * ang.phi), -ct]])
    yield sm.max_abs(ga.sigma_dot(ki.direction(ang)) - target)


def _n3_convention(ang):
    yield abs(math.cos(ang.theta) - math.cos(ang.phi))


def _nonrel_density(ang):
    n = ki.direction(ang)
    for lam in LAMBDAS:
        phi = sp.helicity_spinor(lam, ang)
        rho = de.nonrel_density(lam, n)
        yield sm.max_abs(np.outer(phi, np.conjugate(phi)) - rho)
        yield sm.max_abs(rho @ rho - rho)
        yield abs(float(np.trace(rho).real) - 1.0)


def _spin_basis_eigen(state):
    h = ga.hamiltonian(state)
    u = sp.spin_basis_matrix(state)
    for k, e in enumerate((state.R, state.R, -state.R, -state.R)):
        yield sm.max_abs(h @ u[:, k] - e * u[:, k])


def _helicity_eigen_4(state):
    lam_op = ga.helicity_operator(state)
    v = sp.helicity_basis(state).V
    for k, lam in enumerate((0.5, -0.5, 0.5, -0.5)):
        yield sm.max_abs(lam_op @ v[:, k] - lam * v[:, k])


def _polarization_dual(state, n_ang):
    n = ki.direction(n_ang)
    closed = ob.polarization_four_vector(state, n).as_array()
    yield sm.max_abs(closed - ob.polarization_from_bilinear(state, n).as_array())


def _polarization_rest(rest, ang):
    n = ki.direction(ang)
    a = ob.polarization_four_vector(rest, n)
    yield abs(a.t)
    yield sm.max_abs(a.r - n)


ORACLES = {
    "helicity-eigen-2": (_old_angles, _helicity_eigen_2),
    "spin-direction": (_old_angles, _spin_direction),
    "phi-unitary": (_old_angles, _phi_unitary),
    "sigma-factorization": (_old_angles, _sigma_factorization),
    "phi-swap": (_old_angles, _phi_swap),
    "completeness-2": (_old_angles, _completeness_2),
    "sigma-n-matrix": (_old_angles, _sigma_n_matrix),
    "n3-convention": (_old_angles, _n3_convention),
    "nonrel-density": (_old_angles, _nonrel_density),
    "spin-basis-eigen": (_old_states, _spin_basis_eigen),
    "helicity-eigen-4": (_old_states, _helicity_eigen_4),
    "polarization-dual": (_old_dual_points, _polarization_dual),
    "polarization-rest": (_old_rest_angles, _polarization_rest),
}
GRIDS = [verify.GridSpec(theta_count=5, phi_count=7), verify.GridSpec(mass=3, c=0.5)]


def _unstack_point(point):
    """The scalar points a stacked domain point stands for, in order."""
    if isinstance(point[-1], PolarAngles) and np.ndim(point[-1].theta):
        n = len(point[-1].theta)
    else:
        n = len(point[0].p)

    def entry(item, k):
        if isinstance(item, PolarAngles):
            return PolarAngles(item.theta[k], item.phi[k])
        if item.p.ndim == 1:
            return item
        return MomentumState(item.m, item.p[k], item.constants)

    return [tuple(entry(item, k) for item in point) for k in range(n)]


def _same_point(a, b):
    for x, y in zip(a, b, strict=True):
        if isinstance(x, PolarAngles):
            assert (x.theta, x.phi) == (y.theta, y.phi)
        else:
            assert (x.m, x.constants) == (y.m, y.constants)
            assert np.array_equal(x.p, y.p)


@pytest.mark.parametrize("grid", GRIDS, ids=["5x7", "m3-c0.5"])
@pytest.mark.parametrize("check_id", sorted(ORACLES))
def test_moved_check_matches_scalar_oracle(grid, check_id):
    entry = next(e for e in verify.REGISTRY if e.id == check_id)
    old_domain, residual = ORACLES[check_id]
    old_points = old_domain(grid)
    oracle = max(r for point in old_points for r in residual(*point))
    assert abs(entry.fn(grid) - oracle) <= 1e-14


@pytest.mark.parametrize("grid", GRIDS, ids=["5x7", "m3-c0.5"])
@pytest.mark.parametrize(
    "stacked, old",
    [
        (verify._angles, _old_angles),
        (verify._states, _old_states),
        (verify._rest_angles, _old_rest_angles),
        (verify._dual_points, _old_dual_points),
    ],
    ids=["angles", "states", "rest_angles", "dual_points"],
)
def test_stacked_domain_samples_old_points(grid, stacked, old):
    unstacked = [p for point in stacked(grid) for p in _unstack_point(point)]
    old_points = old(grid)
    assert len(unstacked) == len(old_points)
    for a, b in zip(unstacked, old_points):
        _same_point(a, b)
