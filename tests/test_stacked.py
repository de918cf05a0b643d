"""Stacked construction kernels and the stacked verify domains.

Every kernel that accepts leading batch axes is checked against the loop of
its own unstacked calls (the batch-of-one case), its validations are shown
to fire on one bad element inside an otherwise valid stack, every verify
check that sweeps stacked points is compared with a scalar loop oracle over
the points it would sample one by one, and every stacked domain unstacks to
exactly those points, seeded draws included.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfree import density as de
from diracfree import fermi as fe
from diracfree import gamma as ga
from diracfree import kinematics as ki
from diracfree import observables as ob
from diracfree import smallmat as sm
from diracfree import spinors as sp
from diracfree import verify
from diracfree.cli import main
from diracfree.kinematics import EnergyBranch, MomentumState, PolarAngles
from diracfree.spinors import Helicity, Normalization

import scalar_sweep
from test_spinors import dirac_deviation

EPS = np.finfo(float).eps
SCALES = (0.25, 1.0, 3.0, 137.0)
LAMBDAS = (Helicity.PLUS, Helicity.MINUS)
BRANCHES = (EnergyBranch.POSITIVE, EnergyBranch.NEGATIVE)


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
eta_points = st.lists(
    st.tuples(st.floats(0.0, 0.99), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
    min_size=1,
    max_size=6,
).map(np.array)
seeds = st.integers(0, 2**32 - 1)


def _state(m, c, rows, spread):
    """A stacked state with momenta up to ``spread`` m c per component."""
    return MomentumState(m, spread * m * c * rows, c)


def _unstacked(state):
    return [MomentumState(state.m, p, state.c) for p in state.p]


def _unit_rows(rows):
    norms = np.linalg.norm(rows, axis=-1)
    return rows[norms > 1e-3] / norms[norms > 1e-3, None]


def _spinors(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))


def _cmats(seed, n, size=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, size, size)) + 1j * rng.standard_normal((n, size, size))


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

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0))
    def test_covariant_constructions(self, rows, m, c, spread):
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        axis = ki.momentum_axis(state)
        assert_stacks(axis, [ki.momentum_axis(s) for s in scalars])
        a = ob.polarization_four_vector(state, axis)
        singles = [ob.polarization_four_vector(s, k) for s, k in zip(scalars, axis)]
        assert_stacks(de.polarizer(a), [de.polarizer(b) for b in singles])
        assert_stacks(ob.polarization_constraint(a), [ob.polarization_constraint(b) for b in singles])
        for branch in BRANCHES:
            assert_stacks(
                de.covariant_decomposition(state, branch, a),
                [de.covariant_decomposition(s, branch, b) for s, b in zip(scalars, singles)],
            )

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0), angle_pairs)
    def test_helicity_bispinor(self, rows, m, c, spread, pairs):
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        pairs = np.resize(pairs, (len(rows), 2))
        angles = PolarAngles(pairs[:, 0], pairs[:, 1])
        singles = [PolarAngles(t, p) for t, p in pairs]
        for branch in BRANCHES:
            for lam in LAMBDAS:
                for norm in Normalization:
                    assert_stacks(
                        sp.helicity_bispinor(lam, branch, angles, state, norm, 2.5),
                        [
                            sp.helicity_bispinor(lam, branch, g, s, norm, 2.5)
                            for g, s in zip(singles, scalars)
                        ],
                    )

    @settings(max_examples=60, deadline=None)
    @given(eta_points, st.sampled_from(SCALES), st.sampled_from(SCALES))
    def test_eta_kernels(self, points, m, c):
        eta, angles = points[:, 0], PolarAngles(points[:, 1], points[:, 2])
        singles = [(e, PolarAngles(t, p)) for e, t, p in points]
        state = ki.from_eta(m, c, eta, angles)
        scalars = [ki.from_eta(m, c, e, a) for e, a in singles]
        assert_stacks(state.p, [s.p for s in scalars])
        assert_stacks(ki.to_eta(state), [ki.to_eta(s) for s in scalars])
        assert_stacks(ki.rapidity(state), [ki.rapidity(s) for s in scalars])
        for branch in BRANCHES:
            for lam in LAMBDAS:
                column = sp.eta_bispinor(lam, branch, eta, angles, volume=2.5)
                assert_stacks(column, [sp.eta_bispinor(lam, branch, e, a, 2.5) for e, a in singles])
                assert_stacks(sp.charge_conjugate(column), [sp.charge_conjugate(u) for u in column])
                assert_stacks(
                    de.density_block_form(eta, angles, branch, lam),
                    [de.density_block_form(e, a, branch, lam) for e, a in singles],
                )

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0), seeds)
    def test_bispinor_kernels(self, rows, m, c, spread, seed):
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        phi = _spinors(seed, len(rows))
        assert_stacks(sp.boost_bispinor(phi, state), [sp.boost_bispinor(f, s) for f, s in zip(phi, scalars)])
        u = sp.bispinor_block(phi, state, EnergyBranch.POSITIVE, Normalization.UNIT)
        singles = list(u)
        assert_stacks(ob.dirac_adjoint(u), [ob.dirac_adjoint(x) for x in singles])
        assert_stacks(ob.adjoint_norm(u), [ob.adjoint_norm(x) for x in singles])
        assert_stacks(de.outer_with_adjoint(u), [de.outer_with_adjoint(x) for x in singles])
        assert_stacks(
            ob.current_density(u).as_array(),
            [ob.current_density(x).as_array() for x in singles],
        )
        spins = ob.spin_expectations(u)
        assert_stacks(spins, [ob.spin_expectations(x) for x in singles])
        assert_stacks(
            ob.relate_spin_expectations(state, spins),
            [ob.relate_spin_expectations(s, x) for s, x in zip(scalars, spins)],
        )
        p4 = state.momentum_four_vector()
        assert_stacks(ga.gamma_slash(p4), [ga.gamma_slash(s.momentum_four_vector()) for s in scalars])
        for branch in BRANCHES:
            assert_stacks(
                de.energy_projector(state, branch), [de.energy_projector(s, branch) for s in scalars]
            )
            for lam in LAMBDAS:
                a = ob.polarization_four_vector(state, lam.sign * ki.momentum_axis(state))
                assert_stacks(
                    de.covariant_decomposition(state, branch, a),
                    [
                        de.covariant_decomposition(
                            s, branch, ob.polarization_four_vector(s, lam.sign * ki.momentum_axis(s))
                        )
                        for s in scalars
                    ],
                )
        fermi = fe.fermi_projectors(state)
        assert_stacks(fermi.P, [fe.fermi_projectors(s).P for s in scalars])
        assert_stacks(fermi.N, [fe.fermi_projectors(s).N for s in scalars])
        for k, column in enumerate(fe.fermi_bispinors_corrected(state)):
            assert_stacks(column, [fe.fermi_bispinors_corrected(s)[k] for s in scalars])

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.01, 5.0))
    def test_polarized_kernels(self, rows, m, c, spread):
        rows = _unit_rows(rows)
        if len(rows) == 0:
            return
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        n = rows[::-1]
        p4 = state.momentum_four_vector()
        a = ob.polarization_four_vector(state, n)
        singles = [(s, s.momentum_four_vector(), ob.polarization_four_vector(s, k)) for s, k in zip(scalars, n)]
        assert_stacks(de.slash_pair(p4, a), [de.slash_pair(q, b) for _, q, b in singles])
        assert_stacks(
            de.slash_pair_components(p4, a), [de.slash_pair_components(q, b) for _, q, b in singles]
        )
        u = sp.bispinor_block(
            sp.helicity_spinor(Helicity.PLUS, ki.angles_of(n)), state,
            EnergyBranch.POSITIVE, Normalization.INVARIANT_UNIT,
        )
        assert_stacks(
            ob.polarization_constraint(a),
            [ob.polarization_constraint(b) for _, _, b in singles],
        )
        for branch in BRANCHES:
            for lam in LAMBDAS:
                for route in (de.density4, de.density4_outer):
                    assert_stacks(
                        route(state, branch, lam, n),
                        [route(s, branch, lam, k) for s, k in zip(scalars, n)],
                    )
        for k, column in enumerate(fe.fermi_bispinors_original(state)):
            assert_stacks(column, [fe.fermi_bispinors_original(s)[k] for s in scalars])

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0), seeds)
    def test_block_kernels(self, rows, m, c, spread, seed):
        state = _state(m, c, rows, spread)
        x, y = _cmats(seed, len(rows)), _cmats(seed + 1, len(rows))
        assert_stacks(sm.det4(x), [sm.det4(v) for v in x])
        assert_stacks(sm.det2(x[:, :2, :2]), [sm.det2(v[:2, :2]) for v in x])
        product = sm.block_mul(sm.disassemble(x), sm.disassemble(y))
        assert_stacks(
            product, [sm.block_mul(sm.disassemble(v), sm.disassemble(w)) for v, w in zip(x, y)]
        )
        # plane-wave blocks: on shell at -R, off shell above +R
        sg = c * ga.sigma_dot(state.p)
        for e in (-state.R, state.R + 0.5):
            a_block = (state.rest_energy - e)[:, None, None] * np.eye(2)
            d_block = -(state.rest_energy + e)[:, None, None] * np.eye(2)
            m_stack = sm.block4(a_block, sg, sg, d_block)
            assert_stacks(sm.schur_det(m_stack), [sm.schur_det(m) for m in m_stack])
            assert_stacks(sm.schur_complement(m_stack), [sm.schur_complement(m) for m in m_stack])

    @settings(max_examples=60, deadline=None)
    @given(momenta, st.sampled_from(SCALES), st.sampled_from(SCALES), st.floats(0.0, 5.0), seeds)
    def test_eigenvector_residual_kernels(self, rows, m, c, spread, seed):
        state = _state(m, c, rows, spread)
        scalars = _unstacked(state)
        chi = _spinors(seed, len(rows))
        for branch in BRANCHES:
            u = sp.bispinor_block(chi, state, branch)
            assert_stacks(
                dirac_deviation(u, state, branch),
                [dirac_deviation(x, s, branch) for x, s in zip(u, scalars)],
            )

    def test_unstacked_results_keep_their_scalar_types(self):
        state = ki.from_eta(2.0, 3.0, 0.4, PolarAngles(0.7, 1.3))
        u = sp.bispinor_block(np.array([1.0, 0.5j]), state, EnergyBranch.POSITIVE)
        assert isinstance(ki.rapidity(state), float)
        assert isinstance(ob.adjoint_norm(u), float)
        assert isinstance(sm.det4(ga.hamiltonian(state)), complex)
        assert sp.boost_bispinor(np.array([1.0, 0.5j]), state).shape == (4,)
        complement = sm.schur_complement(np.eye(4))
        assert complement.shape == (2, 2) and complement.dtype == np.complex128

    def test_boost_at_rest_is_exact(self):
        p = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0]])
        phi = np.array([[1.0, -0.5j], [-0.0 - 1.0j, 0.25]])
        boosted = sp.boost_bispinor(phi, MomentumState(1.0, p))
        rest = sp.boost_bispinor(phi[1], MomentumState(1.0, p[1]))
        want = np.concatenate([phi[1], np.zeros(2)])
        assert np.array_equal(boosted[1], want) and np.array_equal(rest, want)
        assert all(
            math.copysign(1.0, x) == math.copysign(1.0, y)
            for x, y in zip(boosted[1].view(float), want.view(float))
        )

    def test_helicity_operator_subnormal_momentum(self):
        # |p| = 1e-320 is subnormal: p-hat is still a unit vector, not nan
        p = np.array([[0.3, 0.1, 0.2], [1e-320, 0.0, 0.0], [0.0, 0.5, -0.1]])
        state = MomentumState(1.0, p)
        stacked = ga.helicity_operator(state)
        assert np.all(np.isfinite(stacked))
        assert_stacks(stacked, [ga.helicity_operator(s) for s in _unstacked(state)])
        assert np.array_equal(stacked[1], 0.5 * ga.SPIN[0])

    def test_unstacked_scalars_stay_floats(self):
        state = ki.from_eta(1.0, 1.0, 0.5, PolarAngles(0.4, 1.1))
        for value in (state.p_abs, state.R, state.energy(EnergyBranch.NEGATIVE)):
            assert isinstance(value, float)
        assert isinstance(ob.polarization_four_vector(state, ki.direction(PolarAngles(1.0))).t, float)
        assert ga.hamiltonian(state).shape == (4, 4)

    def test_angles_out_of_range_normalized(self):
        stacked = PolarAngles(np.array([math.pi, -0.0, 0.0, 1.0]), np.array([7.0, -1.0, 0.0, 2.0]))
        for k, (t, p) in enumerate([(math.pi, 7.0), (-0.0, -1.0), (0.0, 0.0), (1.0, 2.0)]):
            single = PolarAngles(t, p)
            assert math.copysign(1.0, stacked.theta[k]) == math.copysign(1.0, single.theta)
            assert (stacked.theta[k], stacked.phi[k]) == (single.theta, single.phi)
        # a theta outside [0, pi] raises for the stack as for the single call, naming the first
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got 4.0"):
            PolarAngles(np.array([1.0, 4.0, -0.5]), 0.0)


class TestStackedValidation:
    """One bad element in a valid stack raises as the scalar call does."""

    def _stack_with_rest(self):
        p = np.array([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0], [0.0, 0.5, -0.1]])
        return MomentumState(1.0, p)

    def test_helicity_operator_rest_element(self):
        with pytest.raises(ValueError, match="helicity is undefined at rest"):
            ga.helicity_operator(self._stack_with_rest())

    def test_helicity_basis_rest_element(self):
        with pytest.raises(ValueError, match="helicity basis needs a momentum direction"):
            sp.helicity_basis(self._stack_with_rest())

    def test_nonrel_density_non_unit_element(self):
        n = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.9], [1.0, 0.0, 0.0]])
        for lam in LAMBDAS:
            with pytest.raises(ValueError, match="must be a unit vector"):
                de.nonrel_density(lam, n)

    def test_eta_out_of_range_element(self):
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)") as scalar:
                ki.from_eta(1.0, 1.0, bad, PolarAngles(0.4))
            stacked_eta = np.array([0.2, bad, 0.3, 2.0])
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)") as stacked:
                ki.from_eta(1.0, 1.0, stacked_eta, PolarAngles(0.4))
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)") as column:
                sp.eta_bispinor(Helicity.PLUS, EnergyBranch.POSITIVE, stacked_eta, PolarAngles(0.4))
            assert str(stacked.value) == str(column.value) == str(scalar.value)

    def test_fermi_original_rest_element(self):
        with pytest.raises(ValueError, match="the original set is singular at p = 0"):
            fe.fermi_bispinors_original(self._stack_with_rest())

    def test_schur_non_commuting_element(self):
        a = _cmats(3, 3, size=2)
        c = 0.7 * a + 1.3 * np.eye(2)
        c[1] = ga.SIGMA2
        a[1] = ga.SIGMA1
        d = _cmats(4, 3, size=2)
        d[1] = ga.SIGMA1 @ ga.SIGMA2
        m = sm.block4(a, _cmats(5, 3, size=2), c, d)
        with pytest.raises(ValueError, match="the Schur formulas do not apply"):
            sm.schur_det(m)

    def test_boost_zero_spinor_element(self):
        state = ki.from_eta(1.0, 1.0, 0.5, PolarAngles(np.array([0.3, 1.0, 2.0]), 0.4))
        phi = np.array([[1.0, 0.5j], [0.0, 0.0], [0.2, 1.0]])
        with pytest.raises(ValueError, match="two-spinor must be nonzero"):
            sp.boost_bispinor(phi, state)

    def test_block_rank_singular_element(self):
        a = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        m = sm.block4(a, np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="top-left block is singular"):
            sm.schur_complement(m)

    def test_density_non_finite_direction_element(self):
        state = ki.from_eta(1.0, 1.0, 0.5, PolarAngles(np.array([0.3, 1.0, 2.0]), 0.4))
        for bad in ([math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]):
            n = np.array([[0.0, 0.0, 1.0], bad, [1.0, 0.0, 0.0]])
            with pytest.raises(ValueError, match="must be a unit vector"):
                de.density4(state, EnergyBranch.POSITIVE, Helicity.PLUS, n)

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
            ("fermi", "the original set is singular at p = 0"),
        ],
    )
    def test_verify_rest_eta_exit_two(self, capsys, suite, message):
        assert main(["verify", "--eta", "0,0.5", "--angles", "3x3", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("suite, count", [("covariant", 9), ("density", 20)])
    def test_verify_rest_eta_passes_covariant_and_density(self, capsys, suite, count):
        assert main(["verify", "--eta", "0,0.5", "--angles", "3x3", "--suite", suite]) == 0
        captured = capsys.readouterr()
        assert f"summary: {count} checks, max residual " in captured.out
        assert captured.out.rstrip().endswith("all passed")
        assert captured.err == ""


# --------------------------------------------------------------------------
# scalar loop oracles for the 13 checks on stacked domains: the per-point
# residuals over the points each check sampled one at a time


def _old_angle_list(grid):
    """Every direction of the grid by ``scalar_sweep.angle``'s rule, not the engine's."""
    return [scalar_sweep.angle(grid, k) for k in range(grid.theta_count * grid.phi_count)]


def _old_angles(grid):
    return [(ang,) for ang in _old_angle_list(grid)]


def _old_states(grid):
    return [(ki.from_eta(grid.mass, grid.c, eta, ang),)
            for eta in grid.eta_values for ang in _old_angle_list(grid)]


def _old_rest_angles(grid):
    rest = MomentumState(grid.mass, np.zeros(3), grid.c)
    return [(rest, ang) for ang in _old_angle_list(grid)]


def _old_dual_points(grid):
    thetas = [ang.theta for ang in _old_angle_list(grid)[:: grid.phi_count]]
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
    # the strided, drawn and spinor-carrying checks: tests/scalar_sweep.py
    **scalar_sweep.ORACLES,
}
GRIDS = [verify.GridSpec(theta_count=5, phi_count=7), verify.GridSpec(mass=3, c=0.5),
         verify.GridSpec(eta_values=(0.5,), theta_count=1, phi_count=1)]


def test_every_check_on_a_stacked_domain_has_an_oracle():
    constant_tables = {
        "clifford", "alpha-anticomm", "alpha-spin-comm", "spin-gamma5", "nonrel-limit",
        "sigma-tensor", "fermi-clifford", "fermi-alpha-relation", "fermi-sigma-primes",
    }
    assert set(ORACLES) | constant_tables == set(verify.registry_ids())


def _stack_len(item):
    if isinstance(item, PolarAngles):
        return np.size(item.theta)
    if isinstance(item, MomentumState):
        return len(item.p) if item.p.ndim == 2 else 0
    return len(item)


def _unstack_point(point):
    """The scalar points a stacked domain point stands for, in order."""

    def entry(item, k):
        if isinstance(item, PolarAngles):
            return PolarAngles(item.theta[k], item.phi[k])
        if isinstance(item, MomentumState):
            if item.p.ndim == 1:
                return item
            return MomentumState(item.m, item.p[k], item.c)
        return item[k]

    n = max(map(_stack_len, point))
    return [tuple(entry(item, k) for item in point) for k in range(n)]


def _same_point(a, b):
    for x, y in zip(a, b, strict=True):
        if isinstance(x, PolarAngles):
            assert (x.theta, x.phi) == (y.theta, y.phi)
        elif isinstance(x, MomentumState):
            assert (x.m, x.c) == (y.m, y.c)
            assert np.array_equal(x.p, y.p)
        else:
            assert np.array_equal(x, y)


@pytest.mark.parametrize("grid", GRIDS, ids=["5x7", "m3-c0.5", "1x1"])
@pytest.mark.parametrize("check_id", sorted(ORACLES))
def test_moved_check_matches_scalar_oracle(grid, check_id):
    entry = next(e for e in verify.REGISTRY if e.id == check_id)
    old_domain, residual = ORACLES[check_id]
    old_points = old_domain(grid)
    oracle = max((r for point in old_points for r in residual(*point)), default=0.0)
    assert abs(entry.fn(grid) - oracle) <= 1e-14


_ss = scalar_sweep


@pytest.mark.parametrize("grid", GRIDS, ids=["5x7", "m3-c0.5", "1x1"])
@pytest.mark.parametrize(
    "stacked, old",
    [
        (verify._angles, _old_angles),
        (verify._states, _old_states),
        (verify._rest_angles, _old_rest_angles),
        (verify._dual_points, _old_dual_points),
        (verify._sampled, _ss.sampled),
        (verify._eta_angles, _ss.sample_points),
        (verify._points(), _ss.points()),
        (verify._points(partner=(9, 5)), _ss.points(partner=(9, 5))),
        (verify._axis_states, _ss.axis_states),
        (verify._with_spinor(verify._sampled), _ss.with_spinor(_ss.sampled)),
        (verify._with_spinor(verify._axis_states), _ss.with_spinor(_ss.axis_states)),
        (verify._draws(1000, verify._cmat_pairs), _ss.draws(1000, _ss._cmat_pair)),
        (verify._draws(300, verify._schur_draws), _ss.draws(300, _ss._schur_draw)),
        (verify._draws(200, verify._vector_pairs), _ss.draws(200, _ss._vector_pair)),
        (verify._draws(100, verify._boost_draws), _ss.draws(100, _ss._boost_draw)),
        (verify._draws(50, verify._complex4s), _ss.draws(50, _ss._complex4)),
    ],
    ids=[
        "angles", "states", "rest_angles", "dual_points", "sampled", "eta_angles", "points",
        "points_partner", "axis_states", "spinor_sampled", "spinor_axis_states", "cmat_pairs",
        "schur_draws", "vector_pairs", "boost_draws", "complex4s",
    ],
)
def test_stacked_domain_samples_old_points(grid, stacked, old):
    unstacked = [p for point in stacked(grid) for p in _unstack_point(point)]
    old_points = old(grid)
    assert len(unstacked) == len(old_points)
    for a, b in zip(unstacked, old_points):
        _same_point(a, b)


# --------------------------------------------------------------------------
# GridSpec.states, the one builder of the states the checks sweep

def test_grid_states_broadcast_like_from_eta():
    grid = verify.GridSpec(theta_count=3, phi_count=4, mass=3.0, c=0.5)
    angles = grid.angle_stack()
    cases = [
        (0.5, angles, (12, 3)),
        (np.linspace(0.0, 0.9, 12), angles, (12, 3)),
        (grid.eta_values, PolarAngles(0.3, 1.0), (5, 3)),
        (0.7, PolarAngles(0.3, 1.0), (3,)),
    ]
    for eta, ang, shape in cases:
        got, want = grid.states(eta, ang), ki.from_eta(grid.mass, grid.c, eta, ang)
        assert got.p.shape == shape
        assert got.p.tobytes() == want.p.tobytes()
        assert (got.m, got.c) == (want.m, want.c)


def test_grid_rest_state_has_zero_momentum_bits():
    rest = verify.GridSpec(mass=3.0, c=0.5).states(0.0, PolarAngles(0.0))
    assert rest.p.tobytes() == np.zeros(3).tobytes()  # +0.0 in every slot


def test_grid_keeps_its_eta_values_when_the_callers_list_changes():
    etas = [0.2, 0.8]
    grid = verify.GridSpec(eta_values=etas, theta_count=2, phi_count=2)
    cached = grid._sample
    etas[0] = 0.5
    assert grid.eta_values == (0.2, 0.8)
    assert grid._sample is cached and cached[0].tolist() == [0.2] * 4 + [0.8] * 4  # every direction of the 2x2 grid


def test_every_swept_state_comes_from_grid_states(monkeypatch):
    inside, calls = [], []
    states, from_eta = verify.GridSpec.states, ki.from_eta

    def guarded_states(self, *args):
        inside.append(True)
        try:
            return states(self, *args)
        finally:
            inside.pop()

    def guarded_from_eta(*args):
        assert inside, "from_eta called outside GridSpec.states"
        calls.append(args)
        return from_eta(*args)

    def no_sample_states(self):
        # a span around it would enclose the one around states
        raise AssertionError("the engine calls sample_states")

    monkeypatch.setattr(verify.GridSpec, "states", guarded_states)
    monkeypatch.setattr(verify.GridSpec, "sample_states", no_sample_states)
    # every module that bound from_eta at import, not only kinematics
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "diracfree" and getattr(module, "from_eta", None) is from_eta:
            monkeypatch.setattr(module, "from_eta", guarded_from_eta)
    report = verify.run_suite("all", verify.GridSpec(eta_values=(0.2, 0.8), theta_count=2, phi_count=3))
    assert report.all_passed and calls


# --------------------------------------------------------------------------
# the seeded draw stream: a change in the standard library's generator
# fails here instead of moving the residuals of the drawn checks


def test_first_uniforms_of_the_seed():
    first = [0.56005951683748, 0.8464377859511815, 0.726127791842515, 0.029004841679780458]
    assert verify._uniforms(verify._rng(), (4,)).tolist() == first
    assert verify._uniforms(verify._rng(), (2, 2)).tolist() == [first[:2], first[2:]]


DRAWS = {
    "cmat_pairs": verify._cmat_pairs,
    "schur_draws": verify._schur_draws,
    "vector_pairs": verify._vector_pairs,
    "boost_draws": verify._boost_draws,
    "complex4s": verify._complex4s,
}


@pytest.mark.parametrize("draw", list(DRAWS.values()), ids=list(DRAWS))
def test_draws_are_a_prefix_of_more_draws(draw):
    grid = GRIDS[1]
    fewer = _unstack_point(draw(verify._rng(), grid, 7))
    more = _unstack_point(draw(verify._rng(), grid, 14))
    assert len(fewer) == 7 and len(more) == 14
    for a, b in zip(fewer, more):
        _same_point(a, b)


def _stacked_arrays(point):
    """Every array a stacked point holds, in order, each with the stack axis first."""
    for item in point:
        if isinstance(item, MomentumState):
            yield item.p
        else:
            yield np.asarray(item)


@pytest.mark.parametrize("draw", list(DRAWS.values()), ids=list(DRAWS))
def test_draw_chunks_concatenate_to_one_stack(draw):
    # a random domain holds at most 100 draws at once, and its chunks are
    # the rows of the one stack a single call would draw, bit for bit
    grid = GRIDS[1]
    chunks = list(verify._draws(207, draw)(grid))
    assert [_stack_len(chunk[0]) for chunk in chunks] == [100, 100, 7]
    whole = list(_stacked_arrays(draw(verify._rng(), grid, 207)))
    parts = list(zip(*(_stacked_arrays(chunk) for chunk in chunks)))
    assert len(parts) == len(whole)
    for rows, stack in zip(parts, whole):
        joined = np.concatenate(rows)
        assert joined.dtype == stack.dtype and joined.shape == stack.shape
        assert joined.tobytes() == stack.tobytes()


# --------------------------------------------------------------------------
# a nan residual fails its check


TINY = verify.GridSpec(theta_count=2, phi_count=2)


@pytest.mark.parametrize("values", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
def test_sweep_nan_point_makes_nan(values):
    fn = verify._sweep(lambda g: [(), ()], lambda: iter([(v, 0.0) for v in values]))
    assert math.isnan(fn(TINY))


def test_sweep_nan_inside_stack_makes_nan():
    fn = verify._sweep(lambda g: [(np.array([0.1, math.nan, 0.2]),)], lambda x: iter([(x, 0.0)]))
    assert math.isnan(fn(TINY))


def test_sweep_declared_scale_divides():
    fn = verify._sweep(verify._once, lambda: iter([(3.0, 1.0, 4.0)]))
    assert fn(TINY) == 0.5


@pytest.mark.parametrize("item", [
    (np.array([1.0, math.nan]), 0.0, 1.0),
    (0.0, np.array([1.0, math.nan]), 1.0),
    (1.0, 0.0, np.array([2.0, math.nan])),
], ids=["lhs", "rhs", "scale"])
def test_sweep_nan_in_any_slot_makes_nan(item):
    fn = verify._sweep(verify._once, lambda: iter([item]))
    assert math.isnan(fn(TINY))


def test_sweep_rejects_a_bare_deviation():
    # a (2, 4, 4) stack would otherwise unpack into lhs and rhs
    fn = verify._sweep(verify._once, lambda: iter([np.zeros((2, 4, 4))]))
    with pytest.raises(TypeError):
        fn(TINY)


def _nan_registry():
    entry = next(e for e in verify.REGISTRY if e.id == "h-squared")
    nan_entry = verify.RegistryEntry(entry.id, entry.suite, entry.description, lambda g: math.nan)
    return tuple(nan_entry if e is entry else e for e in verify.REGISTRY)


def test_nan_residual_fails_check(monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", _nan_registry())
    report = verify.run_suite("algebra", TINY)
    check = next(c for c in report.checks if c.id == "h-squared")
    assert math.isnan(check.residual) and not check.passed
    assert not report.all_passed
    assert math.isnan(report.max_residual)


def test_nan_residual_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "REGISTRY", _nan_registry())
    argv = ["verify", "--suite", "algebra", "--angles", "2x2"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL  h-squared" in out
    assert "max residual nan, FAILURES PRESENT" in out
    assert main(argv + ["--format", "json"]) == 2
    assert "non-finite value in output" in capsys.readouterr().err
