"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output on failure) and asserts the criterion.  Tolerances are
pinned here, not configurable.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from diracfree import density as de
from diracfree import fermi as fe
from diracfree import gamma as ga
from diracfree import observables as ob
from diracfree import spinors as sp
from diracfree import smallmat as sm
from diracfree.kinematics import (
    EnergyBranch,
    MomentumState,
    PolarAngles,
    direction,
    from_eta,
    minkowski_dot,
)
from diracfree.smallmat import max_abs
from diracfree.verify import GridSpec

from scalar_sweep import _rank_one_minus, _rank_one_plus, sample_points

POS, NEG = EnergyBranch.POSITIVE, EnergyBranch.NEGATIVE
PLUS, MINUS = sp.Helicity.PLUS, sp.Helicity.MINUS

GRID = GridSpec()  # eta {0.1..0.9}, 8x8 angles, m = c = 1
TOL = 1e-12


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {verdict}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description} {suffix}"


def _grid_states():
    return [from_eta(GRID.mass, GRID.c, eta, ang)
            for eta in GRID.eta_values for ang in GRID.angle_list()]


def _sample_states():
    return [from_eta(GRID.mass, GRID.c, eta, ang) for eta, ang in sample_points(GRID)]


def test_criterion_01_clifford_tables_exact():
    start = time.perf_counter()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * ga.METRIC[mu, nu] * np.eye(4)
            worst = max(worst, max_abs(
                ga.GAMMA[mu] @ ga.GAMMA[nu] + ga.GAMMA[nu] @ ga.GAMMA[mu] - target
            ))
    for r in range(3):
        for s in range(3):
            target = 2.0 * (r == s) * np.eye(4)
            worst = max(worst, max_abs(
                ga.ALPHA[r] @ ga.ALPHA[s] + ga.ALPHA[s] @ ga.ALPHA[r] - target
            ))
        worst = max(worst, max_abs(ga.ALPHA[r] @ ga.BETA + ga.BETA @ ga.ALPHA[r]))
    for r in range(3):
        for q in range(3):
            target = sum(
                2j * ga.levi_civita(r + 1, q + 1, s + 1) * ga.ALPHA[s] for s in range(3)
            )
            worst = max(worst, max_abs(
                ga.ALPHA[r] @ ga.SPIN[q] - ga.SPIN[q] @ ga.ALPHA[r] - target
            ))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "anticommutator and spin-commutator tables exact, under 10 ms",
        worst == 0.0 and elapsed < 0.010,
        f"residual {worst:.1e}, {elapsed * 1e3:.2f} ms",
    )


def test_criterion_02_eigen_structure():
    start = time.perf_counter()
    worst = 0.0
    for state in _grid_states():
        h = ga.hamiltonian(state)
        lam_op = ga.helicity_operator(state)
        u = sp.spin_basis_matrix(state)
        v = sp.helicity_basis(state).V
        energies = (state.R, state.R, -state.R, -state.R)
        halves = (0.5, -0.5, 0.5, -0.5)
        for k in range(4):
            worst = max(worst, max_abs(h @ u[:, k] - energies[k] * u[:, k]))
            worst = max(worst, max_abs(h @ v[:, k] - energies[k] * v[:, k]))
            worst = max(worst, max_abs(lam_op @ v[:, k] - halves[k] * v[:, k]))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "energy and helicity eigen-residuals below 1e-12 on the 5x64 grid, under 1 s",
        worst <= TOL and elapsed < 1.0,
        f"residual {worst:.1e}, {elapsed:.2f} s",
    )


def test_criterion_03_factorization_identities():
    worst = 0.0
    for ang in GRID.angle_list():
        sn = ga.sigma_dot(direction(ang))
        pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
        worst = max(worst, max_abs(pt @ sm.dagger(pm) - sn))
    for state in _sample_states():
        h = ga.hamiltonian(state)
        basis = sp.helicity_basis(state)
        worst = max(worst, max_abs(h - state.R * basis.V_tilde @ np.linalg.inv(basis.V)))
        worst = max(worst, max_abs(h - state.R * basis.V @ np.linalg.inv(basis.V_tilde)))
    _report(
        3,
        "sigma.n factorization and Hamiltonian decomposition below 1e-12",
        worst <= TOL,
        f"residual {worst:.1e}",
    )


def test_criterion_04_determinant_claims():
    worst_rel = 0.0
    for state in _sample_states():
        for e in (state.R + 0.7, -state.R - 0.3, 0.25 * state.R):
            sg = state.c * ga.sigma_dot(state.p)
            eye = np.eye(2)
            m = sm.block4((state.rest_energy - e) * eye, sg, sg, -(state.rest_energy + e) * eye)
            closed = (e**2 - (state.c * state.p_abs) ** 2 - state.rest_energy**2) ** 2
            got = sm.schur_det(m)
            worst_rel = max(worst_rel, abs(got - closed) / abs(closed))
    worst_abs = 0.0
    for eta in GRID.eta_values:
        for ang in (PolarAngles(0.7, 1.9), PolarAngles(2.2, 5.0)):
            cols = np.column_stack(
                [
                    sp.eta_bispinor(lam, branch, eta, ang, volume=1.0)
                    * math.sqrt(1 + eta**2)
                    for branch in (POS, NEG)
                    for lam in (PLUS, MINUS)
                ]
            )
            worst_abs = max(worst_abs, abs(sm.det4(cols) - (1 - eta**2) ** 2))
    _report(
        4,
        "block determinant relative 1e-12 off shell; stacked-column determinant within 1e-12",
        worst_rel <= TOL and worst_abs <= TOL,
        f"relative {worst_rel:.1e}, absolute {worst_abs:.1e}",
    )


def test_criterion_05_covariant_suite():
    rng = np.random.default_rng(5)
    worst = 0.0
    angles = GRID.angle_list()
    for i, (eta, ang) in enumerate(sample_points(GRID)):
        state = from_eta(GRID.mass, GRID.c, eta, ang)
        n_ang = angles[(7 * i + 3) % len(angles)]
        n = direction(n_ang)
        a = ob.polarization_four_vector(state, n)
        p4 = state.momentum_four_vector(POS)
        worst = max(worst, abs(minkowski_dot(p4, a)) / max(1.0, state.R))
        worst = max(worst, abs(minkowski_dot(a, a) + 1.0))
        u = sp.bispinor_block(sp.helicity_spinor(PLUS, n_ang), state, POS)
        worst = max(worst, max_abs(ob.polarization_constraint(a) @ u))
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = sp.bispinor_block(phi, state, POS)
        j = ob.current_density(w).as_array()
        worst = max(worst, max_abs(
            j / ob.adjoint_norm(w) - p4.as_array() / (state.m * state.c)
        ))
        s_rest = np.array(
            [0.5 * float(np.vdot(phi, s @ phi).real) for s in ga.PAULI]
        ) / float(np.vdot(phi, phi).real)
        worst = max(worst, max_abs(
            ob.spin_expectations(w) - ob.relate_spin_expectations(state, s_rest)
        ))
    # axis-aligned special case of the spin relation
    for eta in GRID.eta_values:
        state = from_eta(1.0, 1.0, eta, PolarAngles(0.0, 0.0))
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= math.sqrt(float(np.vdot(phi, phi).real))
        w = sp.bispinor_block(phi, state, POS)
        s_rel = ob.spin_expectations(w)
        s_rest = np.array([0.5 * float(np.vdot(phi, s @ phi).real) for s in ga.PAULI])
        scale = state.rest_energy / state.R
        target = np.array([scale * s_rest[0], scale * s_rest[1], s_rest[2]])
        worst = max(worst, max_abs(s_rel - target))
    _report(
        5,
        "polarization vector, matrix constraint, current, spin relations below 1e-12",
        worst <= TOL,
        f"residual {worst:.1e}",
    )


def test_criterion_06_density_suite():
    worst = 0.0
    for eta, ang in sample_points(GRID):
        state = from_eta(GRID.mass, GRID.c, eta, ang)
        mc2 = 2.0 * state.m * state.c
        plus = de.energy_projector(state, POS)
        minus = de.energy_projector(state, NEG)
        worst = max(worst, max_abs(plus + minus - mc2 * np.eye(4)))
        worst = max(worst, max_abs(plus @ minus))
        worst = max(worst, max_abs(plus @ plus - mc2 * plus))
        worst = max(worst, max_abs(minus @ minus - mc2 * minus))
        n = direction(ang)
        for branch in (POS, NEG):
            for lam in (PLUS, MINUS):
                worst = max(worst, max_abs(
                    de.density4(state, branch, lam, n)
                    - de.density4_outer(state, branch, lam, n)
                ))
    # explicit rank-one matrices at eta = 1/2 and across the eta grid
    for eta in (0.5,) + tuple(GRID.eta_values):
        for ang in (PolarAngles(1.23, 0.77), PolarAngles(2.6, 4.1)):
            raw = sp.eta_bispinor(PLUS, POS, eta, ang, 1.0) * math.sqrt(1 + eta**2)
            worst = max(worst, max_abs(
                (1 - eta**2) * de.outer_with_adjoint(raw)
                - _rank_one_plus(eta, ang)
            ))
            raw = sp.eta_bispinor(MINUS, NEG, eta, ang, 1.0) * math.sqrt(1 + eta**2)
            worst = max(worst, max_abs(
                (1 - eta**2) * de.outer_with_adjoint(raw)
                - _rank_one_minus(eta, ang)
            ))
    # block factorizations through the two-level density matrix
    for eta, ang in sample_points(GRID):
        n = direction(ang)
        e2 = eta**2
        for lam in (PLUS, MINUS):
            s = lam.sign
            got = de.density_block_form(eta, ang, POS, lam)
            rho = de.nonrel_density(lam, n)
            target = sm.block4(rho, -s * eta * rho, s * eta * rho, -e2 * rho)
            worst = max(worst, max_abs(got - target))
            got = de.density_block_form(eta, ang, NEG, lam)
            rho = de.nonrel_density(MINUS if lam is PLUS else PLUS, n)
            target = sm.block4(e2 * rho, s * eta * rho, -s * eta * rho, -rho)
            worst = max(worst, max_abs(got - target))
    _report(
        6,
        "projector algebra, closed-vs-outer density matrices, explicit and block forms below 1e-12",
        worst <= TOL,
        f"residual {worst:.1e}",
    )


def test_criterion_07_fermi_audit():
    worst_eigen = 0.0
    worst_original_det = 0.0
    worst_corrected = 0.0
    for state in _sample_states():
        h = ga.hamiltonian(state)
        originals = fe.fermi_bispinors_original(state)
        for u in originals:
            worst_eigen = max(worst_eigen, max_abs(h @ u - state.R * u))
        worst_original_det = max(
            worst_original_det, abs(sm.det4(np.column_stack(originals)))
        )
        corrected = np.column_stack(fe.fermi_bispinors_corrected(state))
        worst_corrected = max(worst_corrected, abs(abs(sm.det4(corrected)) - 1.0))
    _report(
        7,
        "original set: +R eigenvectors with vanishing determinant (both 1e-12); corrected set unimodular",
        worst_eigen <= TOL and worst_original_det <= TOL and worst_corrected <= TOL,
        f"eigen {worst_eigen:.1e}, det {worst_original_det:.1e}, corrected {worst_corrected:.1e}",
    )


def test_criterion_08_charge_conjugation():
    worst = 0.0
    for eta, ang in sample_points(GRID):
        for lam in (PLUS, MINUS):
            plus = sp.eta_bispinor(lam, POS, eta, ang)
            minus = sp.eta_bispinor(lam, NEG, eta, ang)
            worst = max(worst, max_abs(sp.charge_conjugate(plus) - minus))
    _report(
        8,
        "charge conjugation maps positive columns onto negative ones below 1e-12",
        worst <= TOL,
        f"residual {worst:.1e}",
    )


def test_criterion_09_nonrelativistic_limit():
    rest = np.diag([1.0, 1.0, -1.0, -1.0])
    deficits = []
    ok = True
    for c in (10.0, 100.0, 1000.0):
        state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]), c)
        deficit = max_abs(sp.spin_basis_matrix(state) - rest)
        ok = ok and deficit < 3.0 / c
        deficits.append(deficit)
    ok = ok and deficits[0] > deficits[1] > deficits[2]
    _report(
        9,
        "spin basis approaches its rest form monotonically, below 3/c",
        ok,
        "deficits " + ", ".join(f"{d:.2e}" for d in deficits),
    )


def test_criterion_10_cli_verification_run(child_env):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "diracfree.cli", "verify", "--suite", "all",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    elapsed = time.perf_counter() - start
    ok = result.returncode == 0 and elapsed < 5.0
    deviations = []
    if ok:
        doc = json.loads(result.stdout)
        deviations = doc["outputs"]["deviations"]
        ok = (
            doc["outputs"]["all_passed"] is True
            and sorted(deviations)
            == ["n3-convention", "projector-trace", "v-inverse-sandwich"]
        )
    _report(
        10,
        "full CLI verification exits 0 in under 5 s with the three documented deviations",
        ok,
        f"{elapsed:.2f} s, exit {result.returncode}, deviations {deviations}",
    )
