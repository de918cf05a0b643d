"""Scalar reference sweep for the stacked verify checks.

Every check whose domain is stacked is evaluated here one point at a time:
the strided states, ``(eta, angles)`` and ``(eta, angles, state)`` points,
the seeded draws (each drawn alone, one uniform at a time from
``random.Random``, in the order the stacked draws must reproduce) and the
per-point residuals, each
a plain scalar expression over the library's unstacked calls.  ``ORACLES`` maps a check id to its
``(domain, residual)``; ``oracle(check_id, grid)`` is the max residual.
"""

import math
import random
from functools import partial

import numpy as np

from diracfree import density as de
from diracfree import fermi as fe
from diracfree import gamma as ga
from diracfree import kinematics as ki
from diracfree import observables as ob
from diracfree import smallmat as sm
from diracfree import spinors as sp
from diracfree.kinematics import EnergyBranch, MomentumState, PolarAngles
from diracfree.smallmat import max_abs
from diracfree.spinors import Helicity, Normalization

_SEED = 20240801
_POS = EnergyBranch.POSITIVE
_NEG = EnergyBranch.NEGATIVE
_BRANCHES = (_POS, _NEG)
_LAMBDAS = (Helicity.PLUS, Helicity.MINUS)


# --------------------------------------------------------------------------
# domains: lists of scalar points


def angle(grid, k):
    """Direction k of the grid, by the rule alone: theta-major, theta at half steps, phi from 0."""
    j, l = divmod(k, grid.phi_count)
    return PolarAngles(math.pi * (j + 0.5) / grid.theta_count, 2.0 * math.pi * l / grid.phi_count)


def sample_points(grid):
    """Per eta, every step-th angle (about 8 of them), the start rotated by 3 entries per eta."""
    count = grid.theta_count * grid.phi_count
    step = max(1, count // 8)
    return [
        (eta, angle(grid, (j + 3 * i) % count))
        for i, eta in enumerate(grid.eta_values)
        for j in range(0, count, step)
    ]


def sampled(grid):
    return [(ki.from_eta(grid.mass, grid.c, eta, ang),) for eta, ang in sample_points(grid)]


def points(partner=None):
    def domain(grid):
        out = []
        for i, (eta, ang) in enumerate(sample_points(grid)):
            point = (eta, ang, ki.from_eta(grid.mass, grid.c, eta, ang))
            if partner is not None:
                k = (partner[0] * i + partner[1]) % (grid.theta_count * grid.phi_count)
                point += (angle(grid, k),)
            out.append(point)
        return out

    return domain


def draws(n, draw):
    def domain(grid):
        rng = _rng()
        return [draw(rng, grid) for _ in range(n)]

    return domain


def with_spinor(domain):
    def spinor_domain(grid):
        rng = _rng()
        return [(*point, _random_unit_spinor(rng)) for point in domain(grid)]

    return spinor_domain


def axis_states(grid):
    return [(ki.from_eta(grid.mass, grid.c, eta, PolarAngles(0.0, 0.0)),) for eta in grid.eta_values]


def once(grid):
    return [()]


# --------------------------------------------------------------------------
# helpers


def _rng() -> random.Random:
    return random.Random(_SEED)


def _uniform(rng) -> float:
    """One uniform on [0, 1): the top 53 of the next 64 random bits."""
    return (rng.getrandbits(64) >> 11) * 2.0**-53


def _symmetric(rng, n) -> np.ndarray:
    """``n`` uniforms on [-1, 1), drawn one at a time."""
    return np.array([2.0 * _uniform(rng) - 1.0 for _ in range(n)])


def _random_cmat(rng, n=4) -> np.ndarray:
    re = _symmetric(rng, n * n).reshape(n, n)
    return re + 1j * _symmetric(rng, n * n).reshape(n, n)


def _random_unit_spinor(rng) -> np.ndarray:
    re = _symmetric(rng, 2)
    phi = re + 1j * _symmetric(rng, 2)
    return phi / math.sqrt(float(np.vdot(phi, phi).real))


def _cmat_pair(rng, grid):
    return _random_cmat(rng), _random_cmat(rng)


def _rel(got, want) -> float:
    """|got - want| measured against max(1, |want|)."""
    return abs(got - want) / max(1.0, abs(want))


def _outer(x, y):
    """x y+ over the last axis."""
    return np.asarray(x)[..., :, None] * np.conjugate(y)[..., None, :]


def _rest_spin(phi: np.ndarray) -> np.ndarray:
    """Rest-frame spin vector 0.5 phi+ sigma phi of a two-spinor."""
    return sm.stack_last([0.5 * np.vecdot(phi, np.matvec(s, phi)).real for s in ga.PAULI])


def _d9_blocks(state: MomentumState, e: float) -> np.ndarray:
    """The plane-wave eigenproblem matrix at trial energy e, joined from its explicit blocks."""
    sg = state.c * ga.sigma_dot(state.p)
    eye = np.eye(2)
    return sm.block4((state.rest_energy - e) * eye, sg, sg, -(state.rest_energy + e) * eye)


# --------------------------------------------------------------------------
# algebra suite


def _blockmul_oracle(x, y):
    """Block product against an explicit index sum, independent of BLAS ``@``."""
    got = sm.block_mul(sm.disassemble(x), sm.disassemble(y))
    yield max_abs(got - np.einsum("ik,kj->ij", x, y))


def _dagger_antihom(x, y):
    yield max_abs(sm.dagger(sm.dagger(x)) - x)
    yield max_abs(sm.dagger(x @ y) - sm.dagger(y) @ sm.dagger(x))


def _det_mult(x, y):
    yield _rel(sm.det4(x @ y), sm.det4(x) * sm.det4(y))


def _schur_draw(rng, grid):
    a = _random_cmat(rng, 2)
    x, y = _symmetric(rng, 2)
    c = x * a + y * np.eye(2)
    return (sm.block4(a, _random_cmat(rng, 2), c, _random_cmat(rng, 2)),)


def _schur_oracle(m):
    yield _rel(sm.schur_det(m), sm.det4(m))


def _eig_det(state):
    """Block-determinant of the eigenproblem matrix vs its closed form.

    The first two energies, +R and -R, are on shell: the dense determinant
    is compared there at its own rounding scale (entry magnitude to the
    fourth power: degree-4 cancellation floor).  Off shell it is compared
    relative to the closed form.
    """
    energies = (state.R, -state.R, state.R + 0.7 * state.rest_energy, 0.25 * state.R)
    for k, e in enumerate(energies):
        closed = (e**2 - (state.c * state.p_abs) ** 2 - state.rest_energy**2) ** 2
        m = _d9_blocks(state, e)
        yield _rel(sm.schur_det(m), closed)
        if k < 2:
            yield abs(sm.det4(m) - closed) / max(1.0, max_abs(m) ** 4)
        else:
            yield _rel(sm.det4(m), closed)


def _block_rank(state):
    """The Schur complement vs (E - R)(E + R) / (mc^2 - E), entry by entry: 0 at E = -R, not mc^2 below."""
    for e in (-state.R, -state.R - state.rest_energy):
        closed = (e - state.R) * (e + state.R) / (state.rest_energy - e)
        got = sm.schur_complement(_d9_blocks(state, e))
        for k, l in np.ndindex(2, 2):
            yield _rel(got[k, l], closed if k == l else 0.0)


def _h_spin_comm(state):
    h = ga.hamiltonian(state)
    for q, axis in enumerate(np.eye(3)):
        target = 2j * state.c * ga.alpha_dot(np.cross(state.p, axis))
        yield max_abs(ga.commutator(h, ga.SPIN[q]) - target)


def _h_helicity_comm(state):
    h = ga.hamiltonian(state)
    yield max_abs(ga.commutator(h, ga.spin_dot(state.p)))
    yield max_abs(ga.commutator(h, ga.helicity_operator(state)))


def _h_squared(state):
    h = ga.hamiltonian(state)
    yield max_abs(h @ h - state.R**2 * np.eye(4))


def _vector_pair(rng, grid):
    return _symmetric(rng, 3), _symmetric(rng, 3)


def _pauli_products(p, n):
    sp_, sn = ga.sigma_dot(p), ga.sigma_dot(n)
    target = 1j * ga.sigma_dot(np.cross(p, n)) + np.dot(p, n) * np.eye(2)
    yield max_abs(sp_ @ sn - target)
    for k in range(3):
        sandwich = sp_ @ ga.PAULI[k] @ sp_
        yield max_abs(sandwich - (2.0 * p[k] * sp_ - np.dot(p, p) * ga.PAULI[k]))


def _slash_square(state):
    for branch in _BRANCHES:
        p4 = state.momentum_four_vector(branch)
        slash = ga.gamma_slash(p4)
        yield max_abs(slash @ slash - ki.minkowski_dot(p4, p4) * np.eye(4))
        yield _rel(ki.minkowski_dot(p4, p4), (state.m * state.c) ** 2)


def _on_shell(state):
    for branch in _BRANCHES:
        e = state.energy(branch)
        yield abs((e / state.c) ** 2 - state.p_abs**2 - (state.m * state.c) ** 2)


def _eta_rapidity(state):
    th = ki.rapidity(state)
    yield abs(ki.to_eta(state) - math.tanh(0.5 * th))
    yield abs(state.R - state.rest_energy * math.cosh(th))
    yield abs(
        math.cosh(0.5 * th)
        - math.sqrt((state.R + state.rest_energy) / (2.0 * state.rest_energy))
    )


def _eta_round_trip(eta, ang, state):
    yield abs(ki.to_eta(state) - eta)
    yield _rel(state.rest_energy * (1.0 + eta**2) / (1.0 - eta**2), state.R)


def _wave_numbers(eta, ang, state):
    """k eta = w/c - mc/hbar and k/eta = w/c + mc/hbar for eta > 0, hbar = 1."""
    if eta == 0.0:
        return
    k = state.p_abs
    w = state.R
    mc = state.m * state.c
    yield abs(k * eta - (w / state.c - mc))
    yield abs(k / eta - (w / state.c + mc))


# --------------------------------------------------------------------------
# spinor suite


def _spin_basis(state):
    u = sp.spin_basis_matrix(state)
    yield max_abs(u - sm.dagger(u))
    yield max_abs(u @ u - np.eye(4))
    yield abs(abs(sm.det4(u)) - 1.0)


def _block_squared_norm(state):
    """The unscaled helicity block matrix squares to its scalar norm."""
    pm = sp.phi_matrix(ki.angles_of(state.p))
    sg = state.c * ga.sigma_dot(state.p)
    e = state.R
    m = np.block(
        [
            [(state.rest_energy + e) * pm, sg @ pm],
            [sg @ pm, -(state.rest_energy + e) * pm],
        ]
    )
    target = ((state.rest_energy + e) ** 2 + (state.c * state.p_abs) ** 2) * np.eye(4)
    yield max_abs(sm.dagger(m) @ m - target)


def _helicity_basis_unitary(state):
    basis = sp.helicity_basis(state)
    yield max_abs(sm.dagger(basis.V) @ basis.V - np.eye(4))
    yield abs(abs(sm.det4(basis.V)) - 1.0)


def _hv_exchange(state):
    h = ga.hamiltonian(state)
    basis = sp.helicity_basis(state)
    yield max_abs(h @ basis.V - state.R * basis.V_tilde)
    yield max_abs(h @ basis.V_tilde - state.R * basis.V)


def _h_factorization(state):
    h = ga.hamiltonian(state)
    basis = sp.helicity_basis(state)
    yield max_abs(h - state.R * basis.V_tilde @ np.linalg.inv(basis.V))
    yield max_abs(h - state.R * basis.V @ np.linalg.inv(basis.V_tilde))


def _v_inverse_sandwich(state):
    """Documented deviation: the printed gamma^0-sandwich inverse of V."""
    v = sp.helicity_basis(state).V
    yield max_abs(np.linalg.inv(v) - ga.GAMMA0 @ sm.dagger(v) @ ga.GAMMA0)


def _boost_draw(rng, grid):
    eta = 0.95 * _uniform(rng)
    theta = math.pi * _uniform(rng)
    ang = PolarAngles(theta, 2.0 * math.pi * _uniform(rng))
    return ki.from_eta(grid.mass, grid.c, eta, ang), _random_unit_spinor(rng)


def _boost_direct(state, phi):
    boosted = sp.boost_bispinor(phi, state)
    direct = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    yield max_abs(boosted - direct)


def _adjoint_orthogonality(state):
    """u-bar(lam) v(-lam) = 0; v(-lam) carries the two-spinor of lam."""
    ang = ki.angles_of(state.p)
    for lam in _LAMBDAS:
        phi = sp.helicity_spinor(lam, ang)
        u = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_2MC)
        v = sp.bispinor_block(phi, state, _NEG, Normalization.INVARIANT_2MC)
        yield abs(complex(ob.dirac_adjoint(u) @ v))


def _norm_ratio(state, phi):
    """u+u / phi+phi = 2E/(E + mc^2) for the raw block construction."""
    raw = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    ratio = float(np.vdot(raw, raw).real) / abs(ob.adjoint_norm(raw))
    yield _rel(ratio, state.R / state.rest_energy)


def _eta_determinant(eta, ang):
    cols = [
        sp.eta_bispinor(lam, branch, eta, ang, volume=1.0) * math.sqrt(1.0 + eta**2)
        for branch in _BRANCHES
        for lam in _LAMBDAS
    ]
    yield abs(sm.det4(np.column_stack(cols)) - (1.0 - eta**2) ** 2)


def _norm_conversion(eta, ang, state):
    """Box -> 2mc-invariant normalization replacement factor."""
    volume = 2.5
    factor = math.sqrt(volume * (1.0 + eta**2)) * math.sqrt(
        2.0 * state.m * state.c / (1.0 - eta**2)
    )
    for branch in _BRANCHES:
        for lam in _LAMBDAS:
            norm = ob.adjoint_norm(factor * sp.eta_bispinor(lam, branch, eta, ang, volume))
            yield abs(norm - branch.sign * 2.0 * state.m * state.c)


def _conjugation(eta, ang, lam):
    plus = sp.eta_bispinor(lam, _POS, eta, ang)
    minus = sp.eta_bispinor(lam, _NEG, eta, ang)
    yield max_abs(sp.charge_conjugate(plus) - minus)


def _complex4(rng, grid):
    re = _symmetric(rng, 4)
    return (re + 1j * _symmetric(rng, 4),)


def _conjugation_square(u):
    """Double charge conjugation is the identity (+u, recorded empirically)."""
    yield max_abs(sp.charge_conjugate(sp.charge_conjugate(u)) - u)


# --------------------------------------------------------------------------
# covariant suite


def _polarization_invariants(eta, ang, state, partner):
    for n_ang in (ang, partner):
        a = ob.polarization_four_vector(state, ki.direction(n_ang))
        p4 = state.momentum_four_vector(_POS)
        yield abs(ki.minkowski_dot(p4, a)) / max(1.0, state.R)
        yield abs(ki.minkowski_dot(a, a) + 1.0)


def _polarization_equation(eta, ang, state, n_ang):
    n = ki.direction(n_ang)
    u = sp.bispinor_block(
        sp.helicity_spinor(Helicity.PLUS, n_ang), state, _POS, Normalization.INVARIANT_UNIT
    )
    yield max_abs(ob.polarization_constraint(ob.polarization_four_vector(state, n)) @ u)


def _current(state, phi):
    u = sp.bispinor_block(1.7 * phi, state, _POS, Normalization.UNIT) * 1.3
    j = ob.current_density(u).as_array()
    norm = ob.adjoint_norm(u)
    p4 = state.momentum_four_vector(_POS).as_array()
    yield max_abs(j / norm - p4 / (state.m * state.c))


def _adjoint_norms(state, phi):
    mc2 = 2.0 * state.m * state.c
    u1 = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    u2 = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_2MC)
    v2 = sp.bispinor_block(phi, state, _NEG, Normalization.INVARIANT_2MC)
    yield abs(ob.adjoint_norm(u1) - 1.0)
    yield abs(ob.adjoint_norm(u2) - mc2)
    yield abs(ob.adjoint_norm(v2) + mc2)


def _spin_relation(state, phi):
    s_rel = ob.spin_expectations(sp.bispinor_block(phi, state, _POS, Normalization.UNIT))
    yield max_abs(s_rel - ob.relate_spin_expectations(state, _rest_spin(phi)))


def _spin_relation_axis(state, phi):
    """z along p: transverse components scale by mc^2/E, longitudinal fixed."""
    s_rel = ob.spin_expectations(sp.bispinor_block(phi, state, _POS, Normalization.UNIT))
    s_rest = _rest_spin(phi)
    scale = state.rest_energy / state.R
    yield max_abs(s_rel - np.array([scale * s_rest[0], scale * s_rest[1], s_rest[2]]))


def _spin_bound(state, phi):
    u = sp.bispinor_block(phi, state, _POS, Normalization.UNIT)
    s_rel = float(np.linalg.norm(ob.spin_expectations(u)))
    s_rest = float(np.linalg.norm(_rest_spin(phi)))
    yield max(0.0, s_rel - s_rest)


# --------------------------------------------------------------------------
# density suite


def _projector_algebra(state):
    mc2 = 2.0 * state.m * state.c
    plus = de.energy_projector(state, _POS)
    minus = de.energy_projector(state, _NEG)
    yield max_abs(plus + minus - mc2 * np.eye(4))
    yield max_abs(plus @ minus)
    yield max_abs(minus @ plus)
    yield max_abs(plus @ plus - mc2 * plus)
    yield max_abs(minus @ minus - mc2 * minus)


def _projector_sum(eta, ang, state, branch):
    total = np.zeros((4, 4), dtype=np.complex128)
    for lam in _LAMBDAS:
        u = sp.bispinor_block(
            sp.helicity_spinor(lam, ang), state, branch, Normalization.INVARIANT_2MC
        )
        total += de.outer_with_adjoint(u)
    yield max_abs(total - branch.sign * de.energy_projector(state, branch))


def _density_trace(eta, ang, state):
    mc2 = 2.0 * state.m * state.c
    n = ki.direction(ang)
    for lam in _LAMBDAS:
        yield abs(complex(np.trace(de.density4(state, _POS, lam, n))) - mc2)
        u = sp.bispinor_block(
            sp.helicity_spinor(lam, ang), state, _POS, Normalization.INVARIANT_2MC
        )
        yield abs(complex(np.trace(de.outer_with_adjoint(u))) - mc2)


def _projector_trace(eta, ang, state):
    """Documented deviation: printed trace 2mc vs actual 4mc."""
    trace = complex(np.trace(de.energy_projector(state, _POS)))
    yield abs(trace - 2.0 * state.m * state.c)


def _density_outer(eta, ang, state, partner, branch):
    for n_ang in (ang, partner):
        n = ki.direction(n_ang)
        for lam in _LAMBDAS:
            closed = de.density4(state, branch, lam, n)
            yield max_abs(closed - de.density4_outer(state, branch, lam, n))


def _factors(eta: float, ang: PolarAngles):
    """The printed matrices' factors: cos, sin of theta and theta/2, exp(-/+ i phi), eta^2."""
    return (math.cos(ang.theta), math.sin(ang.theta), math.cos(0.5 * ang.theta),
            math.sin(0.5 * ang.theta), np.exp(-1j * ang.phi), np.exp(1j * ang.phi), eta**2)


def _projector_plus(eta: float, ang: PolarAngles):
    ct, st, _, _, em, ep, e2 = _factors(eta, ang)
    return np.array(
        [
            [1, 0, -eta * ct, -eta * st * em],
            [0, 1, -eta * st * ep, eta * ct],
            [eta * ct, eta * st * em, -e2, 0],
            [eta * st * ep, -eta * ct, 0, -e2],
        ]
    )


def _projector_minus(eta: float, ang: PolarAngles):
    ct, st, _, _, em, ep, e2 = _factors(eta, ang)
    return np.array(
        [
            [e2, 0, -eta * ct, -eta * st * em],
            [0, e2, -eta * st * ep, eta * ct],
            [eta * ct, eta * st * em, -1, 0],
            [eta * st * ep, -eta * ct, 0, -1],
        ]
    )


def _polarizer_plus(eta: float, ang: PolarAngles):
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    return np.array(
        [
            [ch**2 - e2 * sh**2, 0.5 * (1 + e2) * st * em, -eta, 0],
            [0.5 * (1 + e2) * st * ep, sh**2 - e2 * ch**2, 0, -eta],
            [eta, 0, sh**2 - e2 * ch**2, -0.5 * (1 + e2) * st * em],
            [0, eta, -0.5 * (1 + e2) * st * ep, ch**2 - e2 * sh**2],
        ]
    )


def _polarizer_minus(eta: float, ang: PolarAngles):
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    return np.array(
        [
            [sh**2 - e2 * ch**2, -0.5 * (1 + e2) * st * em, eta, 0],
            [-0.5 * (1 + e2) * st * ep, ch**2 - e2 * sh**2, 0, eta],
            [-eta, 0, ch**2 - e2 * sh**2, 0.5 * (1 + e2) * st * em],
            [0, -eta, 0.5 * (1 + e2) * st * ep, sh**2 - e2 * ch**2],
        ]
    )


def _rank_one_plus(eta: float, ang: PolarAngles):
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    ct2, st2, s = ch**2, sh**2, 0.5 * st
    return (1 - e2) * np.array(
        [
            [ct2, s * em, -eta * ct2, -eta * s * em],
            [s * ep, st2, -eta * s * ep, -eta * st2],
            [eta * ct2, eta * s * em, -e2 * ct2, -e2 * s * em],
            [eta * s * ep, eta * st2, -e2 * s * ep, -e2 * st2],
        ]
    )


def _rank_one_minus(eta: float, ang: PolarAngles):
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    ct2, st2, s = ch**2, sh**2, 0.5 * st
    return (1 - e2) * np.array(
        [
            [e2 * ct2, e2 * s * em, -eta * ct2, -eta * s * em],
            [e2 * s * ep, e2 * st2, -eta * s * ep, -eta * st2],
            [eta * ct2, eta * s * em, -ct2, -s * em],
            [eta * s * ep, eta * st2, -s * ep, -st2],
        ]
    )


def _explicit_projector(eta, ang, state, branch):
    scale = (1.0 - eta**2) / (2.0 * state.m * state.c)
    got = scale * de.energy_projector(state, branch)
    yield max_abs(got - (_projector_plus(eta, ang) if branch is _POS else -_projector_minus(eta, ang)))


def _explicit_polarizer(eta, ang, state, lam):
    a = ob.polarization_four_vector(state, ki.direction(ang))
    got = 0.5 * (1.0 - eta**2) * (
        np.eye(4) - lam.sign * ga.GAMMA5_LOWER @ ga.gamma_slash(a)
    )
    target = _polarizer_plus(eta, ang) if lam is Helicity.PLUS else _polarizer_minus(eta, ang)
    yield max_abs(got - target)


def _explicit_rank_one(eta, ang, branch):
    """Printed factor products equal the explicit rank-one matrices.

    Both routes are checked: the product of the two printed component
    matrices, and the outer product of the corresponding eta column with
    the box prefactor removed.
    """
    if branch is _POS:
        product = _projector_plus(eta, ang) @ _polarizer_plus(eta, ang)
        target, lam = _rank_one_plus(eta, ang), Helicity.PLUS
    else:
        product = _projector_minus(eta, ang) @ _polarizer_minus(eta, ang)
        target, lam = _rank_one_minus(eta, ang), Helicity.MINUS
    yield max_abs(product - target)
    raw = sp.eta_bispinor(lam, branch, eta, ang, volume=1.0) * math.sqrt(1.0 + eta**2)
    yield max_abs((1.0 - eta**2) * de.outer_with_adjoint(raw) - target)


def _block_factor(eta, ang, branch):
    """Density matrices factor into a scalar block pattern times rho(n)."""
    n = ki.direction(ang)
    e2 = eta**2
    for lam in _LAMBDAS:
        got = de.density_block_form(eta, ang, branch, lam)
        s = lam.sign
        if branch is _POS:
            rho = de.nonrel_density(lam, n)
            target = sm.block4(rho, -s * eta * rho, s * eta * rho, -e2 * rho)
        else:
            rho = de.nonrel_density(lam.flipped, n)
            target = sm.block4(e2 * rho, s * eta * rho, -s * eta * rho, -rho)
        yield max_abs(got - target)


def _slash_pair(eta, ang, state, n_ang):
    a = ob.polarization_four_vector(state, ki.direction(n_ang))
    p4 = state.momentum_four_vector(_POS)
    contraction = de.slash_pair(p4, a)
    yield max_abs(contraction - de.slash_pair_components(p4, a))
    lhs = ga.gamma_slash(p4) @ ga.GAMMA5_LOWER @ ga.gamma_slash(a)
    yield max_abs(lhs + ga.GAMMA5_LOWER @ contraction)


def _covariant_decomposition(eta, ang, state):
    n = state.p / state.p_abs if state.p_abs > 0 else np.array([0.0, 0.0, 1.0])
    for branch in _BRANCHES:
        for lam in _LAMBDAS:
            a = ob.polarization_four_vector(state, lam.sign * n)
            projector, polarizer = de.energy_projector(state, branch), de.polarizer(a)
            product = projector @ polarizer
            yield max_abs(product - de.covariant_decomposition(state, branch, a))
            via_blocks = sm.block_mul(sm.disassemble(projector), sm.disassemble(polarizer))
            yield max_abs(via_blocks - product)


def _parallel_polarization(eta, ang, state):
    """Polarization components when p is along n."""
    n = ki.direction(ang)
    a = ob.polarization_four_vector(state, n)
    yield abs(a.t - 2.0 * eta / (1.0 - eta**2))
    yield max_abs(a.r - (1.0 + eta**2) / (1.0 - eta**2) * n)


# --------------------------------------------------------------------------
# fermi suite


def _fermi_eigen(state):
    """Every original bi-spinor is a +R eigenvector (the audited claim)."""
    h = ga.hamiltonian(state)
    for u in fe.fermi_bispinors_original(state):
        yield max_abs(h @ u - state.R * u)


def _fermi_dependence(state):
    yield abs(sm.det4(np.column_stack(fe.fermi_bispinors_original(state))))


def _fermi_corrected(state):
    h = ga.hamiltonian(state)
    columns = fe.fermi_bispinors_corrected(state)
    for u, e in zip(columns, (state.R, state.R, -state.R, -state.R)):
        yield max_abs(h @ u - e * u)
    yield abs(abs(sm.det4(np.column_stack(columns))) - 1.0)


def _fermi_eigenvalues():
    """trace 0, trace of square 4, det 1: eigenvalues +1 twice, -1 twice."""
    for m in (fe.FERMI_GAMMA4,) + tuple(ga.ALPHA) + fe.fermi_gamma_set()[:3]:
        yield abs(complex(np.trace(m)))
        yield abs(complex(np.trace(m @ m)) - 4.0)
        yield abs(sm.det4(m) - 1.0)


def _fermi_projectors(state):
    pr = fe.fermi_projectors(state)
    h = ga.hamiltonian(state)
    yield max_abs(pr.P + pr.N - np.eye(4))
    yield max_abs(pr.P @ pr.P - pr.P)
    yield max_abs(pr.N @ pr.N - pr.N)
    yield max_abs(pr.P @ pr.N)
    yield max_abs(pr.P - (state.R * np.eye(4) + h) / (2.0 * state.R))


def _fermi_projector_action(state):
    pr = fe.fermi_projectors(state)
    u1, u2, u3, u4 = fe.fermi_bispinors_corrected(state)
    for u in (u1, u2):
        yield max_abs(pr.P @ u - u)
        yield max_abs(pr.N @ u)
    for u in (u3, u4):
        yield max_abs(pr.N @ u - u)
        yield max_abs(pr.P @ u)


# --------------------------------------------------------------------------
# check id -> (scalar domain, per-point residual)

ORACLES = {
    "blockmul-oracle": (draws(1000, _cmat_pair), _blockmul_oracle),
    "dagger-antihom": (draws(200, _cmat_pair), _dagger_antihom),
    "det-mult": (draws(200, _cmat_pair), _det_mult),
    "schur-oracle": (draws(300, _schur_draw), _schur_oracle),
    "eig-det": (sampled, _eig_det),
    "block-rank": (sampled, _block_rank),
    "h-spin-comm": (sampled, _h_spin_comm),
    "h-helicity-comm": (sampled, _h_helicity_comm),
    "h-squared": (sampled, _h_squared),
    "pauli-products": (draws(200, _vector_pair), _pauli_products),
    "slash-square": (sampled, _slash_square),
    "on-shell": (sampled, _on_shell),
    "eta-rapidity": (sampled, _eta_rapidity),
    "eta-round-trip": (points(), _eta_round_trip),
    "wave-numbers": (points(), _wave_numbers),
    "spin-basis": (sampled, _spin_basis),
    "block-squared-norm": (sampled, _block_squared_norm),
    "helicity-basis-unitary": (sampled, _helicity_basis_unitary),
    "hv-exchange": (sampled, _hv_exchange),
    "h-factorization": (sampled, _h_factorization),
    "v-inverse-sandwich": (sampled, _v_inverse_sandwich),
    "boost-direct": (draws(100, _boost_draw), _boost_direct),
    "adjoint-orthogonality": (sampled, _adjoint_orthogonality),
    "norm-ratio": (with_spinor(sampled), _norm_ratio),
    "eta-determinant": (sample_points, _eta_determinant),
    "norm-conversion": (points(), _norm_conversion),
    "conjugation-plus": (sample_points, partial(_conjugation, lam=Helicity.PLUS)),
    "conjugation-minus": (sample_points, partial(_conjugation, lam=Helicity.MINUS)),
    "conjugation-square": (draws(50, _complex4), _conjugation_square),
    "polarization-invariants": (points(partner=(7, 0)), _polarization_invariants),
    "polarization-equation": (points(partner=(11, 0)), _polarization_equation),
    "current": (with_spinor(sampled), _current),
    "adjoint-norms": (with_spinor(sampled), _adjoint_norms),
    "spin-relation": (with_spinor(sampled), _spin_relation),
    "spin-relation-axis": (with_spinor(axis_states), _spin_relation_axis),
    "spin-bound": (with_spinor(sampled), _spin_bound),
    "projector-algebra": (sampled, _projector_algebra),
    "projector-sum-plus": (points(), partial(_projector_sum, branch=_POS)),
    "projector-sum-minus": (points(), partial(_projector_sum, branch=_NEG)),
    "density-trace": (points(), _density_trace),
    "projector-trace": (points(), _projector_trace),
    "density-outer-plus": (points(partner=(9, 5)), partial(_density_outer, branch=_POS)),
    "density-outer-minus": (points(partner=(9, 5)), partial(_density_outer, branch=_NEG)),
    "explicit-projector-plus": (points(), partial(_explicit_projector, branch=_POS)),
    "explicit-projector-minus": (points(), partial(_explicit_projector, branch=_NEG)),
    "explicit-polarizer-plus": (points(), partial(_explicit_polarizer, lam=Helicity.PLUS)),
    "explicit-polarizer-minus": (points(), partial(_explicit_polarizer, lam=Helicity.MINUS)),
    "explicit-rank-one-plus": (sample_points, partial(_explicit_rank_one, branch=_POS)),
    "explicit-rank-one-minus": (sample_points, partial(_explicit_rank_one, branch=_NEG)),
    "block-factor-plus": (sample_points, partial(_block_factor, branch=_POS)),
    "block-factor-minus": (sample_points, partial(_block_factor, branch=_NEG)),
    "slash-pair": (points(partner=(13, 0)), _slash_pair),
    "covariant-decomposition": (points(), _covariant_decomposition),
    "parallel-polarization": (points(), _parallel_polarization),
    "fermi-eigen": (sampled, _fermi_eigen),
    "fermi-dependence": (sampled, _fermi_dependence),
    "fermi-corrected": (sampled, _fermi_corrected),
    "fermi-eigenvalues": (once, _fermi_eigenvalues),
    "fermi-projectors": (sampled, _fermi_projectors),
    "fermi-projector-action": (sampled, _fermi_projector_action),
}


def oracle(check_id, grid):
    """The max over the scalar points of the per-point residuals."""
    domain, residual = ORACLES[check_id]
    return max((r for point in domain(grid) for r in residual(*point)), default=0.0)
