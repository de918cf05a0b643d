"""Identity registry and verification engine.

Every matrix identity the library relies on is registered here as a named
check that reports one residual.  A registry row has the shape
``(id, suite, description, domain, residual)``:

* the *domain* maps a ``GridSpec`` to the points the check samples, each
  one batch with a leading stack axis.  Every state a domain sweeps comes
  from ``GridSpec.states(eta, angles)``, the one place that builds one:

  - ``_angles``: the whole angle list;
  - ``_states``: all states, one batch per eta;
  - ``_sampled``: the strided states of the grid's one shared sample, at
    most ``_PER_ETA`` states per eta whatever the angle counts, which the
    grid builds with itself, as read-only arrays;
  - ``_eta_angles``: the strided ``(eta, angles)`` of that sample, with no
    state, for the seven checks that read none (``eta-determinant``,
    ``conjugation-plus``/``-minus``, ``explicit-rank-one-plus``/``-minus``,
    ``block-factor-plus``/``-minus``);
  - ``_points(partner)``: the same sample as ``(eta, angles, state)``,
    optionally with a rotated partner direction;
  - ``_draws(n, draw)``: ``n`` seeded random draws, each entry uniform on
    [-1, 1) (``_boost_draws``: eta in [0, 0.95), theta in [0, pi), phi in
    [0, 2 pi), then a spinor), in batches of at most ``_DRAW_CHUNK`` = 100;
  - ``_with_spinor(domain)``: one seeded random unit two-spinor per state,
    its four parts uniform on [-1, 1) and then normalized;
  - ``_axis_states``, ``_rest_angles``, ``_dual_points``: the z-axis states,
    the rest state (eta 0) with every direction, and the eta x p x n grid;
    these, ``_angles``, ``_states`` and the ``_draws`` domains are built
    anew by each check that sweeps them, so no grid-sized stack outlives
    its check;
  - ``_once``: a single evaluation of constant tables;

* the *residual* maps one batch to the two sides of the identity: it
  yields ``(lhs, rhs)`` or ``(lhs, rhs, scale)`` items of arrays (or
  scalars) that should agree entry by entry where the identity holds, and
  never subtracts or reduces them itself.  A quantity that should vanish is
  yielded as ``(x, 0.0)``.  ``_rel(got, want)`` is the item with the scale
  ``max(1, |want|)``.

``_sweep`` alone measures the items, each with ``smallmat.residual``: the
check's residual is the largest ``|lhs - rhs| / scale`` (scale 1 when none
is given) over every item the residual yields on every batch of the
domain, and a nan entry anywhere makes it nan.  It becomes the entry's
``fn(grid) -> float``, and ``run_suite`` compares every check's residual
with the run's one tolerance.  Two checks measure by hand and yield their
measure against 0: ``nonrel-limit`` (the excess of ``smallmat.residual``
over the 3/c rate, and 1 where it stops shrinking) and ``spin-bound`` (the
one-sided excess of |<S>| over |<s>|).  Every other check compares objects
the library builds -- matrices, vectors, scalars -- and no library function
measures an identity for it: ``block-rank`` yields ``smallmat.schur_complement``
of H - E against its closed form, ``polarization-equation`` applies
``observables.polarization_constraint`` and yields the product against 0,
and ``covariant-decomposition`` yields the projector-polarizer product
against ``density.covariant_decomposition``.

Every random input comes from ``random.Random(_SEED)``, a new generator
per domain, through ``_uniforms``: each float64 takes 8 bytes of
``randbytes`` and keeps 53 of their bits, and a domain draws its entries in
row-major order, draw by draw in the order each draw function names.  A
``_draws`` domain reads its one generator chunk after chunk, so its batches
are the rows of the single stack ``draw(_rng(), grid, n)``: no check holds
more than 100 draws at once, and every value is that of the one stack.
The standard-library source keeps ``numpy.random`` (its bit generators,
``mtrand`` and the OpenSSL-backed ``secrets``) out of the process; every
identity here is polynomial in its inputs, so uniform entries test it as
well as normal ones.

The registry is the machine-checkable contract of the package:
``run_suite`` executes a suite (or all of them) and returns a
``VerificationReport`` whose pass/fail verdict feeds the CLI exit code.
It refuses an unknown suite or a tolerance that is not positive and
finite, and ``GridSpec`` a grid it cannot build, with ``ValueError``, as
every layer of the library refuses an input.
Each entry reads only the grid, whose shared sample is read-only, and
its own seeded generator, so the entries are independent: with a second
CPU, ``run_suite`` evaluates them in this process and one forked worker,
which inherits the grid's sample and claims entries one at a time with
this process, and the report and any error are those of evaluating them
in order here.

Three checks are *documented deviations*: places where a printed source
formula disagrees with the mathematics that every other identity pins
down (a polar-coordinate typo, an inverse formula for the helicity basis,
and a projector trace).  They are reported with their actual residuals but
never counted as failures.
"""

from __future__ import annotations

import math
import os
import random
import struct
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import density as de
from . import fermi as fe
from . import gamma as ga
from . import kinematics as ki
from . import observables as ob
from . import smallmat as sm
from . import spinors as sp
from .kinematics import EnergyBranch, MomentumState, PolarAngles
from .smallmat import DEFAULT_TOL
from .spinors import Helicity, Normalization

SUITES = ("algebra", "spinors", "covariant", "density", "fermi")
_SEED = 20240801
_DRAW_CHUNK = 100  # the most draws a random domain stacks at once
_PER_ETA = 8  # strided points per eta of the sampled domains
_RECORD = struct.Struct("<Bd")  # what the worker sends per residual: its registry index and its float64

_POS = EnergyBranch.POSITIVE
_NEG = EnergyBranch.NEGATIVE
_BRANCHES = (_POS, _NEG)
_LAMBDAS = (Helicity.PLUS, Helicity.MINUS)


class GridSpec(ki._Frozen):
    """Parameter grid swept by the checks; at least one eta and one angle.

    ``angle(k)`` computes direction ``k`` from its index, and there are at
    most as many directions as a numpy index counts.  Every eta lies in
    [0, 1), and the largest energy R of the grid stays finite at the fourth
    power, the degree of ``eig-det`` in R.  (m c^2)^2 and (m c)^2, the
    scales of E (E + m c^2) and m (R + m c^2), stay normal floats.
    ``states`` builds every state of the grid that a check sweeps.
    ``__init__`` builds the grid whole, with ``_sample``: the strided
    ``(eta, angles, states)`` stack of the more expensive sweeps, per eta
    every step-th direction (about ``_PER_ETA``), the start rotated by 3
    per eta, eta-major.  The range checks read it, every check that sweeps
    it shares it and a forked worker inherits it, so all its arrays are
    read-only, the states' cached ``p_abs``, ``R`` and ``eta`` included.  A
    plain class, not a frozen dataclass, so that importing the module
    generates and compiles no methods.
    """

    def __init__(self, eta_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9), theta_count: int = 8,
                 phi_count: int = 8, mass: float = 1.0, c: float = 1.0):
        eta_values = tuple(eta_values)  # a tuple of its own: a caller's list changed later moves nothing
        self.__dict__.update(eta_values=eta_values, theta_count=theta_count, phi_count=phi_count,
                             mass=mass, c=c)
        if len(eta_values) == 0:
            raise ValueError("grid needs at least one eta value")
        if theta_count < 1 or phi_count < 1:
            raise ValueError(f"angle counts must be positive, got {theta_count}x{phi_count}")
        count = theta_count * phi_count
        if count > np.iinfo(np.intp).max:
            raise ValueError(
                f"angle counts {theta_count}x{phi_count} give more directions than "
                f"a numpy index holds ({np.iinfo(np.intp).max})"
            )
        for name, value in (("mass", mass), ("c", c)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        offsets = np.arange(0, count, max(1, count // _PER_ETA))
        eta = np.repeat(ki.check_eta(eta_values), len(offsets))
        angles = self.angle(((offsets + 3 * np.arange(len(eta_values))[:, None]) % count).ravel())
        with np.errstate(over="ignore", invalid="ignore"):  # an out-of-range scale is rejected below
            state = self.states(eta, angles)
            top = np.argmax(eta)  # the first point of the largest eta
            if not np.isfinite(state.R[top] ** 4):
                raise ValueError(
                    f"energy scale out of range: R = {state.R[top]:.3g} at eta {eta[top]:g}, and eig-det "
                    "needs R^4 below the float64 maximum"
                )
            for name, value in (("m c^2", state.rest_energy), ("m c", state.m * state.c)):
                if value * value < np.finfo(float).tiny:
                    raise ValueError(f"energy scale out of range: {name} = {value:.3g} at m = {mass:g}, "
                                     f"c = {c:g}, and ({name})^2 underflows below the smallest normal float64")
        for array in (eta, angles.theta, angles.phi, state.p_abs, state.R, state.eta):
            array.setflags(write=False)
        self.__dict__["_sample"] = (eta, angles, state)

    def angle(self, k) -> PolarAngles:
        """Direction ``k`` of the grid, or the stacked directions of an index array.

        Row-major over theta (slowest) and phi: theta = pi (j + 1/2) / theta_count
        and phi = 2 pi l / phi_count for ``j, l = divmod(k, phi_count)``.
        """
        j, l = np.divmod(k, self.phi_count)
        return PolarAngles(math.pi * (j + 0.5) / self.theta_count, 2.0 * math.pi * l / self.phi_count)

    def angle_list(self) -> list[PolarAngles]:
        """Each direction alone; read by ``perfbench/traced_cli.py --kernels`` and the tests."""
        stack = self.angle_stack()
        return [PolarAngles(t, p) for t, p in zip(stack.theta.tolist(), stack.phi.tolist())]

    def angle_stack(self) -> PolarAngles:
        """The whole angle list as one stacked ``PolarAngles``, same order."""
        return self.angle(np.arange(self.theta_count * self.phi_count))

    def states(self, eta, angles: PolarAngles) -> MomentumState:
        """``from_eta`` at the grid's mass and c, ``eta`` broadcast against ``angles``."""
        return ki.from_eta(self.mass, self.c, eta, angles)

    def sample_states(self) -> MomentumState:
        """The states of the shared sample; no domain calls it, ``perfbench/traced_cli.py`` wraps it."""
        return self._sample[2]


class IdentityCheck(NamedTuple):
    """One check's verdict: its residual against the report's tolerance."""

    id: str
    description: str
    residual: float
    passed: bool
    deviation_note: str | None = None


class VerificationReport(NamedTuple):
    suite: str
    grid: GridSpec
    tolerance: float
    checks: list[IdentityCheck]

    @property
    def deviations(self) -> list[IdentityCheck]:
        """The documented deviations among ``checks``, in their order."""
        return [c for c in self.checks if c.deviation_note is not None]

    @property
    def max_residual(self) -> float:
        """The largest counted residual, nan if any counted residual is nan.

        Documented deviations are reported but never counted, so they are left
        out here as they are in ``all_passed``.
        """
        residuals = [c.residual for c in self.checks if c.deviation_note is None]
        return math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.deviation_note is None)


# --------------------------------------------------------------------------
# sample domains and the sweep
#
# A domain maps the grid to an iterable of point tuples; a residual takes
# one point's items as arguments and yields the (lhs, rhs[, scale]) items
# compared there.  Points are stacked (their eta values, angles, states,
# spinors and random draws carry a leading batch axis), so the sides carry
# that axis too; the sweep below alone forms and reduces the deviations.

_Domain = Callable[[GridSpec], Iterable[tuple]]


def _sweep(domain: _Domain, residual: Callable[..., Iterable]) -> Callable[[GridSpec], float]:
    """The check ``fn``: the largest ``smallmat.residual`` of any item over the domain.

    Each item is ``(lhs, rhs)`` (scale 1) or ``(lhs, rhs, scale)``; anything
    else raises ``TypeError``.  A nan entry anywhere makes the result nan,
    which fails the check.
    """

    def fn(grid: GridSpec) -> float:
        worst = 0.0
        for point in domain(grid):
            for item in residual(*point):
                if not (isinstance(item, tuple) and len(item) in (2, 3)):
                    raise TypeError(
                        f"a residual yields (lhs, rhs) or (lhs, rhs, scale), got {type(item).__name__}"
                    )
                r = sm.residual(*item)
                worst = math.nan if math.isnan(r) else max(worst, r)
        return worst

    return fn


def _once(grid: GridSpec):
    return ((),)


def _angles(grid: GridSpec):
    """The whole angle list as one stacked point."""
    return ((grid.angle_stack(),),)


def _states(grid: GridSpec):
    """All states, one stacked point per eta."""
    angles = grid.angle_stack()
    return ((grid.states(eta, angles),) for eta in grid.eta_values)


def _sampled(grid: GridSpec):
    """The strided states of the grid's shared sample, as one stacked point."""
    return ((grid._sample[2],),)


def _eta_angles(grid: GridSpec):
    """The strided ``(eta, angles)`` of the grid's shared sample, as one stacked point, with no state."""
    return (grid._sample[:2],)


def _points(partner: tuple[int, int] | None = None) -> _Domain:
    """The points of the grid's shared sample, each with its state: ``(eta, angles, state)``.

    With ``partner = (k, j)`` the i-th point also carries the rotated
    direction ``angles[(k i + j) % len(angles)]`` of the angle list.
    """

    def domain(grid: GridSpec):
        point = grid._sample
        if partner is not None:
            k, j = partner
            index = (k * np.arange(len(point[0])) + j) % (grid.theta_count * grid.phi_count)
            point += (grid.angle(index),)
        return (point,)

    return domain


def _draws(n: int, draw: Callable[[random.Random, GridSpec, int], tuple]) -> _Domain:
    """``n`` seeded random points, as stacked points of at most ``_DRAW_CHUNK`` draws each.

    ``draw(rng, grid, k)`` makes k points.  The chunks read one generator in
    turn, so together they are the rows of ``draw(_rng(), grid, n)``.
    """

    def domain(grid: GridSpec):
        rng = _rng()
        for start in range(0, n, _DRAW_CHUNK):
            yield draw(rng, grid, min(_DRAW_CHUNK, n - start))

    return domain


def _with_spinor(domain: _Domain) -> _Domain:
    """Append a seeded random unit two-spinor to every state of ``domain``'s stacked points."""

    def spinor_domain(grid: GridSpec):
        rng = _rng()
        return ((*point, _unit_spinors(_symmetric(rng, (len(point[0].p), 2, 2))))
                for point in domain(grid))

    return spinor_domain


def _axis_states(grid: GridSpec):
    """One state per eta with the momentum along the z axis, as one stacked point."""
    return ((grid.states(grid.eta_values, PolarAngles(0.0, 0.0)),),)


def _rest_angles(grid: GridSpec):
    """The rest state paired with the whole angle list, as one stacked point."""
    return ((grid.states(0.0, PolarAngles(0.0)), grid.angle_stack()),)


def _dual_points(grid: GridSpec):
    """Full eta x p-direction x n-direction grid on two fixed azimuths.

    One stacked point per eta: every (p theta, n theta) pair, p-major.
    """
    thetas = grid.angle(grid.phi_count * np.arange(grid.theta_count)).theta
    p_angles = PolarAngles(np.repeat(thetas, len(thetas)), 1.0)
    n_angles = PolarAngles(np.tile(thetas, len(thetas)), 2.5)
    for eta in grid.eta_values:
        yield grid.states(eta, p_angles), n_angles


# --------------------------------------------------------------------------
# small helpers

def _rng() -> random.Random:
    return random.Random(_SEED)


def _uniforms(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms on [0, 1) filling ``shape`` in row-major order.

    Each entry is the top 53 bits of 8 bytes of ``rng.randbytes`` (little
    endian) times 2^-53, so a stack of n draws is the first n rows of a stack
    of 2n, and one draw at a time reads the same stream.
    """
    raw = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(shape)


def _symmetric(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms on [-1, 1) filling ``shape`` in row-major order (2u - 1 is exact)."""
    return 2.0 * _uniforms(rng, shape) - 1.0


def _complex_pairs(r: np.ndarray) -> np.ndarray:
    """``r[..., 0, :] + i r[..., 1, :]``: real then imaginary parts, as drawn."""
    return r[..., 0, :] + 1j * r[..., 1, :]


def _unit_spinors(parts: np.ndarray) -> np.ndarray:
    """Unit two-spinors from drawn parts ``(..., 2, 2)``: two real, then two imaginary."""
    phi = _complex_pairs(parts)
    return phi / ki.scaled_norm(phi)[..., None]


def _cmat_pairs(rng, grid, n):
    """``n`` pairs of random complex 4x4 matrices, each drawn as re x, im x, re y, im y."""
    r = _symmetric(rng, (n, 4, 4, 4))
    return r[:, 0] + 1j * r[:, 1], r[:, 2] + 1j * r[:, 3]


def _rel(got, want) -> tuple:
    """The item that measures got - want against max(1, |want|), entry by entry."""
    return got, want, np.maximum(1.0, np.abs(want))


def _outer(x, y):
    """x y+ over the last axis."""
    return np.asarray(x)[..., :, None] * np.conjugate(y)[..., None, :]


def _rest_spin(phi: np.ndarray) -> np.ndarray:
    """Rest-frame spin vector 0.5 phi+ sigma phi of a two-spinor."""
    return sm.stack_last([0.5 * np.vecdot(phi, np.matvec(s, phi)).real for s in ga.PAULI])


def _scaled_eye(x, n: int = 4) -> np.ndarray:
    """x times the n x n identity, for a scalar x or each entry of a stack."""
    return np.asarray(x)[..., None, None] * np.eye(n)


# --------------------------------------------------------------------------
# algebra suite

def _blockmul_oracle(x, y):
    """Block product against an explicit index sum, independent of BLAS ``@``."""
    got = sm.block_mul(sm.disassemble(x), sm.disassemble(y))
    yield got, np.einsum("...ik,...kj->...ij", x, y)


def _dagger_antihom(x, y):
    yield sm.dagger(sm.dagger(x)), x
    yield sm.dagger(x @ y), sm.dagger(y) @ sm.dagger(x)


def _det_mult(x, y):
    yield _rel(sm.det4(x @ y), sm.det4(x) * sm.det4(y))


def _schur_draws(rng, grid, n):
    """``n`` block matrices with AC = CA, each drawn as A, two scalars, B, D (26 entries)."""
    r = _symmetric(rng, (n, 26))

    def cmat2(k):
        return _complex_pairs(r[:, k:k + 8].reshape(n, 2, 4)).reshape(n, 2, 2)

    a = cmat2(0)
    c = r[:, 8, None, None] * a + r[:, 9, None, None] * np.eye(2)
    return (sm.block4(a, cmat2(10), c, cmat2(18)),)


def _schur_oracle(m):
    yield _rel(sm.schur_det(m), sm.det4(m))


def _eig_det(state):
    """Block and dense determinants of the eigenproblem matrix vs its closed form.

    E = +R and E = -R are on shell, where the determinant is exactly 0: both
    are compared with 0 at their own rounding scale (entry magnitude to the
    fourth power: degree-4 cancellation floor).  Off shell, at R + 0.7 mc^2
    and R / 4, both are compared relative to the closed form.
    """
    h = ga.hamiltonian(state)
    energies = (state.R, -state.R, state.R + 0.7 * state.rest_energy, 0.25 * state.R)
    for k, e in enumerate(energies):
        dense_matrix = h - _scaled_eye(e)
        want = 0.0 if k < 2 else (e**2 - (state.c * state.p_abs) ** 2 - state.rest_energy**2) ** 2
        scale = np.maximum(1.0, sm.max_abs_each(dense_matrix) ** 4 if k < 2 else np.abs(want))
        yield sm.schur_det(dense_matrix), want, scale
        yield sm.det4(dense_matrix), want, scale


def _block_rank(state):
    """The Schur complement of H - E vs (E - R)(E + R) / (mc^2 - E): 0 at E = -R, not mc^2 below."""
    h = ga.hamiltonian(state)
    for e in (-state.R, -state.R - state.rest_energy):
        closed = (e - state.R) * (e + state.R) / (state.rest_energy - e)
        yield _rel(sm.schur_complement(h - _scaled_eye(e)), _scaled_eye(closed, 2))


def _clifford():
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * ga.METRIC[mu, nu] * np.eye(4)
            yield ga.anticommutator(ga.GAMMA[mu], ga.GAMMA[nu]), target
    for mu in range(4):
        yield ga.anticommutator(ga.GAMMA[mu], ga.GAMMA5), 0.0


def _alpha_anticomm():
    for r in range(3):
        for s in range(3):
            target = 2.0 * (1.0 if r == s else 0.0) * np.eye(4)
            yield ga.anticommutator(ga.ALPHA[r], ga.ALPHA[s]), target
        yield ga.anticommutator(ga.ALPHA[r], ga.BETA), 0.0
    yield ga.BETA @ ga.BETA, np.eye(4)


def _alpha_spin_comm():
    for r in range(3):
        for q in range(3):
            target = sum(
                2j * ga.levi_civita(r + 1, q + 1, s + 1) * ga.ALPHA[s] for s in range(3)
            )
            yield ga.commutator(ga.ALPHA[r], ga.SPIN[q]), target
    for q in range(3):
        yield ga.commutator(ga.BETA, ga.SPIN[q]), 0.0


def _spin_gamma5():
    return ((ga.SPIN[q], ga.ALPHA[q] @ ga.GAMMA5) for q in range(3))


def _h_spin_comm(state):
    h = ga.hamiltonian(state)
    for q, axis in enumerate(np.eye(3)):
        target = 2j * state.c * ga.alpha_dot(np.cross(state.p, axis))
        yield ga.commutator(h, ga.SPIN[q]), target


def _h_helicity_comm(state):
    h = ga.hamiltonian(state)
    yield ga.commutator(h, ga.spin_dot(state.p)), 0.0
    yield ga.commutator(h, ga.helicity_operator(state)), 0.0


def _h_squared(state):
    h = ga.hamiltonian(state)
    yield h @ h, _scaled_eye(state.R**2)


def _sigma_n_matrix(ang):
    st, ct = np.sin(ang.theta), np.cos(ang.theta)
    top = sm.stack_last([ct, st * np.exp(-1j * ang.phi)])
    bottom = sm.stack_last([st * np.exp(1j * ang.phi), -ct])
    target = np.stack([top, bottom], axis=-2)
    yield ga.sigma_dot(ki.direction(ang)), target


def _vector_pairs(rng, grid, n):
    """``n`` pairs of random real 3-vectors, each drawn as p then n."""
    r = _symmetric(rng, (n, 2, 3))
    return r[:, 0], r[:, 1]


def _pauli_products(p, n):
    sp_, sn = ga.sigma_dot(p), ga.sigma_dot(n)
    target = 1j * ga.sigma_dot(np.cross(p, n)) + _scaled_eye(np.vecdot(p, n), 2)
    yield sp_ @ sn, target
    for k in range(3):
        sandwich = sp_ @ ga.PAULI[k] @ sp_
        twice = (2.0 * p[..., k])[..., None, None] * sp_
        yield sandwich, twice - np.vecdot(p, p)[..., None, None] * ga.PAULI[k]


def _slash_square(state):
    for branch in _BRANCHES:
        p4 = state.momentum_four_vector(branch)
        slash = ga.gamma_slash(p4)
        yield slash @ slash, _scaled_eye(ki.minkowski_dot(p4, p4))
        yield _rel(ki.minkowski_dot(p4, p4), (state.m * state.c) ** 2)


def _on_shell(state):
    for branch in _BRANCHES:
        e = state.energy(branch)
        yield (e / state.c) ** 2 - state.p_abs**2, (state.m * state.c) ** 2


def _eta_rapidity(state):
    th = ki.rapidity(state)
    yield ki.to_eta(state), np.tanh(0.5 * th)
    yield state.R, state.rest_energy * np.cosh(th)
    yield np.cosh(0.5 * th), np.sqrt((state.R + state.rest_energy) / (2.0 * state.rest_energy))


def _eta_round_trip(eta, ang, state):
    yield ki.to_eta(state), eta
    yield _rel(state.rest_energy * (1.0 + eta**2) / ki.one_minus_eta_squared(eta), state.R)


def _wave_numbers(eta, ang, state):
    """k eta = w/c - mc/hbar and k/eta = w/c + mc/hbar for eta > 0, hbar = 1."""
    moving = eta != 0.0
    eta = eta[moving]
    k = state.p_abs[moving]
    w = state.R[moving]
    mc = state.m * state.c
    yield k * eta, w / state.c - mc
    yield k / eta, w / state.c + mc


def _n3_convention(ang):
    """Documented deviation: implemented n3 = cos(theta), printed n3 = cos(phi)."""
    yield np.cos(ang.theta), np.cos(ang.phi)


# --------------------------------------------------------------------------
# spinor suite

def _helicity_eigen_2(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    for lam in _LAMBDAS:
        phi = sp.helicity_spinor(lam, ang)
        yield np.matvec(sn, phi), lam.sign * phi
        yield np.vecdot(phi, phi).real, 1.0


def _spin_direction(ang):
    n = ki.direction(ang)
    for lam in _LAMBDAS:
        yield 2.0 * _rest_spin(sp.helicity_spinor(lam, ang)), lam.sign * n


def _phi_unitary(ang):
    for m in (sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)):
        yield m @ sm.dagger(m), np.eye(2)
        yield sm.dagger(m) @ m, np.eye(2)


def _sigma_factorization(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
    yield pt @ sm.dagger(pm), sn
    yield pm @ sm.dagger(pt), sn


def _phi_swap(ang):
    sn = ga.sigma_dot(ki.direction(ang))
    pm, pt = sp.phi_matrix(ang), sp.phi_tilde_matrix(ang)
    yield sn @ pm, pt
    yield sn @ pt, pm


def _completeness_2(ang):
    phis = [sp.helicity_spinor(lam, ang) for lam in _LAMBDAS]
    yield sum(_outer(phi, phi) for phi in phis), np.eye(2)


def _spin_basis(state):
    u = sp.spin_basis_matrix(state)
    yield u, sm.dagger(u)
    yield u @ u, np.eye(4)
    yield np.abs(sm.det4(u)), 1.0


def _spin_basis_eigen(state):
    """Column k of H U equals e_k times column k of U, e = (R, R, -R, -R)."""
    h = ga.hamiltonian(state)
    u = sp.spin_basis_matrix(state)
    e = state.R[..., None, None] * np.array([1.0, 1.0, -1.0, -1.0])
    yield h @ u, e * u


def _block_squared_norm(state):
    """The unscaled helicity block matrix squares to its scalar norm."""
    pm = sp.phi_matrix(ki.angles_of(state.p))
    sg = state.c * ga.sigma_dot(state.p)
    e = state.R
    upper = (state.rest_energy + e)[..., None, None] * pm
    m = sm.block4(upper, sg @ pm, sg @ pm, -upper)
    target = _scaled_eye((state.rest_energy + e) ** 2 + (state.c * state.p_abs) ** 2)
    yield sm.dagger(m) @ m, target


def _helicity_basis_unitary(state):
    basis = sp.helicity_basis(state)
    yield sm.dagger(basis.V) @ basis.V, np.eye(4)
    yield np.abs(sm.det4(basis.V)), 1.0


def _helicity_eigen_4(state):
    """Column k of (helicity) V equals lam_k times column k of V."""
    lam_op = ga.helicity_operator(state)
    v = sp.helicity_basis(state).V
    yield lam_op @ v, np.array([0.5, -0.5, 0.5, -0.5]) * v


def _hv_exchange(state):
    h = ga.hamiltonian(state)
    basis = sp.helicity_basis(state)
    r = state.R[..., None, None]
    yield h @ basis.V, r * basis.V_tilde
    yield h @ basis.V_tilde, r * basis.V


def _h_factorization(state):
    h = ga.hamiltonian(state)
    basis = sp.helicity_basis(state)
    r = state.R[..., None, None]
    yield h, r * basis.V_tilde @ np.linalg.inv(basis.V)
    yield h, r * basis.V @ np.linalg.inv(basis.V_tilde)


def _v_inverse_sandwich(state):
    """Documented deviation: the printed gamma^0-sandwich inverse of V."""
    v = sp.helicity_basis(state).V
    yield np.linalg.inv(v), ga.GAMMA0 @ sm.dagger(v) @ ga.GAMMA0


def _boost_draws(rng, grid, n):
    """``n`` random states, each with a unit two-spinor.

    Each draw is 7 uniforms: eta in [0, 0.95), theta in [0, pi), phi in
    [0, 2 pi), then the spinor's two real and two imaginary parts.
    """
    u = _uniforms(rng, (n, 7))
    angles = PolarAngles(math.pi * u[:, 1], 2.0 * math.pi * u[:, 2])
    spinors = _unit_spinors(2.0 * u[:, 3:].reshape(n, 2, 2) - 1.0)
    return grid.states(0.95 * u[:, 0], angles), spinors


def _boost_direct(state, phi):
    boosted = sp.boost_bispinor(phi, state)
    direct = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    yield boosted, direct


def _adjoint_orthogonality(state):
    """u-bar(lam) v(-lam) = 0; v(-lam) carries the two-spinor of lam."""
    ang = ki.angles_of(state.p)
    for lam in _LAMBDAS:
        u = sp.helicity_bispinor(lam, _POS, ang, state, Normalization.INVARIANT_2MC)
        v = sp.helicity_bispinor(lam.flipped, _NEG, ang, state, Normalization.INVARIANT_2MC)
        # u-bar v; vecdot conjugates its first argument, conjugating first cancels that
        yield np.vecdot(np.conjugate(ob.dirac_adjoint(u)), v), 0.0


def _norm_ratio(state, phi):
    """u+u / phi+phi = 2E/(E + mc^2) for the raw block construction."""
    raw = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    ratio = np.vecdot(raw, raw).real / np.abs(ob.adjoint_norm(raw))
    yield _rel(ratio, state.R / state.rest_energy)


def _eta_determinant(eta, ang):
    cols = [
        sp.eta_bispinor(lam, branch, eta, ang, volume=1.0)
        for branch in _BRANCHES
        for lam in _LAMBDAS
    ]
    m = sm.stack_last(cols) * np.sqrt(1.0 + eta**2)[..., None, None]
    yield sm.det4(m), ki.one_minus_eta_squared(eta) ** 2


def _norm_conversion(eta, ang, state):
    """Box -> 2mc-invariant normalization replacement factor."""
    volume = 2.5
    factor = np.sqrt(volume * (1.0 + eta**2)) * np.sqrt(
        2.0 * state.m * state.c / ki.one_minus_eta_squared(eta)
    )
    for branch in _BRANCHES:
        for lam in _LAMBDAS:
            column = factor[..., None] * sp.eta_bispinor(lam, branch, eta, ang, volume)
            norm = ob.adjoint_norm(column)
            yield norm, branch.sign * 2.0 * state.m * state.c


def _conjugation(eta, ang, lam):
    plus = sp.eta_bispinor(lam, _POS, eta, ang)
    minus = sp.eta_bispinor(lam, _NEG, eta, ang)
    yield sp.charge_conjugate(plus), minus


def _complex4s(rng, grid, n):
    """``n`` random complex 4-vectors, each drawn as real then imaginary parts."""
    return (_complex_pairs(_symmetric(rng, (n, 2, 4))),)


def _conjugation_square(u):
    """Double charge conjugation is the identity (+u, recorded empirically)."""
    yield sp.charge_conjugate(sp.charge_conjugate(u)), u


def _nonrel_limit():
    """The spin basis approaches diag(1, 1, -1, -1) at the 3/c rate."""
    rest = np.diag([1.0, 1.0, -1.0, -1.0])
    previous = math.inf
    for c in (10.0, 100.0, 1000.0):
        state = MomentumState(1.0, np.array([0.0, 0.0, 1.0]), c)
        deficit = sm.residual(sp.spin_basis_matrix(state), rest)
        yield max(0.0, deficit - 3.0 / c), 0.0
        if deficit >= previous:
            yield 1.0, 0.0
        previous = deficit


# --------------------------------------------------------------------------
# covariant suite

def _polarization_invariants(eta, ang, state, partner):
    p4 = state.momentum_four_vector(_POS)
    for n_ang in (ang, partner):
        a = ob.polarization_four_vector(state, ki.direction(n_ang))
        yield ki.minkowski_dot(p4, a), 0.0, np.maximum(1.0, state.R)
        yield ki.minkowski_dot(a, a), -1.0


def _polarization_dual(state, n_ang):
    """Closed form vs bilinear."""
    n = ki.direction(n_ang)
    closed = ob.polarization_four_vector(state, n).as_array()
    bil = ob.polarization_from_bilinear(state, n).as_array()
    yield closed, bil


def _polarization_rest(rest, ang):
    n = ki.direction(ang)
    a = ob.polarization_four_vector(rest, n)
    yield a.t, 0.0
    yield a.r, n


def _polarization_equation(eta, ang, state, n_ang):
    u = sp.helicity_bispinor(Helicity.PLUS, _POS, n_ang, state, Normalization.INVARIANT_UNIT)
    a = ob.polarization_four_vector(state, ki.direction(n_ang))
    yield np.matvec(ob.polarization_constraint(a), u), 0.0


def _current(state, phi):
    u = sp.bispinor_block(1.7 * phi, state, _POS, Normalization.UNIT) * 1.3
    j = ob.current_density(u).as_array()
    norm = ob.adjoint_norm(u)[..., None]
    p4 = state.momentum_four_vector(_POS).as_array()
    yield j / norm, p4 / (state.m * state.c)


def _adjoint_norms(state, phi):
    mc2 = 2.0 * state.m * state.c
    u1 = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_UNIT)
    u2 = sp.bispinor_block(phi, state, _POS, Normalization.INVARIANT_2MC)
    v2 = sp.bispinor_block(phi, state, _NEG, Normalization.INVARIANT_2MC)
    yield ob.adjoint_norm(u1), 1.0
    yield ob.adjoint_norm(u2), mc2
    yield ob.adjoint_norm(v2), -mc2


def _spin_relation(state, phi):
    s_rel = ob.spin_expectations(sp.bispinor_block(phi, state, _POS, Normalization.UNIT))
    yield s_rel, ob.relate_spin_expectations(state, _rest_spin(phi))


def _spin_relation_axis(state, phi):
    """z along p: transverse components scale by mc^2/E, longitudinal fixed."""
    s_rel = ob.spin_expectations(sp.bispinor_block(phi, state, _POS, Normalization.UNIT))
    s_rest = _rest_spin(phi)
    scale = state.rest_energy / state.R
    target = sm.stack_last([scale * s_rest[..., 0], scale * s_rest[..., 1], s_rest[..., 2]])
    yield s_rel, target


def _spin_bound(state, phi):
    s_rel = ob.spin_expectations(sp.bispinor_block(phi, state, _POS, Normalization.UNIT))
    s_rest = _rest_spin(phi)
    excess = np.sqrt(np.vecdot(s_rel, s_rel)) - np.sqrt(np.vecdot(s_rest, s_rest))
    yield np.maximum(0.0, excess), 0.0


# --------------------------------------------------------------------------
# density suite

def _nonrel_density(ang):
    n = ki.direction(ang)
    for lam in _LAMBDAS:
        phi = sp.helicity_spinor(lam, ang)
        rho = de.nonrel_density(lam, n)
        yield _outer(phi, phi), rho
        yield rho @ rho, rho
        yield _trace(rho).real, 1.0


def _projector_algebra(state):
    mc2 = 2.0 * state.m * state.c
    plus = de.energy_projector(state, _POS)
    minus = de.energy_projector(state, _NEG)
    yield plus + minus, mc2 * np.eye(4)
    yield plus @ minus, 0.0
    yield minus @ plus, 0.0
    yield plus @ plus, mc2 * plus
    yield minus @ minus, mc2 * minus


def _projector_sum(eta, ang, state, branch):
    total = 0.0
    for lam in _LAMBDAS:
        u = sp.helicity_bispinor(lam, branch, ang, state, Normalization.INVARIANT_2MC)
        total = total + de.outer_with_adjoint(u)
    yield total, branch.sign * de.energy_projector(state, branch)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _density_trace(eta, ang, state):
    mc2 = 2.0 * state.m * state.c
    n = ki.direction(ang)
    for lam in _LAMBDAS:
        yield _trace(de.density4(state, _POS, lam, n)), mc2
        u = sp.helicity_bispinor(lam, _POS, ang, state, Normalization.INVARIANT_2MC)
        yield _trace(de.outer_with_adjoint(u)), mc2


def _projector_trace(state):
    """Documented deviation: printed trace 2mc vs actual 4mc."""
    trace = _trace(de.energy_projector(state, _POS))
    yield trace, 2.0 * state.m * state.c


def _density_outer(eta, ang, state, partner, branch):
    for n_ang in (ang, partner):
        n = ki.direction(n_ang)
        for lam in _LAMBDAS:
            closed = de.density4(state, branch, lam, n)
            yield closed, de.density4_outer(state, branch, lam, n)


def _matrix(rows) -> np.ndarray:
    """Complex matrix, or stack of matrices, from nested rows of broadcastable entries."""
    entries = np.broadcast_arrays(*(np.asarray(x, dtype=np.complex128) for row in rows for x in row))
    return sm.stack_last(entries).reshape(entries[0].shape + (len(rows), len(rows[0])))


def _factors(eta, ang: PolarAngles):
    """The printed matrices' factors: cos, sin of theta and theta/2, exp(-/+ i phi), eta^2."""
    return (np.cos(ang.theta), np.sin(ang.theta), np.cos(0.5 * ang.theta),
            np.sin(0.5 * ang.theta), np.exp(-1j * ang.phi), np.exp(1j * ang.phi), eta**2)


def _projector_plus(eta, ang: PolarAngles):
    """Printed eta matrix of mc + p-slash."""
    ct, st, _, _, em, ep, e2 = _factors(eta, ang)
    return _matrix(
        [
            [1, 0, -eta * ct, -eta * st * em],
            [0, 1, -eta * st * ep, eta * ct],
            [eta * ct, eta * st * em, -e2, 0],
            [eta * st * ep, -eta * ct, 0, -e2],
        ]
    )


def _projector_minus(eta, ang: PolarAngles):
    """Printed eta matrix of p-slash - mc."""
    ct, st, _, _, em, ep, e2 = _factors(eta, ang)
    return _matrix(
        [
            [e2, 0, -eta * ct, -eta * st * em],
            [0, e2, -eta * st * ep, eta * ct],
            [eta * ct, eta * st * em, -1, 0],
            [eta * st * ep, -eta * ct, 0, -1],
        ]
    )


def _polarizer_plus(eta, ang: PolarAngles):
    """Printed eta matrix of 1 - gamma_5 a-slash."""
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    return _matrix(
        [
            [ch**2 - e2 * sh**2, 0.5 * (1 + e2) * st * em, -eta, 0],
            [0.5 * (1 + e2) * st * ep, sh**2 - e2 * ch**2, 0, -eta],
            [eta, 0, sh**2 - e2 * ch**2, -0.5 * (1 + e2) * st * em],
            [0, eta, -0.5 * (1 + e2) * st * ep, ch**2 - e2 * sh**2],
        ]
    )


def _polarizer_minus(eta, ang: PolarAngles):
    """Printed eta matrix of 1 + gamma_5 a-slash."""
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    return _matrix(
        [
            [sh**2 - e2 * ch**2, -0.5 * (1 + e2) * st * em, eta, 0],
            [-0.5 * (1 + e2) * st * ep, ch**2 - e2 * sh**2, 0, eta],
            [-eta, 0, ch**2 - e2 * sh**2, 0.5 * (1 + e2) * st * em],
            [0, -eta, 0.5 * (1 + e2) * st * ep, sh**2 - e2 * ch**2],
        ]
    )


def _rank_one_plus(eta, ang: PolarAngles):
    """Printed rank-one product of the positive-branch, helicity +1/2 state."""
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    ct2, st2, s = ch**2, sh**2, 0.5 * st
    return ki.one_minus_eta_squared(eta)[..., None, None] * _matrix(
        [
            [ct2, s * em, -eta * ct2, -eta * s * em],
            [s * ep, st2, -eta * s * ep, -eta * st2],
            [eta * ct2, eta * s * em, -e2 * ct2, -e2 * s * em],
            [eta * s * ep, eta * st2, -e2 * s * ep, -e2 * st2],
        ]
    )


def _rank_one_minus(eta, ang: PolarAngles):
    """Printed rank-one product of the negative-branch, helicity -1/2 state."""
    _, st, ch, sh, em, ep, e2 = _factors(eta, ang)
    ct2, st2, s = ch**2, sh**2, 0.5 * st
    return ki.one_minus_eta_squared(eta)[..., None, None] * _matrix(
        [
            [e2 * ct2, e2 * s * em, -eta * ct2, -eta * s * em],
            [e2 * s * ep, e2 * st2, -eta * s * ep, -eta * st2],
            [eta * ct2, eta * s * em, -ct2, -s * em],
            [eta * s * ep, eta * st2, -s * ep, -st2],
        ]
    )


def _explicit_projector(eta, ang, state, branch):
    scale = ki.one_minus_eta_squared(eta) / (2.0 * state.m * state.c)
    got = scale[..., None, None] * de.energy_projector(state, branch)
    yield got, (_projector_plus(eta, ang) if branch is _POS else -_projector_minus(eta, ang))


def _explicit_polarizer(eta, ang, state, lam):
    a = ob.polarization_four_vector(state, lam.sign * ki.direction(ang))
    got = (0.5 * ki.one_minus_eta_squared(eta))[..., None, None] * de.polarizer(a)
    yield got, (_polarizer_plus(eta, ang) if lam is Helicity.PLUS else _polarizer_minus(eta, ang))


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
    yield product, target
    raw = sp.eta_bispinor(lam, branch, eta, ang, volume=1.0) * np.sqrt(1.0 + eta**2)[..., None]
    yield ki.one_minus_eta_squared(eta)[..., None, None] * de.outer_with_adjoint(raw), target


def _block_factor(eta, ang, branch):
    """Density matrices factor into a scalar block pattern times rho(n)."""
    n = ki.direction(ang)
    eta_ = eta[..., None, None]
    e2 = eta_**2
    for lam in _LAMBDAS:
        got = de.density_block_form(eta, ang, branch, lam)
        s = lam.sign
        if branch is _POS:
            rho = de.nonrel_density(lam, n)
            target = sm.block4(rho, -s * eta_ * rho, s * eta_ * rho, -e2 * rho)
        else:
            rho = de.nonrel_density(lam.flipped, n)
            target = sm.block4(e2 * rho, s * eta_ * rho, -s * eta_ * rho, -rho)
        yield got, target


def _sigma_tensor():
    table = {
        (0, 1): ga.ALPHA[0],
        (0, 2): ga.ALPHA[1],
        (0, 3): ga.ALPHA[2],
        (1, 2): -1j * ga.SPIN[2],
        (1, 3): 1j * ga.SPIN[1],
        (2, 3): -1j * ga.SPIN[0],
    }
    for mu in range(4):
        yield de.sigma_tensor(mu, mu), 0.0
        for nu in range(4):
            yield de.sigma_tensor(mu, nu), -de.sigma_tensor(nu, mu)
    for (mu, nu), target in table.items():
        yield de.sigma_tensor(mu, nu), target


def _slash_pair(eta, ang, state, n_ang):
    a = ob.polarization_four_vector(state, ki.direction(n_ang))
    p4 = state.momentum_four_vector(_POS)
    contraction = de.slash_pair(p4, a)
    yield contraction, de.slash_pair_components(p4, a)
    lhs = ga.gamma_slash(p4) @ ga.GAMMA5_LOWER @ ga.gamma_slash(a)
    yield lhs, -(ga.GAMMA5_LOWER @ contraction)


def _covariant_decomposition(state):
    """Projector times polarizer: its covariant expansion, and its 2x2-block product.

    The polarization direction is p/|p|, or the z axis at rest.
    """
    n = ki.momentum_axis(state)
    for branch in _BRANCHES:
        projector = de.energy_projector(state, branch)
        for lam in _LAMBDAS:
            a = ob.polarization_four_vector(state, lam.sign * n)
            polarizer = de.polarizer(a)
            product = projector @ polarizer
            yield product, de.covariant_decomposition(state, branch, a)
            yield sm.block_mul(sm.disassemble(projector), sm.disassemble(polarizer)), product


def _parallel_polarization(eta, ang, state):
    """Polarization components when p is along n."""
    n = ki.direction(ang)
    a = ob.polarization_four_vector(state, n)
    yield a.t, 2.0 * eta / ki.one_minus_eta_squared(eta)
    yield a.r, ((1.0 + eta**2) / ki.one_minus_eta_squared(eta))[..., None] * n


# --------------------------------------------------------------------------
# fermi suite

def _fermi_eigen(state):
    """Every original bi-spinor is a +R eigenvector (the audited claim)."""
    h = ga.hamiltonian(state)
    for u in fe.fermi_bispinors_original(state):
        yield np.matvec(h, u), state.R[..., None] * u


def _fermi_dependence(state):
    yield sm.det4(sm.stack_last(fe.fermi_bispinors_original(state))), 0.0


def _fermi_corrected(state):
    h = ga.hamiltonian(state)
    columns = fe.fermi_bispinors_corrected(state)
    for u, sign in zip(columns, (1.0, 1.0, -1.0, -1.0)):
        yield np.matvec(h, u), (sign * state.R)[..., None] * u
    yield np.abs(sm.det4(sm.stack_last(columns))), 1.0


def _fermi_clifford():
    gammas = fe.fermi_gamma_set()
    for i, g1 in enumerate(gammas):
        yield g1 @ g1, np.eye(4)
        for g2 in gammas[i + 1:]:
            yield ga.anticommutator(g1, g2), 0.0


def _fermi_alpha_relation():
    g1, g2, g3, _ = fe.fermi_gamma_set()
    for alpha, g in zip(ga.ALPHA, (g1, g2, g3)):
        yield alpha, 1j * ga.BETA @ g


def _fermi_eigenvalues():
    """trace 0, trace of square 4, det 1: eigenvalues +1 twice, -1 twice."""
    m = np.stack((fe.FERMI_GAMMA4,) + tuple(ga.ALPHA) + fe.fermi_gamma_set()[:3])
    yield _trace(m), 0.0
    yield _trace(m @ m), 4.0
    yield sm.det4(m), 1.0


def _fermi_projectors(state):
    pr = fe.fermi_projectors(state)
    h = ga.hamiltonian(state)
    r = state.R[..., None, None]
    yield pr.P + pr.N, np.eye(4)
    yield pr.P @ pr.P, pr.P
    yield pr.N @ pr.N, pr.N
    yield pr.P @ pr.N, 0.0
    yield pr.P, (r * np.eye(4) + h) / (2.0 * r)


def _fermi_projector_action(state):
    pr = fe.fermi_projectors(state)
    u1, u2, u3, u4 = fe.fermi_bispinors_corrected(state)
    for u in (u1, u2):
        yield np.matvec(pr.P, u), u
        yield np.matvec(pr.N, u), 0.0
    for u in (u3, u4):
        yield np.matvec(pr.N, u), u
        yield np.matvec(pr.P, u), 0.0


def _fermi_sigma_primes():
    for prime, spin in zip(fe.fermi_sigma_primes(), ga.SPIN):
        yield prime, spin


# --------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class RegistryEntry:
    id: str
    suite: str
    description: str
    fn: Callable[[GridSpec], float]
    deviation_note: str | None = None


def _entry(id: str, suite: str, description: str, domain: _Domain, residual,
           **options) -> RegistryEntry:
    return RegistryEntry(id, suite, description, _sweep(domain, residual), **options)


REGISTRY: tuple[RegistryEntry, ...] = (
    # algebra
    _entry("blockmul-oracle", "algebra", "2x2-block product agrees with the dense product", _draws(1000, _cmat_pairs), _blockmul_oracle),
    _entry("dagger-antihom", "algebra", "conjugate transpose is an involutive anti-homomorphism", _draws(200, _cmat_pairs), _dagger_antihom),
    _entry("det-mult", "algebra", "det(XY) = det(X) det(Y) for 4x4 cofactor determinants", _draws(200, _cmat_pairs), _det_mult),
    _entry("schur-oracle", "algebra", "Schur block determinant agrees with the dense determinant", _draws(300, _schur_draws), _schur_oracle),
    _entry("eig-det", "algebra", "plane-wave matrix determinant equals (E^2 - c^2 p^2 - m^2 c^4)^2", _sampled, _eig_det),
    _entry("block-rank", "algebra", "rank-2 criterion D = C A^-1 B holds exactly on shell", _sampled, _block_rank),
    _entry("clifford", "algebra", "gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu}; gamma^5 anticommutes", _once, _clifford),
    _entry("alpha-anticomm", "algebra", "alpha/beta anticommutation relations", _once, _alpha_anticomm),
    _entry("alpha-spin-comm", "algebra", "[alpha_r, Sigma_q] = 2i e_{rqs} alpha_s and [beta, Sigma_q] = 0", _once, _alpha_spin_comm),
    _entry("spin-gamma5", "algebra", "Sigma_q = alpha_q gamma^5", _once, _spin_gamma5),
    _entry("h-spin-comm", "algebra", "[H, Sigma_q] = 2ic (alpha x p)_q", _sampled, _h_spin_comm),
    _entry("h-helicity-comm", "algebra", "[H, Sigma.p] = 0 and [H, helicity] = 0", _sampled, _h_helicity_comm),
    _entry("h-squared", "algebra", "H^2 = (c^2 p^2 + m^2 c^4) identity", _sampled, _h_squared),
    _entry("sigma-n-matrix", "algebra", "sigma.n equals its explicit half-angle form", _angles, _sigma_n_matrix),
    _entry("pauli-products", "algebra", "(sigma.p)(sigma.n) and (sigma.p) sigma (sigma.p) expansions", _draws(200, _vector_pairs), _pauli_products),
    _entry("slash-square", "algebra", "p-slash squared = p.p = m^2 c^2 on shell", _sampled, _slash_square),
    _entry("on-shell", "algebra", "(E/c)^2 - p^2 - m^2 c^2 = 0 on both branches", _sampled, _on_shell),
    _entry("eta-rapidity", "algebra", "eta = tanh(th/2) and the half-angle energy relations", _sampled, _eta_rapidity),
    _entry("eta-round-trip", "algebra", "eta parametrization inverts exactly", _points(), _eta_round_trip),
    _entry("wave-numbers", "algebra", "k eta = w/c - mc/hbar and k/eta = w/c + mc/hbar", _points(), _wave_numbers),
    _entry(
        "n3-convention", "algebra",
        "difference between implemented n3 = cos(theta) and printed n3 = cos(phi)",
        _angles, _n3_convention,
        deviation_note=(
            "One printed component list gives n3 = cos(phi), inconsistent with the "
            "explicit sigma.n matrix and wave-vector components used everywhere "
            "else; the library implements n3 = cos(theta)."
        ),
    ),
    # spinors
    _entry("helicity-eigen-2", "spinors", "two-spinor helicity eigenvalue equations", _angles, _helicity_eigen_2),
    _entry("spin-direction", "spinors", "phi+ sigma phi = +/- n", _angles, _spin_direction),
    _entry("phi-unitary", "spinors", "helicity column matrices are unitary", _angles, _phi_unitary),
    _entry("sigma-factorization", "spinors", "sigma.n factorizes through the helicity column matrices", _angles, _sigma_factorization),
    _entry("phi-swap", "spinors", "sigma.n swaps the two helicity column matrices", _angles, _phi_swap),
    _entry("completeness-2", "spinors", "sum of helicity spinor outer products is the 2x2 identity", _angles, _completeness_2),
    _entry("spin-basis", "spinors", "spin basis matrix is Hermitian, involutive, unimodular", _sampled, _spin_basis),
    _entry("spin-basis-eigen", "spinors", "spin basis columns are (+R, +R, -R, -R) eigenvectors", _states, _spin_basis_eigen),
    _entry("block-squared-norm", "spinors", "unscaled helicity block matrix has scalar M+ M", _sampled, _block_squared_norm),
    _entry("helicity-basis-unitary", "spinors", "helicity basis matrix is unitary and unimodular", _sampled, _helicity_basis_unitary),
    _entry("helicity-eigen-4", "spinors", "helicity basis columns have helicities (+,-,+,-)/2", _states, _helicity_eigen_4),
    _entry("hv-exchange", "spinors", "H V = R V-tilde and H V-tilde = R V", _sampled, _hv_exchange),
    _entry("h-factorization", "spinors", "H = R V-tilde V^-1 = R V V-tilde^-1", _sampled, _h_factorization),
    _entry(
        "v-inverse-sandwich", "spinors",
        "difference between V^-1 and the printed gamma^0 V+ gamma^0 formula",
        _sampled, _v_inverse_sandwich,
        deviation_note=(
            "The printed inverse formula V^-1 = gamma^0 V+ gamma^0 fails for "
            "|p| > 0; V is unitary (V^-1 = V+), which is the invariant the "
            "library asserts."
        ),
    ),
    _entry("boost-direct", "spinors", "boosted rest spinor equals the direct block construction", _draws(100, _boost_draws), _boost_direct),
    _entry("adjoint-orthogonality", "spinors", "u-bar v = 0 across branches", _sampled, _adjoint_orthogonality),
    _entry("norm-ratio", "spinors", "u+u / phi+phi = 2E/(E + mc^2) shape of the block solution", _with_spinor(_sampled), _norm_ratio),
    _entry("eta-determinant", "spinors", "stacked eta columns have determinant (1 - eta^2)^2", _eta_angles, _eta_determinant),
    _entry("norm-conversion", "spinors", "box to 2mc-invariant conversion factor", _points(), _norm_conversion),
    _entry("conjugation-plus", "spinors", "i gamma^2 conj maps (+R, +1/2) onto (-R, +1/2)", _eta_angles, partial(_conjugation, lam=Helicity.PLUS)),
    _entry("conjugation-minus", "spinors", "i gamma^2 conj maps (+R, -1/2) onto (-R, -1/2)", _eta_angles, partial(_conjugation, lam=Helicity.MINUS)),
    _entry("conjugation-square", "spinors", "double charge conjugation is the identity", _draws(50, _complex4s), _conjugation_square),
    _entry("nonrel-limit", "spinors", "spin basis approaches its rest form below 3/c", _once, _nonrel_limit),
    # covariant
    _entry("polarization-invariants", "covariant", "p.a = 0 and a.a = -1", _points(partner=(7, 0)), _polarization_invariants),
    _entry("polarization-dual", "covariant", "closed-form polarization vector equals the bilinear route", _dual_points, _polarization_dual),
    _entry("polarization-rest", "covariant", "at rest the polarization vector is (0, n)", _rest_angles, _polarization_rest),
    _entry("polarization-equation", "covariant", "(gamma_5 a-slash + 1) u = 0 on matched states", _points(partner=(11, 0)), _polarization_equation),
    _entry("current", "covariant", "j^mu / (u-bar u) = p^mu / (m c) for any spinor scale", _with_spinor(_sampled), _current),
    _entry("adjoint-norms", "covariant", "invariant normalizations evaluate to 1, 2mc, -2mc", _with_spinor(_sampled), _adjoint_norms),
    _entry("spin-relation", "covariant", "relativistic vs rest spin expectation relation", _with_spinor(_sampled), _spin_relation),
    _entry("spin-relation-axis", "covariant", "longitudinal spin fixed, transverse scaled by mc^2/E", _with_spinor(_axis_states), _spin_relation_axis),
    _entry("spin-bound", "covariant", "|<S>| never exceeds |<s>|", _with_spinor(_sampled), _spin_bound),
    # density
    _entry("nonrel-density", "density", "2x2 density matrices: outer product, idempotent, trace 1", _angles, _nonrel_density),
    _entry("projector-algebra", "density", "energy projector sums, products, squares", _sampled, _projector_algebra),
    _entry("projector-sum-plus", "density", "sum of positive-branch outer products is mc + p-slash", _points(), partial(_projector_sum, branch=_POS)),
    _entry("projector-sum-minus", "density", "sum of negative-branch outer products is -(mc - p-slash)", _points(), partial(_projector_sum, branch=_NEG)),
    _entry("density-trace", "density", "pure-state density matrices have trace 2mc", _points(), _density_trace),
    _entry(
        "projector-trace", "density",
        "difference between trace(mc + p-slash) and the printed value 2mc",
        _sampled, _projector_trace,
        deviation_note=(
            "trace(mc + p-slash) = 4mc (each of the two summed outer products "
            "contributes 2mc); the printed trace statement says 2mc."
        ),
    ),
    _entry("density-outer-plus", "density", "closed-form rho_+ equals the outer product, both helicities", _points(partner=(9, 5)), partial(_density_outer, branch=_POS)),
    _entry("density-outer-minus", "density", "closed-form rho_- equals minus the outer product, both helicities", _points(partner=(9, 5)), partial(_density_outer, branch=_NEG)),
    _entry("explicit-projector-plus", "density", "explicit eta matrix of mc + p-slash", _points(), partial(_explicit_projector, branch=_POS)),
    _entry("explicit-projector-minus", "density", "explicit eta matrix of mc - p-slash", _points(), partial(_explicit_projector, branch=_NEG)),
    _entry("explicit-polarizer-plus", "density", "explicit eta matrix of 1 - gamma_5 a-slash", _points(), partial(_explicit_polarizer, lam=Helicity.PLUS)),
    _entry("explicit-polarizer-minus", "density", "explicit eta matrix of 1 + gamma_5 a-slash", _points(), partial(_explicit_polarizer, lam=Helicity.MINUS)),
    _entry("explicit-rank-one-plus", "density", "explicit positive-branch rank-one product matrix", _eta_angles, partial(_explicit_rank_one, branch=_POS)),
    _entry("explicit-rank-one-minus", "density", "explicit negative-branch rank-one product matrix", _eta_angles, partial(_explicit_rank_one, branch=_NEG)),
    _entry("block-factor-plus", "density", "positive-branch block factorization through rho(n)", _eta_angles, partial(_block_factor, branch=_POS)),
    _entry("block-factor-minus", "density", "negative-branch block factorization through rho(n)", _eta_angles, partial(_block_factor, branch=_NEG)),
    _entry("sigma-tensor", "density", "antisymmetric gamma-pair tensor matches its component table", _once, _sigma_tensor),
    _entry("slash-pair", "density", "p-slash gamma_5 a-slash = -gamma_5 (pa-contraction)", _points(partner=(13, 0)), _slash_pair),
    _entry("covariant-decomposition", "density", "covariant density decomposition, dense and block routes", _sampled, _covariant_decomposition),
    _entry("parallel-polarization", "density", "polarization components for p along n", _points(), _parallel_polarization),
    # fermi
    _entry("fermi-eigen", "fermi", "all four original bi-spinors satisfy H u = +R u", _sampled, _fermi_eigen),
    _entry("fermi-dependence", "fermi", "original bi-spinor determinant vanishes", _sampled, _fermi_dependence),
    _entry("fermi-corrected", "fermi", "corrected set: (+R, +R, -R, -R) eigenvectors, unimodular", _sampled, _fermi_corrected),
    _entry("fermi-clifford", "fermi", "variant gamma set squares to 1 and pairwise anticommutes", _once, _fermi_clifford),
    _entry("fermi-alpha-relation", "fermi", "alpha_k = i beta gamma_k for the variant gammas", _once, _fermi_alpha_relation),
    _entry("fermi-eigenvalues", "fermi", "the seven matrices have eigenvalues +1 twice, -1 twice", _once, _fermi_eigenvalues),
    _entry("fermi-projectors", "fermi", "H/R projectors are idempotent, complementary, orthogonal", _sampled, _fermi_projectors),
    _entry("fermi-projector-action", "fermi", "projectors select the corrected energy pairs", _sampled, _fermi_projector_action),
    _entry("fermi-sigma-primes", "fermi", "primed spin matrices equal the block-diagonal spin set", _once, _fermi_sigma_primes),
)


def registry_ids(suite: str | None = None) -> list[str]:
    return sorted(e.id for e in REGISTRY if suite is None or e.suite == suite)


def _claim(grid: GridSpec, claims: int) -> Iterator[tuple[int, float]]:
    """``(index, residual)`` of each registry entry claimed from the pipe ``claims``, one index byte per read.

    Claims until the pipe is empty or an entry raises.  The raising entry is
    left out, and nothing is claimed after it: ``_evaluate``'s loop runs it
    again and raises its exception where the registry order meets it.
    """
    while claim := os.read(claims, 1):
        try:
            residual = float(REGISTRY[claim[0]].fn(grid))
        except Exception:
            return
        yield claim[0], residual


def _claim_with_worker(grid: GridSpec, indices: list[int]) -> dict[int, float]:
    """Residuals that this process and one forked worker ``_claim`` from a pipe of ``indices``.

    The indices go into the pipe one byte each (the registry has fewer than
    256 entries); a 1-byte read is atomic, so no entry runs twice.  The
    worker sends one ``_RECORD`` per residual as soon as it has it, and ends
    with ``os._exit``, writing no output and running no exit handler.  A
    record is one write below ``PIPE_BUF``, so it arrives whole: a worker
    that dies has sent every residual it finished.  A failed pipe, write or
    fork claims nothing.  A fork that does not fail returns the worker's pid:
    CPython 3.12 and later warn at a fork beside another thread, but never
    raise, even under ``-W error``.  The worker is reaped here.  If this
    process fails before that, a worker that has not ended is killed first,
    and the failure is the exception raised.
    """
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        claims, feed, results, sink = fds
        os.write(feed, bytes(indices))  # fewer bytes than the pipe buffer: never blocks
        pid = os.fork()
    except OSError:  # a descriptor or process limit: the loop evaluates every entry
        for fd in fds:
            os.close(fd)
        return {}
    os.close(feed)
    if pid == 0:
        try:
            for record in _claim(grid, claims):
                os.write(sink, _RECORD.pack(*record))
        finally:
            os._exit(0)  # the parent reads the records, not the exit status
    os.close(sink)
    try:
        done = dict(_claim(grid, claims))
        with open(results, "rb", closefd=False) as stream:
            sent = stream.read()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # SIGCHLD is ignored: the kernel has reaped the worker
            pass
        pid = 0
        return done | dict(_RECORD.iter_unpack(sent))
    finally:
        os.close(claims)
        os.close(results)
        if pid:  # this process failed before it reaped the worker: kill it unless it has ended, and reap it
            try:
                # signal only a worker that has not ended: with SIGCHLD ignored the
                # kernel may have reaped it already, and its pid could be reused
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    import signal  # only this path needs it, so a verify run does not import it

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):  # the kernel reaped it: it has ended
                pass


def _evaluate(grid: GridSpec, indices: list[int]) -> dict[int, float]:
    """The residual of each registry entry in ``indices``, keyed by index.

    One loop evaluates the entries in the order given, so the first
    exception it meets is the one raised.  With at least two CPUs in this
    process's affinity and no other Python thread running, this process and
    a forked worker fill in ``done`` ahead of the loop.  Each entry reads
    only the grid and its own seeded generator, so where it ran changes no
    residual and no exception.
    """
    # read from sys.modules so that a verify run imports nothing new; a fork
    # beside another thread could copy a lock that thread holds
    threading = sys.modules.get("threading")
    done: dict[int, float] = {}
    if (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and (threading is None or threading.active_count() == 1)):
        done = _claim_with_worker(grid, indices)
    return {i: done[i] if i in done else float(REGISTRY[i].fn(grid)) for i in indices}


def run_suite(suite: str = "all", grid: GridSpec | None = None,
              tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run one suite (or all) over the grid; a check passes when its residual is at most ``tol``.

    The checks run in this process and, with a second CPU, in one forked
    worker (see ``_evaluate``); the report does not depend on which ran where.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    grid = grid or GridSpec()
    selected = [(i, entry) for i, entry in enumerate(REGISTRY) if suite in ("all", entry.suite)]
    residuals = _evaluate(grid, [i for i, _ in selected])
    checks = [
        IdentityCheck(
            id=entry.id,
            description=entry.description,
            residual=residuals[i],
            passed=residuals[i] <= tol,
            deviation_note=entry.deviation_note,
        )
        for i, entry in selected
    ]
    checks.sort(key=lambda c: c.id)
    return VerificationReport(suite=suite, grid=grid, tolerance=tol, checks=checks)
