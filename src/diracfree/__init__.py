"""Free Dirac-particle plane waves, helicity states, and density matrices.

A small numerical library that constructs every standard object of the
free spin-1/2 eigenvalue problem -- Pauli/Dirac/covariant gamma matrices,
plane-wave bi-spinors on both energy branches, helicity bases, the
polarization four-vector, energy projectors, and pure-state polarization
density matrices -- and machine-verifies the matrix identities relating
them.  See the ``verify`` module and the ``diracfree`` CLI for the
identity registry.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    DiracFreeError,
    EtaOutOfRange,
    IndexOutOfRange,
    MasslessState,
    NonCommutingBlocks,
    NonPositiveVolume,
    NonUnitDirection,
    SingularA,
    UnknownSuite,
    UnnormalizablePhi,
    ZeroMomentum,
)
from .smallmat import (
    DEFAULT_TOL,
    Block2x2,
    assemble,
    block_mul,
    block_rank_is_n,
    cmat,
    dagger,
    det2,
    det4,
    disassemble,
    mat_mul,
    max_abs,
    schur_det,
)
from .kinematics import (
    EnergyBranch,
    FourVector,
    MomentumState,
    PhysicalConstants,
    PolarAngles,
    angles_of,
    direction,
    from_eta,
    minkowski_dot,
    rapidity,
    to_eta,
)
from .gamma import (
    ALPHA,
    BETA,
    GAMMA,
    GAMMA0,
    GAMMA5,
    GAMMA5_LOWER,
    METRIC,
    PAULI,
    SPIN,
    alpha_dot,
    anticommutator,
    commutator,
    gamma_slash,
    hamiltonian,
    helicity_operator,
    levi_civita,
    sigma_dot,
    spin_dot,
)
from .spinors import (
    Helicity,
    HelicityBasis,
    Normalization,
    bispinor_block,
    boost_bispinor,
    charge_conjugate,
    dirac_residual,
    eta_bispinor,
    helicity_basis,
    helicity_spinor,
    negative_energy_eigenvector,
    phi_matrix,
    phi_tilde_matrix,
    plane_wave,
    spin_basis_matrix,
)
from .observables import (
    adjoint_norm,
    bilinear,
    check_polarization_equation,
    current_density,
    dirac_adjoint,
    polarization_four_vector,
    polarization_from_bilinear,
    relate_spin_expectations,
    spin_expectations,
)
from .density import (
    covariant_density_identity,
    density4,
    density4_outer,
    density_block_form,
    energy_projector,
    nonrel_density,
    outer_with_adjoint,
    sigma_tensor,
    slash_pair,
    slash_pair_components,
)

# The verify engine, and the fermi constructions that only it uses, load on
# first use of the module or one of its names (PEP 562).  Importing the
# package, as every CLI command does, then compiles and runs neither.
_LAZY = {
    "verify": ("GridSpec", "IdentityCheck", "VerificationReport", "registry_ids", "run_suite"),
    "fermi": (
        "FermiProjectors",
        "fermi_bispinors_corrected",
        "fermi_bispinors_original",
        "fermi_gamma_set",
        "fermi_projectors",
        "fermi_sigma_primes",
    ),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *(n for names in _LAZY.values() for n in names)})
