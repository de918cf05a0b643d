"""Free Dirac-particle plane waves, helicity states, and density matrices.

A small numerical library that constructs every standard object of the
free spin-1/2 eigenvalue problem -- Pauli/Dirac/covariant gamma matrices,
plane-wave bi-spinors on both energy branches, helicity bases, the
polarization four-vector, energy projectors, and pure-state polarization
density matrices -- and machine-verifies the matrix identities relating
them.  Each name is imported from its module; see the ``verify`` module
and the ``diracfree`` CLI for the identity registry.
"""

__version__ = "0.1.0"
