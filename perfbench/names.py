"""Names shared by ``run.py``, the oracle and the traced child.

Importing this module does not import diracfree, so ``run.py`` itself
never pays for the imports it measures.
"""

import json
from pathlib import Path

# Frozen check ids and documented deviations of the verify registry.
_MANIFEST = json.loads(Path(__file__).with_name("manifest.json").read_text())
CHECK_IDS = tuple(sorted(_MANIFEST["ids"]))
DEVIATIONS = tuple(sorted(_MANIFEST["deviations"]))

SUITES = ("algebra", "spinors", "covariant", "density", "fermi")
LAYERS = ("smallmat", "gamma", "kinematics", "spinors", "observables", "density", "fermi")
KERNELS = (
    "from_eta", "hamiltonian", "helicity_operator", "spin_basis_matrix", "helicity_basis",
    "bispinor_block", "polarization_four_vector", "density4", "det4", "block_mul",
)
# Prefix of the stderr line on which the traced child writes its trace.
TRACE_MARKER = "PERFBENCH_TRACE "
