"""Exception types raised by the library's precondition checks."""


class DiracFreeError(Exception):
    """Base class for all library errors."""


class ZeroMomentum(DiracFreeError):
    """Operation needs a momentum direction but |p| = 0."""


class MasslessState(DiracFreeError):
    """Operation is undefined for m = 0 (rapidity, eta parameter, boosts)."""


class EtaOutOfRange(DiracFreeError):
    """Speed parameter eta must lie in [0, 1)."""


class NonPositiveVolume(DiracFreeError):
    """Box normalization requires a positive quantization volume."""


class NonUnitDirection(DiracFreeError):
    """Polarization direction must be a unit 3-vector."""


class NonCommutingBlocks(DiracFreeError):
    """Neither block-commutation precondition of the Schur determinant holds."""


class SingularA(DiracFreeError):
    """Top-left block is singular; the Schur complement D - C A^-1 B is undefined."""


class UnnormalizablePhi(DiracFreeError):
    """Cannot normalize a bi-spinor built from a zero two-spinor."""


class IndexOutOfRange(DiracFreeError):
    """Tensor index outside the valid range."""


class UnknownSuite(DiracFreeError):
    """Verification suite name not in the registry."""
