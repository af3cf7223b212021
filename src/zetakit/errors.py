"""Exception hierarchy shared by all zetakit modules."""


class ZetaKitError(Exception):
    """Base class for every error raised by zetakit."""


class PoleError(ZetaKitError):
    """Evaluation requested at (or on a contour touching) a pole."""


class GammaPoleError(PoleError):
    """log_gamma called at a non-positive integer."""


class PrecisionEscalationError(ZetaKitError):
    """Two-precision agreement still failing after the retry budget."""


class NearZeroError(ZetaKitError):
    """1/zeta requested inside the numerical basin of a zero."""


class GridTooCoarseError(ZetaKitError):
    """Sign-change count and Backlund count disagree after grid refinement."""


class NoConvergenceError(ZetaKitError):
    """Newton refinement failed: a step left the bracket's basin, zeta'
    vanished, or a jet made no progress on the one before."""


class NonIntegerWindingError(ZetaKitError):
    """Contour quadrature of zeta'/zeta did not land near an integer."""


class ContourNearZeroError(ZetaKitError):
    """zeta'/zeta asked for at a point where |zeta| < ctx.tol, or a
    counting segment still passes that close to a zero after its shifts."""


class SuspectZeroError(ZetaKitError):
    """|zeta'(rho)| is below the simplicity floor; residue data unreliable."""


class ZeroLeadingCoefficientError(ZetaKitError):
    """Series inversion got a vanishing leading coefficient (multiple zero)."""


class OutsideDiskError(ZetaKitError):
    """Laurent evaluation requested outside the expansion's validity disk."""


class RangeError(ZetaKitError, ValueError):
    """Argument outside the documented range of an operation."""


class LimitTooLargeError(RangeError):
    """Sieve limit beyond the memory-bounded maximum."""


class UnknownIndexError(RangeError):
    """Zero index not present in the cache."""


class CacheFormatError(ZetaKitError):
    """Zero-cache file malformed or incompatible with the run config."""
