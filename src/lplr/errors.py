"""Exception types raised across the library.

Every failure mode surfaced by the public API maps to one of these classes,
so callers (and the CLI) can distinguish usage errors from numerical ones.
"""


class LplrError(Exception):
    """Base class for all library errors."""


class InvalidP(LplrError):
    """Norm exponent p is not a finite number >= 1."""


class InvalidConfig(LplrError):
    """An unknown method name; the message lists the known ones."""


class InvalidRank(LplrError):
    """Target rank k is outside [1, d - 1]."""


class ShapeMismatch(LplrError):
    """Operands have incompatible or unexpected shapes."""


class SvdFailure(LplrError):
    """SVD or symmetric eigendecomposition did not converge / verify."""


class NotPositiveDefinite(LplrError):
    """A matrix required to be positive definite is not."""


class RankDeficient(LplrError):
    """Matrix does not have full column rank where full rank is required."""


class DimensionTooSmall(LplrError):
    """Operation undefined below a minimum dimension (shallow cuts need d >= 2)."""


class ZeroGradient(LplrError):
    """Subgradient requested at a point where Ax = 0."""


class NoConvergence(LplrError):
    """Iteration budget exhausted before reaching the required tolerance.

    Carries the best iterate seen so far (if any) for diagnostics.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NotCompressing(LplrError):
    """Factor pair would use at least as much memory as the input matrix."""


class ParseError(LplrError):
    """Matrix file is malformed (bad magic, truncated payload, bad text)."""


class HeaderMismatch(LplrError):
    """Matrix file header disagrees with the payload dimensions."""
