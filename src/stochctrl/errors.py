"""Exception taxonomy shared across the package.

Every error raised deliberately by this package derives from
:class:`StochctrlError`, so callers can catch one base class. The CLI maps
subclasses to stable exit codes.
"""


class StochctrlError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(StochctrlError):
    """A matrix or vector has a shape inconsistent with the declared sizes."""


class NoiseMomentViolation(StochctrlError):
    """Noise law fails the zero-mean / unit-variance / probability checks."""


class SchemaError(StochctrlError):
    """Instance document, controller table or a system's fields violate the schema.

    A system's fields: a channel without its lag (or a lag without its
    channel), or an integer field (n, m, N, a lag) out of range.
    """


class UnsupportedReducedStructure(StochctrlError):
    """Rank-deficient noise input matrix outside the supported block form."""


class StructureUnsupported(StochctrlError):
    """Combination of optional system features that no criterion covers."""


class RankDeficient(StochctrlError):
    """A matrix required to have full rank does not."""


class BadUserM(StochctrlError):
    """User-supplied input transform fails its defining identity."""


class SingularPencil(StochctrlError):
    """The drift pencil that must be inverted for the backward form is singular."""


class EnumerationTooLarge(StochctrlError):
    """Exact path enumeration over ``s``-point noise to ``horizon`` would exceed ``cap`` leaves."""

    def __init__(self, s: int, horizon: int, cap: int):
        self.s, self.horizon, self.cap = s, horizon, cap
        super().__init__(f"{s}^{horizon + 1} leaves exceed cap {cap}")


class StageMismatch(StochctrlError):
    """A stage-indexed object is missing, or indexed outside its range."""


class CriteriaDisagreement(StochctrlError):
    """Gramian and word-span criteria disagree; numerically inconsistent run."""


class SingularGramian(StochctrlError):
    """The steering Gramian ``what`` is singular at the requested horizon ``N``."""

    def __init__(self, what: str, N: int, smin: float):
        self.N = N
        super().__init__(f"{what} at N = {N} has min singular value {smin:.3e}; cannot invert")


class NonFiniteGramian(StochctrlError):
    """The Gramian recursion overflowed: S(``horizon``) is the first non-finite one."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        super().__init__(f"Gramian is not finite at horizon {horizon}; the moment recursion overflows")


class TargetNotInS(StochctrlError):
    """Terminal value is not attainable by the homogeneous backward equation."""


class NoIntertwiner(StochctrlError):
    """No matrix X1 with H X = X1 H exists within tolerance."""


class SingularBlock(StochctrlError):
    """Block drift matrix of the reduced form is singular."""


class SingularPBracket(StochctrlError):
    """Bracket matrix of the delay compensator sequence is singular at stage ``k``."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"delay compensator bracket singular at stage {k}")
