"""Exception hierarchy shared by all modules."""


class MimicknetError(Exception):
    """Base class for all library errors."""


class InvalidTerminalCountError(MimicknetError):
    pass


class InvalidEdgeError(MimicknetError):
    pass


class TerminalCollisionError(MimicknetError):
    """A contraction class would contain two or more terminals."""


class OracleCapacityError(MimicknetError):
    """Instance too large for exhaustive cut enumeration."""


class NonUniqueCutsError(MimicknetError):
    """Perturbation requested on a network with tied minimum terminal cuts."""


class PerturbationFailedError(MimicknetError):
    """Resampling retries exhausted without passing validation."""


class InvalidEmbeddingError(MimicknetError):
    """Rotation system is malformed or not genus zero."""


class NotACircuitError(MimicknetError):
    """Dual edge set has a vertex of degree one."""


class InvalidPairError(MimicknetError):
    """Two networks cannot be compared (terminal mismatch)."""


class InvalidQueryError(MimicknetError):
    """Trivial or out-of-range terminal subset."""


class InvalidParameterError(MimicknetError):
    pass


class CostSizeError(InvalidParameterError):
    """Costs whose form over one common denominator would take far more
    bits than they were given in."""


class ParseError(MimicknetError):
    """Malformed graph or store file."""


class InternalError(MimicknetError):
    """An internal certificate failed (a bug, not bad input)."""
