"""Exception hierarchy for the ViewMap reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class WireFormatError(ReproError):
    """A message could not be packed into / unpacked from its wire format."""


class ValidationError(ReproError):
    """A protocol object failed a validity check (range, hash, linkage...)."""


class DigestChainError(ValidationError):
    """A cascaded hash chain failed to replay against claimed content."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad signature...)."""


class DoubleSpendError(CryptoError):
    """A unit of virtual cash was presented twice."""


class RoutingError(ReproError):
    """The road-network router could not produce a route."""


class SimulationError(ReproError):
    """A simulation was configured inconsistently."""


class NetworkError(ReproError):
    """The in-memory anonymous transport failed to deliver a message."""


class StorageError(ReproError):
    """A VP store could not be opened or operated."""
