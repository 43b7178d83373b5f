"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly or deadlocked."""


class SimTimeoutError(SimulationError):
    """An awaited condition did not occur before its simulated deadline."""


class CryptoError(ReproError):
    """A signature, digest, or certificate failed validation."""


class ForgeryError(CryptoError):
    """An attempt was made to sign with a key the caller does not hold."""


class StorageError(ReproError):
    """The multiversion store was asked to do something inconsistent."""


class ProtocolError(ReproError):
    """A protocol participant received an ill-formed or invalid message."""


class TransactionAborted(ReproError):
    """Raised inside a transaction body when the system aborts it."""

    def __init__(self, reason: str = "aborted"):
        super().__init__(reason)
        self.reason = reason
