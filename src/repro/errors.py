"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class IsaError(ReproError):
    """Raised on invalid instruction encodings or assembly input."""


class MemoryError_(ReproError):
    """Raised on invalid physical memory accesses (out of range, misaligned)."""


class IntegrityError(ReproError):
    """Raised when integrity verification fails (a MAC or hash mismatch).

    In the functional machine this models the processor's security
    exception.  The offending physical line address is attached so that
    tests and attack harnesses can assert *where* tampering was caught.
    """

    def __init__(self, message, line_addr=None):
        super().__init__(message)
        self.line_addr = line_addr


class SecurityException(IntegrityError):
    """Alias used when a policy raises the architectural security fault."""


class SimulationError(ReproError):
    """Raised when the timing simulator reaches an inconsistent state."""


class JobError(ReproError):
    """Raised when a job fails terminally under a fail-fast policy.

    Carries the ``job_id`` and how many attempts were spent, so sweep
    drivers can report *which* grid point aborted the run.
    """

    def __init__(self, message, job_id=None, attempts=0):
        super().__init__(message)
        self.job_id = job_id
        self.attempts = attempts


class JobTimeoutError(JobError):
    """Raised when one job attempt exceeds its FailurePolicy timeout."""
