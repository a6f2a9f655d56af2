"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: UsageError is a usage error (exit 2),
FormatError and subclasses are data problems (exit 3), and NumericalError
covers divergence/NaN (exit 4). Any other exception, a plain ValueError
included, is a defect: it escapes the CLI with its traceback.
"""


class MednerError(Exception):
    """Base class for all toolkit errors."""


class UsageError(MednerError, ValueError):
    """A setting out of range: a config section or key, a seed, a precision,
    or a value that a config class or gen_synthetic refuses. A ValueError,
    so a direct caller may catch it as one."""


class FormatError(MednerError):
    """Malformed input data: corpus files, tags, vocabularies, results files."""


class BioViolationError(FormatError):
    """Strict BIO validation failed.

    Carries the offending token index so callers can point at the exact
    position in the record.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class CheckpointError(FormatError):
    """Checkpoint file is unreadable: bad version, shape mismatch, truncation."""


class NumericalError(MednerError):
    """Non-finite values where finite ones are required."""


class DivergenceError(NumericalError):
    """Training produced a non-finite loss or gradient and was aborted."""
