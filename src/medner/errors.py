"""The exit-code contract: one exception class per exit code of the CLI.

UsageError is a usage error (exit 2), FormatError a data problem (exit 3)
and NumericalError a numerical failure, divergence or NaN (exit 4); all
three derive from MednerError. Any other exception, a plain ValueError
included, is a defect: it escapes the CLI with its traceback.
"""


class MednerError(Exception):
    """Base class for all toolkit errors."""


class UsageError(MednerError, ValueError):
    """A setting out of range: a config section or key, a seed, a precision,
    or a value that a config class or gen_synthetic refuses. A ValueError,
    so a direct caller may catch it as one."""


class FormatError(MednerError):
    """Malformed input data: corpus files, tags, vocabularies, checkpoints,
    results files."""


class NumericalError(MednerError):
    """Non-finite values where finite ones are required, a diverging
    training run included."""
