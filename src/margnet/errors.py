"""The package's own exception types, one per exit code of its own.

Every other library error is a ValueError (exit 2 in the CLI); these two
classes carry exit codes that a ValueError does not.
"""


class MargNetError(Exception):
    """Base class for the package's own exception types."""


class CheckpointError(MargNetError):
    """An unreadable or malformed checkpoint file (exit 1)."""


class InsufficientBudget(MargNetError):
    """A spend the privacy budget cannot cover (exit 3)."""
