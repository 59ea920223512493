"""Exception hierarchy shared across the package.

The CLI maps each class onto its own exit code, so library code should
raise the most specific class that applies: `InputError` is exit 2,
`ResourceLimitError` exit 3, `InvariantViolation` exit 4 and
`OutputError` exit 5.
"""


class ConcdimError(Exception):
    """Base class for all library errors."""


class InputError(ConcdimError):
    """Malformed or inconsistent caller input (bad matrix, bad weights, bad CSV)."""


class ResourceLimitError(ConcdimError):
    """A size limit was exceeded; the message names the limit and the fallback."""


class InvariantViolation(ConcdimError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class OutputError(ConcdimError):
    """An output directory or file could not be made or written."""
