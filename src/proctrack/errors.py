"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error the toolkit raises on purpose."""


class ValidationError(ToolkitError):
    """Malformed input: schema, invariant, or configuration problems."""


class NoValidPathError(ToolkitError):
    """Every candidate state sequence has probability zero under the model."""
