"""Package exception types."""


class MgemsError(Exception):
    """Base class for package errors."""


class ProfileFormatError(MgemsError):
    """A profile file is malformed or violates an input invariant."""


class ConfigFileError(MgemsError):
    """A config file is not UTF-8 or is structurally invalid."""


class BalanceError(MgemsError):
    """A dispatch result violated the power-balance invariant (internal bug)."""
