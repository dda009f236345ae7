"""Exception types shared across the package."""


class TaquinError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TaquinError, ValueError):
    """A sequence of row lengths does not define a valid (skew) shape."""


class TableauError(TaquinError, ValueError):
    """A grid of entries is structurally malformed for its shape."""


class DomainError(TaquinError, ValueError):
    """An operation was called with arguments outside its domain."""


class InvalidStateError(TaquinError, ValueError):
    """Occupied cells of a mesh state do not form a tableau region."""


class ResourceLimitError(TaquinError, RuntimeError):
    """An input exceeds a configured size bound."""
