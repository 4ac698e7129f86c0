"""Exception types shared across the package."""


class GroupSpecError(ValueError):
    """Malformed group spec string or group definition file."""


class GroupValidationError(ValueError):
    """A supplied multiplication table is not a group."""


class SequenceError(ValueError):
    """Malformed sequence literal or sequence outside its domain."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured resource cap."""


class BudgetExceededError(ResourceLimitError):
    """A search space is too large for the configured budget."""


class ValidationFailure(RuntimeError):
    """A constructed object failed its self-checks."""
