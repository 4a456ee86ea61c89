"""Exception types shared across the package, and the checks for counts and reals."""
import numbers
import operator


class ConfigError(ValueError):
    """A run description is malformed or violates a parameter constraint."""


class IntegrationFault(RuntimeError):
    """The integrator produced non-finite state; carries the failing step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state produced at step {step}")


def whole(key: str, value) -> int:
    """value as operator.index reads it; ConfigError naming key for a value
    it does not take, such as a float, even 2.0."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{key} must be a whole number, got {key}={value!r}") from None


def real(key: str, value) -> float:
    """value as a float when it is a real number, such as an int, a float or a
    numpy scalar; ConfigError naming key for any other value, such as a
    string, and for an int beyond the float range."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a real number, got {key}={value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} must lie within the float range, got {key}={value!r}") from None
