"""Exception types shared across the package."""


class SspError(Exception):
    """Base class for all package-specific errors."""


class SingularTransform(SspError):
    """(I + rS) is numerically singular; the canonical transform is undefined."""


class NonFinite(SspError):
    """A computation produced NaN or Inf where finite values are required."""


class NegativeGap(SspError):
    """An integrating-factor plan requires an exponential with a negative
    abscissa gap, which the non-decreasing-abscissa construction forbids."""


class UnknownMethod(SspError, KeyError):
    """Requested method name is not registered."""

    def __init__(self, name, available):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown method {name!r}; available: {', '.join(self.available)}"
        )

    def __str__(self):
        return self.args[0]

    def __reduce__(self):  # pickle rebuilds it from (name, available), not its message
        return type(self), (self.name, self.available)


class NotFound(SspError):
    """The optimizer failed to locate any feasible method."""


class ConfigError(SspError, ValueError):
    """Invalid experiment configuration."""
