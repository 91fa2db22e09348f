"""Exception hierarchy shared across the package."""


class IneqError(Exception):
    """Base class for all errors raised by ineqlab."""


class EmptyPopulation(IneqError):
    """Dataset contains no records."""


class DegeneratePopulation(IneqError):
    """All indicator values are zero, or their sum is past the largest
    float; either way shares are undefined."""


class UnknownAttribute(IneqError):
    """An attribute name is not present in the dataset."""


class NegativeComponent(IneqError):
    """A vector component or indicator value is negative."""


class TooManyAttributes(IneqError):
    """More attributes requested than the operation supports."""


class InfiniteMeasure(IneqError):
    """A computation requires finiteness but the measure is infinite."""


class TransformDomainError(IneqError):
    """Input lies outside the domain of the Atkinson transform."""


class InvalidMeasure(IneqError):
    """A measure string or generator configuration is invalid."""
