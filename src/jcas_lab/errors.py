"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix or vector shapes are inconsistent with the model."""


class ParameterError(ValueError):
    """A parameter lies outside its allowed range."""


class NumericalError(RuntimeError):
    """A linear solve failed or is too ill-conditioned to trust."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class EvidenceError(ValueError):
    """A measurement has zero probability under the current belief."""


class EnumerationLimitError(ValueError):
    """An exact enumeration request exceeds the documented desk-scale bound."""


class SchemaError(ValueError):
    """A config or model file does not match its schema."""
