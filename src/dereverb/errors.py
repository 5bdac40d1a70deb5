"""Exception types shared across the package."""


class DereverbError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DereverbError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(DereverbError):
    """An argument violates a documented precondition."""


class ConfigError(DereverbError):
    """Invalid or unknown configuration key/value."""


class DataError(DereverbError):
    """A data file is missing, corrupt, or inconsistent."""


class TrainingError(DereverbError):
    """Numerical failure during training: a non-finite loss, gradient or updated parameter."""
