"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was invoked outside its documented preconditions."""


class CapacityError(ContractViolation):
    """Input exceeds a configured model capacity (max dimension, objectives or sequence)."""


class ShapeError(ContractViolation):
    """Tensor shapes are inconsistent for the requested operation."""


class ConfigError(ContractViolation):
    """Invalid configuration value."""


class DataError(ContractViolation):
    """Malformed dataset record or incompatible population pair."""


class EvaluationError(RuntimeError):
    """A problem evaluation produced a non-finite objective or constraint value."""


class UnsupportedFront(ValueError):
    """The problem has no analytically known reference front."""


class IgdUndefined(ValueError):
    """IGD is undefined for the given solution set (e.g. empty)."""


class ModelOutputError(RuntimeError):
    """The model produced a non-finite output while generating.

    ``generation`` is the offspring generation's index and ``step`` the
    decode step, counted from 1, whose output was non-finite.
    """

    def __init__(self, message: str, generation: int, step: int):
        super().__init__(message)
        self.generation = generation
        self.step = step


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt, truncated or inconsistent with its config."""


class TapeError(RuntimeError):
    """Illegal use of a gradient tape (e.g. a second backward pass)."""
