"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad input: malformed data, mismatched dimensions, out-of-range values,
    an instance over the qubit cap."""


class EvaluationError(RuntimeError):
    """An objective produced a non-finite value during optimization."""
