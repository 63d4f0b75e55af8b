"""Exception types shared across the package, and the one count check."""

import numpy as np


class ValidationError(ValueError):
    """Bad input: malformed data, mismatched dimensions, out-of-range values,
    an instance over the qubit cap."""


class EvaluationError(RuntimeError):
    """An objective produced a non-finite value during optimization."""


def check_count(name: str, value, least: int) -> None:
    """Reject ``value`` unless it is an ``int`` or ``np.integer`` (never a
    bool) that is at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
