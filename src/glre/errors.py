"""Exception types shared across the package, and the shared checks of settings.

Contract violations (bad shapes, bad parameters, unusable data) derive from
ValueError; state-machine misuse derives from RuntimeError. The CLI maps the
former to exit code 1 and file/format problems to exit code 2.
"""

import math
import os
from numbers import Integral, Real


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class ParameterError(ValueError):
    """A numeric hyperparameter is outside its legal range."""


def check_number(name: str, value, integer: bool = False, minimum=None):
    """`value` unchanged if it is a finite number (an integer if `integer`), >= `minimum`.

    Bools are not numbers here. A wrong type raises SettingTypeError (CLI exit
    2); NaN, +-inf or a value below `minimum` raises ParameterError (exit 1).
    """
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise SettingTypeError(
            f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not isinstance(value, Integral) and not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_memory(setting: str, n_bytes: int, of: str) -> None:
    """ParameterError naming `setting` if the `n_bytes` of `of` it implies exceed the
    machine's physical memory; where the OS does not say how much that is, no check."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if n_bytes > memory:
        raise ParameterError(f"{setting} need {n_bytes:,} bytes of {of}, more than the "
                             f"machine's {memory:,} bytes of physical memory")


def check_grid(name: str, value) -> tuple:
    """`value` as a tuple of two integers >= 1, each checked by check_number."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SettingTypeError(f"{name} must be two integers, got {value!r}")
    return tuple(check_number(f"{name} entry", n, integer=True, minimum=1) for n in value)


def is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


class DegenerateRowError(ValueError):
    """A row has (near-)zero norm where a direction is required."""

    def __init__(self, row: int, norm: float):
        self.row = row
        self.norm = norm
        super().__init__(f"row {row} has near-zero norm {norm:.3e} (threshold 1e-12)")


class NonScalarLossError(ValueError):
    """backward() was handed a non-scalar tensor."""


class TapeStateError(RuntimeError):
    """A gradient tape was replayed twice."""


class VocabularyError(ValueError):
    """A token id or token string falls outside the experiment vocabulary."""


class FormatError(ValueError):
    """A serialized file is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class SettingTypeError(FormatError, TypeError):
    """A setting has the wrong type: a format error that is also a TypeError."""


class ConsistencyError(ValueError):
    """Records inside one file disagree on a global property (e.g. dimension)."""


class VersionError(ValueError):
    """A versioned file was written by an incompatible format revision."""


class TrainingDivergenceError(RuntimeError):
    """A gradient became non-finite during optimization."""

    def __init__(self, param_name: str):
        self.param_name = param_name
        super().__init__(f"non-finite gradient for parameter '{param_name}'")


class InsufficientDataError(ValueError):
    """The dataset is too small for the requested operation."""


class SplitSizeError(ValueError):
    """Requested split sizes exceed the available records."""

    def __init__(self, requested: int, available: int):
        self.requested = requested
        self.available = available
        super().__init__(f"requested {requested} records but only {available} are available")


class UndefinedAucError(ValueError):
    """AUC is undefined because only one label class is present."""
