"""Exception hierarchy shared by all evframe modules, and the checks and
sizes they share: the stage budget, the count refusal and the loop tile.

Every error raised by library code derives from EvframeError so the CLI can
map any domain failure to exit code 1 while letting genuine bugs surface.
"""

import numbers


class EvframeError(Exception):
    """Base class for all evframe domain errors."""


class ParseError(EvframeError):
    """Malformed on-disk data; message names the offending line or field."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(EvframeError):
    """Unsupported or corrupt container format (bad magic, maxval, rank)."""


class SchemaError(EvframeError):
    """Structured document is missing a required member."""


class DomainError(EvframeError):
    """A value is outside its documented domain."""


class ShapeError(EvframeError):
    """Array dimensions do not satisfy an operation's contract."""


class ValidationError(EvframeError):
    """A decoded value violates a declared invariant."""


class StateError(EvframeError):
    """Operation invoked before its prerequisite state exists."""


# Most bytes one stage may allocate: the voxel grid, a warp's sampling arrays,
# the CAFR weights and cafr-gradcheck's drawn pair are each checked against it.
MAX_BYTES = 1 << 30

# Bytes of one tile of a blocked loop: a conv band's im2col copy, an attention
# block's score matrix and a mAP match chunk's padded blocks. It is a tile
# size, not a budget. The conv and attention bytes depend on its value, since
# BLAS splits a product's sums by the row count it is given; mAP does not.
BLOCK_BYTES = 4 << 20


def check_budget(what: str, need, unit: str, budget: int) -> None:
    """Refuse a stage whose estimate ``need`` exceeds ``budget``, before any work.

    A NaN or infinite estimate is refused too. The one refusal form is
    "<what> needs <need> <unit>s, over the <budget>-<unit> budget".
    """
    if not need <= budget:
        shown = f"{need:.6g}" if isinstance(need, float) else need
        raise DomainError(f"{what} needs {shown} {unit}s, over the {budget}-{unit} budget")


def check_count(name: str, value) -> int:
    """A Python or numpy integer >= 1 as an int; a bool or any other value
    is a DomainError naming the parameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be an int >= 1, got {value!r}")
    return int(value)
