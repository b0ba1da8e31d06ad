"""Exception hierarchy shared by all evframe modules.

Every error raised by library code derives from EvframeError so the CLI can
map any domain failure to exit code 1 while letting genuine bugs surface.
"""


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


def check_budget(what: str, need, unit: str, budget: int) -> None:
    """Refuse a stage whose estimate ``need`` exceeds ``budget``, before any work.

    A NaN or infinite estimate is refused too. The one refusal form is
    "<what> needs <need> <unit>s, over the <budget>-<unit> budget".
    """
    if not need <= budget:
        shown = f"{need:.6g}" if isinstance(need, float) else need
        raise DomainError(f"{what} needs {shown} {unit}s, over the {budget}-{unit} budget")
