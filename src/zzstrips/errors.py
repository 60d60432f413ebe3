"""Exception types shared across the package, and the integer check of
the JSON readers."""


class StripParseError(ValueError):
    """Strip description text could not be parsed."""


class InvalidStripError(ValueError):
    """Shape sequence violates the structural rules of a regular strip."""


class NonKekuleanError(ValueError):
    """Strip admits no perfect matching; no DIB poset exists."""


class GuardExceeded(RuntimeError):
    """A brute-force enumeration guard was tripped."""


def json_int(value: object, what: str) -> int:
    """value itself if it is an int (a bool is not); ValueError otherwise.

    JSON readers go through this instead of int(), which would truncate
    2.9 to 2 and accept the string "3"."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")
