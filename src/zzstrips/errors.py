"""Exception types shared across the package, and the structure checks
of the JSON readers."""


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


def json_field(data: object, key: str) -> object:
    """data[key] if data is an object holding key; ValueError otherwise,
    where indexing would raise TypeError or KeyError."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with {key!r}, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing {key!r}")
    return data[key]


def json_list(value: object, what: str) -> list:
    """value itself if it is a list; ValueError otherwise, where iterating
    would raise TypeError or split a string into characters."""
    if isinstance(value, list):
        return value
    raise ValueError(f"{what} must be a list, got {type(value).__name__}")
