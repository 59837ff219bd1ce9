"""Shared vocabulary: jump regions, package-level exceptions and the strict
readers every config section is parsed with."""

from __future__ import annotations

import enum
import math


class Region(enum.Enum):
    """Where a jump mark lives: inside the unit ball or on its complement."""

    SMALL = "small"
    TAIL = "tail"


class ConfigError(Exception):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class DivergentIntegralError(ValueError):
    """A requested moment of the jump measure is not absolutely convergent."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def section(key: str, obj, allowed: set[str]) -> dict:
    """A config object whose keys all lie in `allowed`."""
    require(isinstance(obj, dict), f"{key} must be an object, got {obj!r}")
    extra = set(obj) - allowed
    require(not extra, f"unknown {key} keys: {sorted(extra)}")
    return obj


def choice(label: str, kinds: type[enum.Enum], value) -> enum.Enum:
    """The member of the enum `kinds` whose value is the config text `value`."""
    try:
        return kinds(value)
    except ValueError:
        raise ConfigError(f"unknown {label} {value!r}; expected one of "
                          f"{[kind.value for kind in kinds]}") from None


def integer(key: str, value) -> int:
    """A config integer: a JSON number with an integral value (3 or 3.0);
    bools, strings and fractional or nonfinite numbers are refused."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"config key '{key}' must be an integer, got {value!r}")
    return int(value)


def finite(key: str, value) -> float:
    """A config float: a JSON number with a finite value; bools and strings
    are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key '{key}' must be finite, got {value!r}")
    return number
