"""Small validation helpers used by configuration dataclasses.

Configuration errors should fail loudly at construction time with a message
naming the offending field, not deep inside the simulator.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a configuration value is invalid."""


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Require ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Require ``value`` to be a positive power of two (bank counts etc.)."""
    if value <= 0 or value & (value - 1) != 0:
        raise ConfigError(f"{name} must be a power of two, got {value!r}")
