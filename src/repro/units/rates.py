"""Parsers and formatters for bandwidth and time unit strings."""

from __future__ import annotations

import re

__all__ = [
    "UnitError",
    "parse_rate",
    "parse_time",
    "coerce_time",
    "coerce_rate",
    "coerce_loss",
    "format_rate",
    "format_time",
]


class UnitError(ValueError):
    """Raised when a unit string cannot be parsed."""


_RATE_MULTIPLIERS = {
    "bps": 1.0,
    "kbps": 1e3,
    "mbps": 1e6,
    "gbps": 1e9,
    "tbps": 1e12,
    # Paper uses "Kb/s", "Mb/s", "Gb/s" spellings as well.
    "b/s": 1.0,
    "kb/s": 1e3,
    "mb/s": 1e6,
    "gb/s": 1e9,
    "tb/s": 1e12,
}

_TIME_MULTIPLIERS = {
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
    "min": 60.0,
    "h": 3600.0,
}

_NUMBER_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z/]*)\s*$")


def _split(text: str) -> tuple[float, str]:
    match = _NUMBER_RE.match(text)
    if match is None:
        raise UnitError(f"cannot parse unit string: {text!r}")
    return float(match.group(1)), match.group(2)


def parse_rate(value: "str | float | int", default_unit: str = "bps") -> float:
    """Parse a bandwidth value into bits per second.

    Accepts plain numbers (interpreted in ``default_unit``) or strings such
    as ``"10Mbps"``, ``"50 Mb/s"``, ``"128Kbps"``.
    """
    if isinstance(value, (int, float)):
        return float(value) * _RATE_MULTIPLIERS[default_unit.lower()]
    number, unit = _split(value)
    unit = unit.lower() or default_unit.lower()
    if unit not in _RATE_MULTIPLIERS:
        raise UnitError(f"unknown rate unit {unit!r} in {value!r}")
    return number * _RATE_MULTIPLIERS[unit]


def parse_time(value: "str | float | int", default_unit: str = "s") -> float:
    """Parse a duration into seconds.

    Plain numbers are interpreted in ``default_unit`` (seconds unless
    stated otherwise — the topology language uses milliseconds for link
    latency, so callers pass ``default_unit="ms"`` there).
    """
    if isinstance(value, (int, float)):
        return float(value) * _TIME_MULTIPLIERS[default_unit.lower()]
    number, unit = _split(value)
    unit = unit.lower() or default_unit.lower()
    if unit not in _TIME_MULTIPLIERS:
        raise UnitError(f"unknown time unit {unit!r} in {value!r}")
    return number * _TIME_MULTIPLIERS[unit]


def coerce_time(value) -> float:
    """Seconds from a number (already seconds) or a ``"10ms"`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise UnitError(f"expected seconds or a time string, got {value!r}")
    seconds = parse_time(value)
    if seconds < 0:
        raise UnitError(f"negative time: {value!r}")
    return seconds


def coerce_rate(value) -> float:
    """Bits/s from a number, a ``"100Mbps"`` string, or ``"unlimited"``."""
    if isinstance(value, str) and value.strip().lower() in ("unlimited",
                                                            "inf"):
        return float("inf")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise UnitError(f"expected bits/s or a rate string, got {value!r}")
    rate = parse_rate(value)
    if rate <= 0:
        raise UnitError(f"non-positive rate: {value!r}")
    return rate


def coerce_loss(value) -> float:
    """A loss probability from a number in [0, 1] or a ``"2%"`` string."""
    if isinstance(value, str):
        raw = value.strip()
        loss = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UnitError(f"expected a loss probability, got {value!r}")
    else:
        loss = float(value)
    if not 0.0 <= loss <= 1.0:
        raise UnitError(f"loss outside [0, 1]: {value!r}")
    return loss


def format_rate(bits_per_second: float) -> str:
    """Render a rate with an auto-selected SI unit, e.g. ``"50.0Mbps"``."""
    for unit, factor in (("Gbps", 1e9), ("Mbps", 1e6), ("Kbps", 1e3)):
        if abs(bits_per_second) >= factor:
            return f"{bits_per_second / factor:.4g}{unit}"
    return f"{bits_per_second:.4g}bps"


def format_time(seconds: float) -> str:
    """Render a duration with an auto-selected unit, e.g. ``"10ms"``."""
    if abs(seconds) >= 1.0:
        return f"{seconds:.4g}s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.4g}ms"
    if abs(seconds) >= 1e-6:
        return f"{seconds * 1e6:.4g}us"
    return f"{seconds * 1e9:.4g}ns"

