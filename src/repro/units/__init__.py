"""Unit parsing and formatting for rates and durations.

The topology description language (Listing 1 in the paper) expresses link
properties as human-readable strings such as ``"10Mbps"`` or ``"50ms"``.
Internally the whole code base works in SI base units:

* bandwidth — bits per second (``float``)
* time — seconds (``float``)
* data — bits (``float``)

The ``coerce_*`` functions are the value checks every front end shares:
a bare number is already in SI base units, a string carries its unit,
and a value outside its domain (a negative time, a non-positive rate, a
loss outside [0, 1]) is refused with the message the ``.scn`` schema
reports.

These helpers are deliberately strict: a malformed unit string raises
:class:`UnitError` instead of silently defaulting, because a typo in an
experiment description would otherwise corrupt a whole evaluation run.
"""

from repro.units.rates import (
    UnitError,
    coerce_loss,
    coerce_rate,
    coerce_time,
    format_rate,
    format_time,
    parse_rate,
    parse_time,
)

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
