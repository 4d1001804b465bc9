"""Unit-string parsing and formatting."""

import pytest

from repro.units import (
    UnitError,
    format_rate,
    format_time,
    parse_rate,
    parse_time,
)


class TestParseRate:
    def test_plain_number_defaults_to_bps(self):
        assert parse_rate(1000) == 1000.0

    def test_plain_number_with_default_unit(self):
        assert parse_rate(10, default_unit="Mbps") == 10e6

    @pytest.mark.parametrize("text,expected", [
        ("10Mbps", 10e6),
        ("10 Mbps", 10e6),
        ("128Kbps", 128e3),
        ("1Gbps", 1e9),
        ("50Mb/s", 50e6),
        ("2.5Gbps", 2.5e9),
        ("100bps", 100.0),
        ("4Tbps", 4e12),
    ])
    def test_strings(self, text, expected):
        assert parse_rate(text) == pytest.approx(expected)

    def test_case_insensitive(self):
        assert parse_rate("10MBPS") == parse_rate("10mbps") == 10e6

    def test_unknown_unit_raises(self):
        with pytest.raises(UnitError):
            parse_rate("10 parsecs")

    def test_garbage_raises(self):
        with pytest.raises(UnitError):
            parse_rate("fast")


class TestParseTime:
    @pytest.mark.parametrize("text,expected", [
        ("10ms", 0.010),
        ("1s", 1.0),
        ("500us", 500e-6),
        ("2min", 120.0),
        ("1h", 3600.0),
        ("250ns", 250e-9),
    ])
    def test_strings(self, text, expected):
        assert parse_time(text) == pytest.approx(expected)

    def test_bare_number_uses_default_unit(self):
        # Link latencies in the topology language are milliseconds.
        assert parse_time(10, default_unit="ms") == pytest.approx(0.010)
        assert parse_time("10", default_unit="ms") == pytest.approx(0.010)

    def test_bare_number_default_seconds(self):
        assert parse_time(120) == 120.0

    def test_unknown_unit_raises(self):
        with pytest.raises(UnitError):
            parse_time("10 fortnights")


class TestFormatting:
    def test_format_rate_picks_unit(self):
        assert format_rate(50e6) == "50Mbps"
        assert format_rate(1.5e9) == "1.5Gbps"
        assert format_rate(128e3) == "128Kbps"
        assert format_rate(10) == "10bps"

    def test_format_time_picks_unit(self):
        assert format_time(0.010) == "10ms"
        assert format_time(2.0) == "2s"
        assert format_time(5e-6) == "5us"

    def test_round_trip(self):
        for value in (128e3, 50e6, 1e9, 2.5e9):
            assert parse_rate(format_rate(value)) == pytest.approx(value)
