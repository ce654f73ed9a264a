"""Unit tests for repro.util.units."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.units import GiB, KiB, MiB, TiB, format_size, parse_size


class TestParseSize:
    def test_plain_integer_passthrough(self):
        assert parse_size(4096) == 4096

    def test_integral_float_passthrough(self):
        assert parse_size(4096.0) == 4096

    def test_non_integral_float_rejected(self):
        with pytest.raises(ValueError):
            parse_size(0.5)

    def test_bare_number_string(self):
        assert parse_size("123") == 123

    def test_bytes_suffix(self):
        assert parse_size("123B") == 123

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("64K", 64 * KiB),
            ("64KB", 64 * KiB),
            ("64KiB", 64 * KiB),
            ("64k", 64 * KiB),
            ("1M", MiB),
            ("16G", 16 * GiB),
            ("2T", 2 * TiB),
        ],
    )
    def test_suffixes(self, text, expected):
        assert parse_size(text) == expected

    def test_fractional_sizes(self):
        assert parse_size("1.5K") == 1536

    def test_whitespace_tolerated(self):
        assert parse_size("  64 K ") == 64 * KiB

    def test_fractional_bytes_rejected(self):
        with pytest.raises(ValueError):
            parse_size("0.3B")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError, match="suffix"):
            parse_size("64Q")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_size("not a size")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_size("-64K")


class TestFormatSize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0B"),
            (512, "512B"),
            (64 * KiB, "64K"),
            (MiB, "1M"),
            (1536, "1.5K"),
            (3 * GiB, "3G"),
            (TiB, "1T"),
        ],
    )
    def test_exact_values(self, n, expected):
        assert format_size(n) == expected

    def test_negative(self):
        assert format_size(-64 * KiB) == "-64K"

    def test_precision(self):
        # 1.25M round-trips exactly at the requested precision.
        assert format_size(1280 * KiB, precision=2) == "1.25M"

    def test_lossy_label_falls_back_to_exact_bytes(self):
        # 1234K + 100 has no <= 4-digit suffix rendering that parses back
        # to itself ("1.21M" would read as 1268777), so bytes win.
        n = 1234 * KiB + 100
        assert format_size(n, precision=2) == f"{n}B"

    def test_near_boundary_gains_precision_instead_of_rounding_up(self):
        # The ISSUE-2 case: 2047 must not render "2.0K" (== 2048).
        assert format_size(2047) == "1.999K"
        assert parse_size(format_size(2047)) == 2047

    @pytest.mark.parametrize(
        "n,expected",
        [
            (1250 * MiB, "1250M"),  # No G label round-trips; the M label is exact.
            (1250 * MiB + 512 * KiB, "1280512K"),
            (5 * TiB + 7 * MiB, "5242887M"),
            (3 * GiB + 1, f"{3 * GiB + 1}B"),  # Whole in no unit: bytes.
        ],
    )
    def test_smaller_suffix_tried_before_bytes(self, n, expected):
        assert format_size(n) == expected
        assert parse_size(format_size(n)) == n

    def test_paper_legend_style(self):
        # Fig. 7's "36K-148K" legend components.
        assert format_size(36 * KiB) == "36K"
        assert format_size(148 * KiB) == "148K"


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=2**50))
    def test_format_is_lossless_for_integers(self, n):
        # The rendered label must parse back to exactly the same count.
        assert parse_size(format_size(n)) == n

    @given(
        st.sampled_from([KiB, MiB, GiB, TiB]),
        st.integers(min_value=1, max_value=1023),
        st.integers(min_value=-4, max_value=4),
    )
    def test_round_trip_near_every_binary_suffix_boundary(self, scale, multiple, delta):
        # Values straddling k*scale are where naive rounding flips to the
        # neighbouring multiple (2047 -> "2.0K" -> 2048).
        n = multiple * scale + delta
        assert parse_size(format_size(n)) == n

    @given(st.integers(min_value=0, max_value=2**20))
    def test_kib_multiples_round_trip_at_full_precision(self, k):
        # k/1024 always has an exact <=10-digit decimal expansion, so
        # formatting with precision=10 must round-trip losslessly.
        n = k * KiB
        assert parse_size(format_size(n, precision=10)) == n
