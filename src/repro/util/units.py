"""Byte-size units and human-friendly size parsing/formatting.

The paper expresses every stripe and request size in binary units
(64KB = 65536 bytes, 512KB requests, 16GB files). All public APIs in this
library take sizes in bytes; this module provides the constants and the
``parse_size``/``format_size`` pair used by examples, benchmarks, and
experiment tables so that ``"64K"`` in a config means exactly what the paper
means.
"""

from __future__ import annotations

import re

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": KiB,
    "KB": KiB,
    "KIB": KiB,
    "M": MiB,
    "MB": MiB,
    "MIB": MiB,
    "G": GiB,
    "GB": GiB,
    "GIB": GiB,
    "T": TiB,
    "TB": TiB,
    "TIB": TiB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([A-Za-z]*)\s*$")


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable size like ``"64K"`` or ``"1.5M"`` into bytes.

    Integers and floats pass through (floats must be integral byte counts).
    Suffixes are binary (K = 1024) to match the paper's usage; ``KB``/``KiB``
    are accepted as synonyms.

    Raises:
        ValueError: if the string is malformed, the suffix is unknown, or the
            result is not an integral number of bytes.
    """
    if isinstance(text, int):
        return text
    if isinstance(text, float):
        if not text.is_integer():
            raise ValueError(f"size {text!r} is not an integral byte count")
        return int(text)
    match = _SIZE_RE.match(text)
    if match is None:
        raise ValueError(f"malformed size string: {text!r}")
    number, suffix = match.groups()
    try:
        scale = _SUFFIXES[suffix.upper()]
    except KeyError:
        raise ValueError(f"unknown size suffix {suffix!r} in {text!r}") from None
    value = float(number) * scale
    if scale == 1 and not value.is_integer():
        raise ValueError(f"size {text!r} is not an integral byte count")
    # Fractions of a binary unit round to the nearest byte ("1.2G" is a
    # human approximation, not an exact byte count).
    return int(round(value))


def format_size(n_bytes: int | float, precision: int = 1) -> str:
    """Format a byte count with the largest exact-or-rounded binary suffix.

    Sizes that are exact multiples render without a decimal point
    (``format_size(64 * KiB) == "64K"``), mirroring the paper's figure
    legends (``"64K"``, ``"36K-148K"``).

    For integral byte counts the rendering is *lossless*:
    ``parse_size(format_size(n)) == n`` always. A rounded label that would
    read back as a different value (``format_size(2047)`` must not say
    ``"2.0K"``, which parses as 2048) gains decimal digits until it
    round-trips. When no label of the largest fitting suffix within three
    extra digits does, a whole label in a smaller suffix is used
    (``format_size(1250 * MiB) == "1250M"``), and the exact byte count
    (``"1263716B"``-style) is the last resort.
    """
    n = float(n_bytes)
    if n < 0:
        return "-" + format_size(-n, precision)
    exact = n.is_integer()
    rounded = True  # Only the largest fitting suffix gets a rounded label.
    for suffix, scale in (("T", TiB), ("G", GiB), ("M", MiB), ("K", KiB)):
        if n >= scale:
            value = n / scale
            if value == int(value):
                return f"{int(value)}{suffix}"
            if rounded:
                for digits in range(precision, precision + 4):
                    label = f"{value:.{digits}f}{suffix}"
                    if not exact or parse_size(label) == int(n):
                        return label
                rounded = False
    if exact:
        return f"{int(n)}B"
    return f"{n:.{precision}f}B"
