"""Statistics and digests shared by the benchmark and its self-tests."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Sequence

__all__ = [
    "median",
    "quantile",
    "tail_percentile",
    "canonical",
    "digest",
]

#: Percentiles tried, highest last, by :func:`tail_percentile`.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A reported percentile needs at least this many samples above it.
TAIL_SAMPLES = 10

#: Significant digits of a float in :func:`canonical`.
DIGITS = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def quantile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float]) -> float | None:
    """The highest ladder percentile with at least ``TAIL_SAMPLES`` samples
    above it (``None`` when even the median has fewer)."""
    best = None
    for p in PERCENTILE_LADDER:
        if len(values) * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def canonical(value: Any) -> Any:
    """A JSON-ready form of ``value`` whose floats are fixed to ``DIGITS``
    significant digits, so that digests do not depend on how a float was
    printed or on last-bit noise."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)  # 2 and 2.0 print differently but are one number
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0.0:
            return "0"
        return format(value, f".{DIGITS}g")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(rows: Any) -> str:
    """SHA-256 of the canonical JSON of ``rows`` (first 16 hex digits)."""
    text = json.dumps(canonical(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf8")).hexdigest()[:16]
