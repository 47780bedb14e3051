"""Domain model for E2 KPI subscriptions.

A subscription names an E2 node, the KPIs to report, a report period per
KPI, and an optional staleness tolerance per KPI. Requests decompose into
per-KPI demands, the unit the merge engine works on. The module also
provides the whole-request fingerprint used by the legacy deduplication
baseline, which only recognizes byte-identical request content: the
fingerprint is the canonical serialization itself, not a digest of it.

Canonical serialization layout (bit-exact across implementations):
integers are 8-byte big-endian unsigned, strings are an 8-byte big-endian
length followed by UTF-8 bytes, and optional integers are a 1-byte
presence flag (0x00 absent, 0x01 present) followed by the value. The
writers and readers below are the only code that handles this layout,
for the canonical form and the live-mode wire messages alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

KpiId = str
E2NodeId = int
XAppId = int

# Sanity cap on report periods: one hour.
MAX_PERIOD_MS = 3_600_000


class DuplicateKpiError(ValueError):
    """A request lists the same KPI more than once."""

    def __init__(self, kpi: KpiId) -> None:
        super().__init__(f"duplicate KPI in request: {kpi!r}")
        self.kpi = kpi


def check_period(period_ms: int) -> None:
    """Raise ``ValueError`` unless ``period_ms`` is in [1, MAX_PERIOD_MS]."""
    if not 1 <= period_ms <= MAX_PERIOD_MS:
        raise ValueError(f"report period out of range [1, {MAX_PERIOD_MS}] ms: {period_ms}")


def _validate_item(kpi: KpiId, period_ms: int, sensitivity_ms: int | None) -> None:
    if not kpi:
        raise ValueError("KPI name must be non-empty")
    check_period(period_ms)
    if sensitivity_ms is not None and sensitivity_ms < 1:
        raise ValueError(f"staleness tolerance must be >= 1 ms: {sensitivity_ms}")


def _validate_id(value: int, label: str) -> None:
    if value < 0:
        raise ValueError(f"{label} must be non-negative: {value}")


@dataclass(frozen=True, slots=True)
class SubscriptionItem:
    """One KPI line of a request: what to report, how often, and how
    stale a delivered sample may be (``None`` = no tolerance given)."""

    kpi: KpiId
    period_ms: int
    sensitivity_ms: int | None = None

    def __post_init__(self) -> None:
        _validate_item(self.kpi, self.period_ms, self.sensitivity_ms)


@dataclass(frozen=True, slots=True)
class SubscriptionRequest:
    """An xApp's subscription towards one E2 node."""

    xapp: XAppId
    node: E2NodeId
    items: tuple[SubscriptionItem, ...]

    def __post_init__(self) -> None:
        _validate_id(self.xapp, "xApp id")
        _validate_id(self.node, "node id")
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise ValueError("subscription request must contain at least one item")
        seen: set[KpiId] = set()
        for item in self.items:
            if item.kpi in seen:
                raise DuplicateKpiError(item.kpi)
            seen.add(item.kpi)


@dataclass(frozen=True, slots=True)
class KpiDemand:
    """A single xApp's demand for one KPI from one node."""

    xapp: XAppId
    node: E2NodeId
    kpi: KpiId
    period_ms: int
    sensitivity_ms: int | None = None

    def __post_init__(self) -> None:
        _validate_id(self.xapp, "xApp id")
        _validate_id(self.node, "node id")
        _validate_item(self.kpi, self.period_ms, self.sensitivity_ms)


def decompose(request: SubscriptionRequest) -> list[KpiDemand]:
    """Split a request into per-KPI demands, preserving item order."""
    return [
        KpiDemand(request.xapp, request.node, item.kpi, item.period_ms, item.sensitivity_ms)
        for item in request.items
    ]


# Byte layout. Writers return bytes; readers take ``(data, pos)``, return
# ``(value, next_pos)`` and raise ``struct.error`` past the end of ``data``.
_U8 = struct.Struct(">B")
_U64 = struct.Struct(">Q")
pack_u64 = _U64.pack


def read_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(data, pos)[0], pos + 8


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return pack_u64(len(raw)) + raw


def read_name(data: bytes, pos: int) -> tuple[str, int]:
    """Raises ``UnicodeDecodeError``, a ``ValueError``, for bytes that are not UTF-8."""
    length, pos = read_u64(data, pos)
    end = pos + length
    if end > len(data):
        raise struct.error("name runs past the end of the data")
    return data[pos:end].decode("utf-8"), end


def pack_optional_u64(value: int | None) -> bytes:
    return b"\x00" if value is None else b"\x01" + pack_u64(value)


def read_optional_u64(data: bytes, pos: int) -> tuple[int | None, int]:
    (present,) = _U8.unpack_from(data, pos)
    return read_u64(data, pos + 1) if present else (None, pos + 1)


def pack_pair(pair: tuple[str, int]) -> bytes:
    """A (name, u64) row, such as an indication's (KPI, sample time)."""
    name, value = pair
    return pack_name(name) + pack_u64(value)


def read_pair(data: bytes, pos: int) -> tuple[tuple[str, int], int]:
    name, pos = read_name(data, pos)
    value, pos = read_u64(data, pos)
    return (name, value), pos


def pack_item(item: SubscriptionItem) -> bytes:
    """A subscription item: the (KPI, period) pair, then the optional tolerance."""
    return pack_name(item.kpi) + pack_u64(item.period_ms) + pack_optional_u64(item.sensitivity_ms)


def read_item(data: bytes, pos: int) -> tuple[SubscriptionItem, int]:
    """Raises ``ValueError`` for an item that ``SubscriptionItem`` rejects."""
    (kpi, period), pos = read_pair(data, pos)
    tolerance, pos = read_optional_u64(data, pos)
    return SubscriptionItem(kpi, period, tolerance), pos


def canonical_bytes(request: SubscriptionRequest) -> bytes:
    """Canonical serialization of a request's node and items.

    The xApp id is deliberately excluded: two xApps issuing identical
    content must serialize identically, which is what whole-request
    deduplication keys on. Item order is preserved, so reordered but
    otherwise equal requests serialize differently. Unlike the items of a
    subscribe message, the items carry no count.
    """
    return pack_u64(request.node) + b"".join(map(pack_item, request.items))


def request_fingerprint(request: SubscriptionRequest) -> bytes:
    """The whole-request dedup key: the canonical serialization itself.

    Only key equality is ever used, and equal keys are byte-identical
    canonical forms, with no collisions. Keying on the bytes rather than
    a digest of them keeps ``hashlib``, and with it OpenSSL's libcrypto,
    out of every ricmerge process.
    """
    return canonical_bytes(request)
