"""Domain model for E2 KPI subscriptions.

A subscription names an E2 node, the KPIs to report, a report period per
KPI, and an optional staleness tolerance per KPI. Requests decompose into
per-KPI demands, the unit the merge engine works on. The module also
provides the whole-request fingerprint used by the legacy deduplication
baseline, which only recognizes byte-identical request content.

Canonical serialization layout (bit-exact across implementations):
integers are 8-byte big-endian unsigned, strings are an 8-byte big-endian
length followed by UTF-8 bytes, and optional integers are a 1-byte
presence flag (0x00 absent, 0x01 present) followed by the value.
"""

from __future__ import annotations

import hashlib
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


def _validate_period(period_ms: int) -> None:
    if not 1 <= period_ms <= MAX_PERIOD_MS:
        raise ValueError(f"report period out of range [1, {MAX_PERIOD_MS}] ms: {period_ms}")


def _validate_sensitivity(sensitivity_ms: int | None) -> None:
    if sensitivity_ms is not None and sensitivity_ms < 1:
        raise ValueError(f"staleness tolerance must be >= 1 ms: {sensitivity_ms}")


def _validate_id(value: int, label: str) -> None:
    if value < 0:
        raise ValueError(f"{label} must be non-negative: {value}")


@dataclass(frozen=True)
class SubscriptionItem:
    """One KPI line of a request: what to report, how often, and how
    stale a delivered sample may be (``None`` = no tolerance given)."""

    kpi: KpiId
    period_ms: int
    sensitivity_ms: int | None = None

    def __post_init__(self) -> None:
        if not self.kpi:
            raise ValueError("KPI name must be non-empty")
        _validate_period(self.period_ms)
        _validate_sensitivity(self.sensitivity_ms)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        if not self.kpi:
            raise ValueError("KPI name must be non-empty")
        _validate_period(self.period_ms)
        _validate_sensitivity(self.sensitivity_ms)


def decompose(request: SubscriptionRequest) -> list[KpiDemand]:
    """Split a request into per-KPI demands, preserving item order."""
    return [
        KpiDemand(request.xapp, request.node, item.kpi, item.period_ms, item.sensitivity_ms)
        for item in request.items
    ]


def pack_u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return pack_u64(len(raw)) + raw


def pack_optional_u64(value: int | None) -> bytes:
    if value is None:
        return b"\x00"
    return b"\x01" + pack_u64(value)


def canonical_bytes(request: SubscriptionRequest) -> bytes:
    """Canonical serialization of a request's node and items.

    The xApp id is deliberately excluded: two xApps issuing identical
    content must serialize identically, which is what whole-request
    deduplication keys on. Item order is preserved, so reordered but
    otherwise equal requests serialize differently.
    """
    parts = [pack_u64(request.node)]
    for item in request.items:
        parts.append(pack_name(item.kpi))
        parts.append(pack_u64(item.period_ms))
        parts.append(pack_optional_u64(item.sensitivity_ms))
    return b"".join(parts)


def request_fingerprint(request: SubscriptionRequest) -> bytes:
    """Fixed-width digest of the canonical serialization.

    Only digest equality is ever used; equal digests identify
    byte-identical canonical forms.
    """
    return hashlib.sha256(canonical_bytes(request)).digest()
